"""Exact multivariate polynomials over the integers.

Sparse representation: ``terms`` maps exponent tuples (one slot per
variable) to nonzero Python ints.  No floats anywhere; this module is the
arithmetic bedrock for the symbolic Schur calculus and must stay exact.

Validation happens at the boundary.  The mapping constructor
``SymPoly(nvars, {e: c})`` checks every coefficient and exponent with
``operator.index``, rejects exponent tuples of the wrong length or with a
negative entry, sums duplicate keys and drops zeros.  Results computed here
(arithmetic, padding, substitution, permutation, the basis polynomials) are
built from terms that already passed those checks and go through the
unchecked ``SymPoly._raw`` instead; every such result still holds only
nonzero ints under exponent tuples of length ``nvars``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Mapping, Sequence


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder that should not exist."""


class SymPoly:
    """Polynomial in ``nvars`` variables with integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, int] | None = None):
        self.nvars = int(nvars)
        data: dict[tuple[int, ...], int] = {}
        if terms:
            for e, c in terms.items():
                c = operator.index(c)  # exact module: reject floats loudly
                if c == 0:
                    continue
                e = tuple(operator.index(x) for x in e)
                if len(e) != self.nvars or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent tuple {e} for {self.nvars} variables")
                data[e] = data.get(e, 0) + c
        self.terms = {e: c for e, c in data.items() if c}

    @classmethod
    def _raw(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "SymPoly":
        """Wrap ``terms`` unchecked; the result owns the dict.

        The caller guarantees nonzero int coefficients and exponent tuples
        of length ``nvars`` with nonnegative int entries.
        """
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SymPoly":
        return cls._raw(int(nvars), {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "SymPoly":
        nvars, c = int(nvars), operator.index(c)
        return cls._raw(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "SymPoly":
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "SymPoly":
        """The variable in slot i (0-based)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable slot {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = 1
        return cls._raw(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: int = 1) -> "SymPoly":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def pad(self, nvars: int) -> "SymPoly":
        """Same polynomial viewed in a larger alphabet (extra trailing slots)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the alphabet")
        if nvars == self.nvars:
            return self
        tail = (0,) * (nvars - self.nvars)
        return SymPoly._raw(nvars, {e + tail: c for e, c in self.terms.items()})

    @staticmethod
    def _aligned(a: "SymPoly", b: "SymPoly"):
        m = max(a.nvars, b.nvars)
        return a.pad(m), b.pad(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.const(self.nvars, other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        a, b = SymPoly._aligned(self, other)
        out = dict(a.terms)
        _add_into(out, b.terms)
        return SymPoly._raw(a.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return SymPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.const(self.nvars, other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SymPoly":
        return (-self) + other

    def __mul__(self, other) -> "SymPoly":
        if isinstance(other, int):
            return SymPoly._raw(self.nvars, {e: other * c for e, c in self.terms.items()}
                                if other else {})
        if not isinstance(other, SymPoly):
            return NotImplemented
        a, b = SymPoly._aligned(self, other)
        out: dict[tuple[int, ...], int] = {}
        add = operator.add
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SymPoly._raw(a.nvars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SymPoly":
        if k < 0:
            raise ValueError("negative power")
        result = SymPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = SymPoly.const(self.nvars, other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        a, b = SymPoly._aligned(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- substitution and symmetry -----------------------------------------

    def substitute(self, values: Sequence["SymPoly"]) -> "SymPoly":
        """Replace variable i by values[i]; all values share one alphabet."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} replacement polynomials")
        if not values:
            # constant polynomial in the empty alphabet
            return SymPoly._raw(0, dict(self.terms))
        m = max(v.nvars for v in values)
        if not self.terms:
            return SymPoly.zero(m)
        values = [v.pad(m) for v in values]
        powers: list[dict[int, SymPoly]] = [{1: v} for v in values]

        def power(i: int, k: int) -> SymPoly:
            cache = powers[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * values[i]
            return cache[k]

        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            factors = [power(i, k) for i, k in enumerate(e) if k] or [SymPoly.one(m)]
            _add_into(out, functools.reduce(operator.mul, factors).terms, c)
        return SymPoly._raw(m, out)

    def permute_variables(self, perm: Sequence[int]) -> "SymPoly":
        """Apply x_i -> x_{perm[i]} (0-based slots)."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation of the variable slots")
        inverse = [0] * self.nvars
        for i, j in enumerate(perm):
            inverse[j] = i
        # a permutation of the slots maps distinct exponents to distinct ones
        return SymPoly._raw(self.nvars, {tuple([e[i] for i in inverse]): c
                                         for e, c in self.terms.items()})

    # -- display -----------------------------------------------------------

    def pretty(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"x{i+1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [f"{names[i]}^{k}" if k > 1 else names[i]
                       for i, k in enumerate(e) if k]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{'+' if c >= 0 else '-'} {abs(c)}*{body}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    def __repr__(self) -> str:
        return f"SymPoly({self.pretty()})"


def _add_into(out: dict[tuple[int, ...], int], terms: Mapping[tuple[int, ...], int],
              scale: int = 1) -> None:
    """out += scale * terms in place, dropping coefficients that cancel.

    Both sides use one alphabet; ``scale`` is a nonzero int.
    """
    for e, c in terms.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            del out[e]


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of 0..len(perm)-1, from its cycle lengths."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@functools.lru_cache(maxsize=None)
def signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of 0..k-1 with its sign, in lexicographic order."""
    return tuple((w, permutation_sign(w)) for w in itertools.permutations(range(k)))


def antisymmetrize(p: SymPoly) -> SymPoly:
    """sum over permutations w of sign(w) * w(p), over all variable slots."""
    out: dict[tuple[int, ...], int] = {}
    for w, sign in signed_permutations(p.nvars):
        # reading the exponents through w applies w^-1 to the slots, and
        # w^-1 runs over the same permutations with the same signs
        _add_into(out, {tuple([e[i] for i in w]): c for e, c in p.terms.items()}, sign)
    return SymPoly._raw(p.nvars, out)


@functools.lru_cache(maxsize=None)
def vandermonde(nvars: int) -> SymPoly:
    """prod_{i<j} (x_i - x_j)."""
    out = SymPoly.one(nvars)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            out = out * (SymPoly.variable(i, nvars) - SymPoly.variable(j, nvars))
    return out


def divide_exact(num: SymPoly, den: SymPoly) -> SymPoly:
    """Exact division; raises ExactDivisionError on any remainder.

    Plain lexicographic reduction against a single divisor.  Sufficient here
    because every use divides an antisymmetric polynomial by the Vandermonde
    determinant, where divisibility is a theorem; a failure indicates an
    internal bug upstream and must surface loudly.
    """
    num, den = SymPoly._aligned(num, den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lt_den = max(den.terms)
    cd = den.terms[lt_den]
    quotient: dict[tuple[int, ...], int] = {}
    rem = dict(num.terms)
    add, sub = operator.add, operator.sub
    while rem:
        lt = max(rem)
        diff = tuple(map(sub, lt, lt_den))
        if any(d < 0 for d in diff):
            raise ExactDivisionError(f"leading term {lt} not divisible by {lt_den}")
        c = rem[lt]
        if c % cd:
            raise ExactDivisionError(f"coefficient {c} not divisible by {cd}")
        q = c // cd
        # leading terms strictly decrease, so every quotient term is new
        quotient[diff] = q
        _add_into(rem, {tuple(map(add, diff, e)): cden for e, cden in den.terms.items()},
                  -q)
    return SymPoly._raw(num.nvars, quotient)


@functools.lru_cache(maxsize=None)
def elementary_symmetric(k: int, nvars: int) -> SymPoly:
    """e_k(x_1..x_nvars), one term per k-subset of the slots."""
    terms: dict[tuple[int, ...], int] = {}
    if 0 <= k <= nvars:
        for combo in itertools.combinations(range(nvars), k):
            e = [0] * nvars
            for i in combo:
                e[i] = 1
            terms[tuple(e)] = 1
    return SymPoly._raw(int(nvars), terms)


@functools.lru_cache(maxsize=None)
def complete_homogeneous(k: int, nvars: int) -> SymPoly:
    """h_k(x_1..x_nvars), all monomials of degree k."""
    terms = dict.fromkeys(_compositions(k, nvars), 1) if k >= 0 else {}
    return SymPoly._raw(int(nvars), terms)


def _compositions(k: int, slots: int):
    """Exponent tuples of length ``slots`` summing to k, first slot ascending."""
    if slots == 0:
        if k == 0:
            yield ()
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, slots - 1):
            yield (first,) + rest
