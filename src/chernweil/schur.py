"""Exact Schur calculus for Chern and Segre classes of a rank-r bundle.

Everything here is integer arithmetic on :class:`~chernweil.polynomial.SymPoly`.
Three interchangeable alphabets appear, always documented per function:

* c-alphabet: slots 0..r-1 are the Chern classes c_1..c_r (c_0 = 1 and
  c_l = 0 for l outside [0, r] are built into the determinant entries);
* s-alphabet: slots 0..N-1 are the Segre classes s_1..s_N, kept free unless
  a truncation degree is requested;
* x-alphabet: slots 0..r-1 are the Chern roots of the dual bundle, so that
  s_k = h_k(x) and c_k = e_k(-x) = (-1)**k e_k(x).

This module owns the Jacobi-Trudi determinants: :func:`schur_in_chern` and
:func:`gschur_in_segre` are the only place they are expanded, and
:mod:`chernweil.curvature` evaluates the same polynomials on Chern and
Segre forms.

The flag-bundle push-forward follows the determinantal rule: a monomial
xi^lambda on the flag bundle of type rho pushes down to the generalized
Schur class of the reversed shifted sequence (lambda - nu), with nu the
staircase of the flag type.  The independent cross-check for complete flags
is divided-difference symmetrization followed by exact division by the
Vandermonde determinant.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

from .polynomial import (SymPoly, _add_into, antisymmetrize, complete_homogeneous,
                         divide_exact, elementary_symmetric, signed_permutations,
                         vandermonde)


# ---------------------------------------------------------------------------
# partitions

def is_partition(seq: Sequence[int]) -> bool:
    seq = list(seq)
    return all(isinstance(x, int) or int(x) == x for x in seq) and \
        all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)) and \
        (not seq or seq[-1] >= 0)


def enumerate_partitions(k: int, r: int) -> list[tuple[int, ...]]:
    """All length-k weakly decreasing tuples with entries in [0, r] summing to k."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, bound, slots):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        # largest part first keeps the listing in reverse lex order
        for part in range(min(bound, remaining), -1, -1):
            if part * slots < remaining:
                break
            rec(prefix + [part], remaining - part, part, slots - 1)

    rec([], k, r, k)
    return out


def strip_trailing_zeros(sigma: Sequence[int]) -> tuple[int, ...]:
    """``sigma`` as integers, without its trailing zero parts.

    A trailing zero part gives a Jacobi-Trudi matrix the last row
    (0, ..., 0, 1), so dropping it leaves the determinant unchanged.
    """
    sigma = tuple(int(x) for x in sigma)
    k = len(sigma)
    while k and sigma[k - 1] == 0:
        k -= 1
    return sigma[:k]


def conjugate_partition(sigma: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram; trailing zeros are dropped."""
    sigma = [int(x) for x in sigma if x]
    if not is_partition(sigma):
        raise ValueError(f"{sigma} is not a partition")
    if not sigma:
        return ()
    return tuple(sum(1 for x in sigma if x >= j) for j in range(1, sigma[0] + 1))


# ---------------------------------------------------------------------------
# determinantal Schur polynomials

def schur_in_chern(sigma: Sequence[int], r: int) -> SymPoly:
    """det(c_{sigma_i + j - i}) in the c-alphabet of rank r.

    Accepts any partition; entries with index outside [0, r] vanish, so the
    result may be the zero polynomial when the shape does not fit the rank.
    Trailing zero parts are dropped before the determinant is expanded.
    """
    sigma = tuple(int(x) for x in sigma)
    if not is_partition(sigma):
        raise ValueError(f"{sigma} is not a partition")
    sigma = strip_trailing_zeros(sigma)
    k = len(sigma)

    def entry(i, j):  # 1-based
        l = sigma[i - 1] + j - i
        if l == 0:
            return SymPoly.one(r)
        if l < 0 or l > r:
            return SymPoly.zero(r)
        return SymPoly.variable(l - 1, r)

    return _det([[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)], r)


def _det(mat: list[list[SymPoly]], nvars: int) -> SymPoly:
    """Leibniz determinant; every entry lives in the nvars alphabet."""
    k = len(mat)
    if k == 0:
        return SymPoly.one(nvars)
    out: dict[tuple[int, ...], int] = {}
    for perm, sign in signed_permutations(k):
        factors = [row[j] for row, j in zip(mat, perm)]
        if all(f.terms for f in factors):
            _add_into(out, reduce(operator.mul, factors).terms, sign)
    return SymPoly._raw(nvars, out)


@lru_cache(maxsize=None)
def segre_in_chern(k: int, r: int) -> SymPoly:
    """s_k as a polynomial in c_1..c_r (series inverse of the total Chern class)."""
    if k < 0:
        return SymPoly.zero(r)
    if k == 0:
        return SymPoly.one(r)
    out = SymPoly.zero(r)
    for j in range(1, min(k, r) + 1):
        out = out - SymPoly.variable(j - 1, r) * segre_in_chern(k - j, r)
    return out


def gschur_in_segre(sigma: Sequence[int], truncate: int | None = None) -> SymPoly:
    """det(s_{sigma_i + j - i}) for an arbitrary integer sequence sigma.

    Result lives in the s-alphabet sized to the largest index that can occur.
    With ``truncate`` set, s_l for l > truncate is treated as zero (the
    dimension cutoff) and the alphabet stops at s_truncate; otherwise all
    positive s_l stay free variables.  Trailing zero parts are dropped first.
    """
    sigma = strip_trailing_zeros(sigma)
    k = len(sigma)
    if k == 0:
        return SymPoly.one(1)
    top = max(sigma[i] + k - (i + 1) for i in range(k))
    if truncate is not None:
        top = min(top, truncate)
    nvars = max(top, 1)

    def entry(i, j):  # 1-based
        l = sigma[i - 1] + j - i
        if l == 0:
            return SymPoly.one(nvars)
        if l < 0 or (truncate is not None and l > truncate):
            return SymPoly.zero(nvars)
        return SymPoly.variable(l - 1, nvars)

    return _det([[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)],
                nvars)


def segre_to_chern(poly: SymPoly, r: int) -> SymPoly:
    """Rewrite an s-alphabet polynomial in the c-alphabet of rank r."""
    values = [segre_in_chern(l, r) for l in range(1, poly.nvars + 1)]
    return poly.substitute(values)


def gschur_in_chern(sigma: Sequence[int], r: int) -> SymPoly:
    return segre_to_chern(gschur_in_segre(sigma), r)


def jacobi_trudi_check(sigma: Sequence[int], r: int) -> bool:
    """Verify det(s_{sigma_i+j-i}) == (-1)^{|sigma|} det(c_{sigma'_i+j-i}) exactly."""
    sigma = tuple(int(x) for x in sigma)
    if not is_partition(sigma):
        raise ValueError(f"{sigma} is not a partition")
    lhs = gschur_in_chern(sigma, r)
    sign = -1 if sum(sigma) % 2 else 1
    rhs = sign * schur_in_chern(conjugate_partition(sigma), r)
    return lhs == rhs


# ---------------------------------------------------------------------------
# flag types and the push-forward rule

@dataclass(frozen=True)
class FlagType:
    """Strictly increasing rank sequence 0 = rho_0 < rho_1 < ... < rho_m = r."""

    rho: tuple[int, ...]

    def __post_init__(self):
        rho = tuple(int(x) for x in self.rho)
        object.__setattr__(self, "rho", rho)
        if len(rho) < 2 or rho[0] != 0:
            raise ValueError(f"flag type must start at 0, got {rho}")
        if any(rho[i] >= rho[i + 1] for i in range(len(rho) - 1)):
            raise ValueError(f"flag type must be strictly increasing, got {rho}")

    @property
    def r(self) -> int:
        return self.rho[-1]

    @property
    def m(self) -> int:
        return len(self.rho) - 1

    @property
    def relative_dimension(self) -> int:
        return sum(self.rho[j] * (self.rho[j + 1] - self.rho[j])
                   for j in range(self.m))

    def blocks(self) -> list[tuple[int, ...]]:
        """Root-variable blocks (1-based slots), block j has size rho_j - rho_{j-1}.

        Block boundaries sit at r - rho_{m-j}; a polynomial is admissible for
        the push-forward when it is symmetric within each block.
        """
        r, m, rho = self.r, self.m, self.rho
        bounds = [r - rho[m - j] for j in range(m + 1)]
        return [tuple(range(bounds[j - 1] + 1, bounds[j] + 1)) for j in range(1, m + 1)]

    @classmethod
    def complete(cls, r: int) -> "FlagType":
        return cls(tuple(range(r + 1)))


def dp_nu(flag: FlagType) -> tuple[int, ...]:
    """Staircase nu of the flag type: nu_i = r - rho_s on each block of i's."""
    r, m, rho = flag.r, flag.m, flag.rho
    nu = [0] * r
    for s in range(1, m + 1):
        for i in range(r - rho[s] + 1, r - rho[s - 1] + 1):
            nu[i - 1] = r - rho[s]
    return tuple(nu)


def _block_symmetric(p: SymPoly, flag: FlagType) -> bool:
    for block in flag.blocks():
        for a, b in zip(block, block[1:]):
            perm = list(range(p.nvars))
            perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
            if p.permute_variables(perm) != p:
                return False
    return True


def dp_pushforward(p: SymPoly, flag: FlagType) -> SymPoly:
    """Push a root-monomial polynomial down the flag bundle of the given type.

    ``p`` lives in the xi-alphabet (r slots, xi_i the negated first Chern
    classes of the tautological quotient lines) and must be symmetric within
    each block of the flag type.  Each monomial xi^lambda contributes the
    generalized Schur class of reversed(lambda - nu); the output lives in the
    s-alphabet, untruncated.
    """
    if p.nvars != flag.r:
        raise ValueError(f"polynomial has {p.nvars} variables, flag needs {flag.r}")
    if not _block_symmetric(p, flag):
        raise ValueError("polynomial is not symmetric within the flag blocks")
    nu = dp_nu(flag)
    out = SymPoly.zero(1)
    for lam, coeff in p.terms.items():
        shifted = tuple(l - v for l, v in zip(lam, nu))[::-1]
        out = out + coeff * gschur_in_segre(shifted)
    return out


def complete_flag_oracle(p: SymPoly, r: int) -> SymPoly:
    """Independent complete-flag push-forward via divided differences.

    Antisymmetrize over all root variables, divide exactly by the Vandermonde
    determinant, and apply the orientation sign (-1)**(r(r-1)/2) that aligns
    the root ordering with the determinantal rule.  A nonzero remainder in
    the division is a hard internal error.
    """
    if p.nvars != r:
        raise ValueError(f"polynomial has {p.nvars} variables, expected {r}")
    num = antisymmetrize(p)
    quot = divide_exact(num, vandermonde(r))
    sign = -1 if (r * (r - 1) // 2) % 2 else 1
    return sign * quot


def expand_in_roots(poly: SymPoly, r: int, alphabet: str) -> SymPoly:
    """Rewrite a c- or s-alphabet polynomial in the dual Chern roots.

    ``alphabet`` is "c" (c_k -> (-1)^k e_k(x)) or "s" (s_k -> h_k(x)).
    """
    if alphabet == "c":
        values = [(-1) ** k * elementary_symmetric(k, r)
                  for k in range(1, poly.nvars + 1)]
    elif alphabet == "s":
        values = [complete_homogeneous(k, r) for k in range(1, poly.nvars + 1)]
    else:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    return poly.substitute(values)


def projective_oracle(k: int, r: int) -> SymPoly:
    """Expected push-forward of the distinguished root monomial on lines-in-E.

    The classical projective-bundle fact: integrating the (r-1+k)-th power of
    the fiberwise hyperplane root yields s_k.  Returned in the s-alphabet so
    it can be compared with dp_pushforward on xi_r^(r-1+k) for rho = (0,1,r).
    """
    if k < 0:
        raise ValueError("negative degree")
    if k == 0:
        return SymPoly.one(1)
    return SymPoly.variable(k - 1, k)

