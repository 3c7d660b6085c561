"""Pointwise complex exterior algebra on C^n.

A form of bidegree (p, q) is stored densely: ``u.array`` is a complex
C(n,p) x C(n,q) array whose rows and columns follow the lexicographic order
of :func:`multi_indices`.  Entry (I, J), for strictly increasing 1-based
multi-indices I and J, is the coefficient of the basis form

    e_{i1}^v ^ ... ^ e_{ip}^v ^ conj(e_{j1}^v) ^ ... ^ conj(e_{jq}^v),

holomorphic factors first.  Coefficients are complex floats; nothing is ever
rounded away.  The mapping constructor ``ExteriorForm(n, p, q, {(I, J): c})``
is the one place that checks multi-indices and values; every internal result
is built straight from its array.  ``coeffs`` and ``items()`` read the
nonzero entries back out as (I, J) keys for display and export.

Sign conventions (the single source of truth for the whole package):

* ``wedge`` shuffles the concatenated index lists back to increasing order,
  picking up the Koszul sign of the shuffle plus ``(-1)**(v.p * u.q)`` from
  moving v's holomorphic block past u's antiholomorphic block;
* ``conjugate`` maps the coefficient at (I, J) to its complex conjugate at
  (J, I) times ``(-1)**(p*q)``.  This makes ``i e^v ^ conj(e^v)`` real and
  conjugation multiplicative over wedge.

The shuffle signs live in one table per (n, a, b), built on first use and
cached by :func:`merge_table`: the signed matrix that sends products of an
a-index and a b-index coefficient to the (a+b)-index coefficient.  ``wedge``
applies it on both sides of the outer product of two coefficient arrays;
:func:`plucker` applies it one vector at a time to get the coordinates of
w_1 ^ ... ^ w_p.

Key entry points: :class:`ExteriorForm`, :func:`wedge`, :func:`conjugate` is
a method, :func:`volume_coefficient`, :func:`evaluate_pairing`,
:func:`decomposable`, :func:`hermitian_gram`, :func:`plucker`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def ipow(k: int) -> complex:
    """i**k for integer k (negative allowed), exact."""
    return _I_POW[k % 4]


class DimensionMismatch(ValueError):
    """Operands live on different C^n or have incompatible bidegree."""


class NotTopDegree(ValueError):
    """A volume coefficient was requested from a non-(n,n) form."""


class NotReal(ValueError):
    """A real number was requested but the imaginary part is above tolerance."""


@functools.lru_cache(maxsize=None)
def _basis(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(1, n + 1), k))


@functools.lru_cache(maxsize=None)
def _positions(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {I: i for i, I in enumerate(_basis(n, k))}


def multi_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All strictly increasing k-tuples with entries in 1..n, in lexicographic order."""
    return list(_basis(n, k))


def _merge(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two increasing index tuples.

    Returns ``(sign, merged)`` where sign is the Koszul sign of the shuffle,
    or ``(0, None)`` when the tuples share an index.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    sign = 1
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


@functools.lru_cache(maxsize=None)
def merge_table(n: int, a: int, b: int) -> np.ndarray:
    """Signed merge matrix of a-index by b-index coefficient products on C^n.

    Shape (C(n, a+b), C(n,a) * C(n,b)); entry [pos(I u J), pos(I) * C(n,b) +
    pos(J)] is the Koszul sign of the shuffle of I followed by J, and zero
    when I and J share an index.  Built on first use, cached, read-only.
    """
    left, right = _basis(n, a), _basis(n, b)
    target = _positions(n, a + b)
    H = np.zeros((len(target), len(left) * len(right)))
    for i, I in enumerate(left):
        for j, J in enumerate(right):
            sign, merged = _merge(I, J)
            if sign:
                H[target[merged], i * len(right) + j] = sign
    H.setflags(write=False)
    return H


@functools.lru_cache(maxsize=None)
def _merge_columns(n: int, a: int, b: int):
    """``merge_table(n, a, b)`` cut to its nonzero columns.

    Returns ``(left, right, H)``: column c of H is the product of the
    a-index at position left[c] and the b-index at position right[c].
    """
    full = merge_table(n, a, b)
    cols = np.flatnonzero(full.any(axis=0))
    left, right = np.divmod(cols, comb(n, b))
    H = full[:, cols]
    for arr in (left, right, H):
        arr.setflags(write=False)
    return left, right, H


def plucker(ws: np.ndarray) -> np.ndarray:
    """Coordinates of w_1 ^ ... ^ w_p on the basis e_I, for a stack ws[s, t, :].

    Returns an (s, C(n, p)) array.  Entry I is the determinant of columns I
    of the p x n matrix with rows w_1..w_p, i.e. the coefficient of the
    decomposable (p,0)-form at I.
    """
    ws = np.asarray(ws, dtype=complex)
    s, p, n = ws.shape
    cur = np.ones((s, 1), dtype=complex)
    for t in range(p):
        left, right, H = _merge_columns(n, t, 1)
        cur = (cur[:, left] * ws[:, t, right]) @ H.T
    return cur


def _check_bidegree(n: int, p: int, q: int):
    if n < 0 or p < 0 or q < 0 or p > n or q > n:
        raise ValueError(f"invalid bidegree ({p},{q}) on C^{n}")


def _zeros(n: int, p: int, q: int) -> np.ndarray:
    return np.zeros((comb(n, p), comb(n, q)), dtype=complex)


def _check_index(I: tuple[int, ...], n: int, k: int) -> tuple[int, ...]:
    I = tuple(int(i) for i in I)
    if len(I) != k:
        raise ValueError(f"multi-index {I} does not have length {k}")
    if any(not 1 <= i <= n for i in I):
        raise ValueError(f"multi-index {I} has entries outside 1..{n}")
    if any(I[t] >= I[t + 1] for t in range(len(I) - 1)):
        raise ValueError(f"multi-index {I} is not strictly increasing")
    return I


class ExteriorForm:
    """A (p, q)-form at a point of C^n, a dense C(n,p) x C(n,q) array.

    Treat instances as immutable; all operations return new forms.
    """

    __slots__ = ("n", "p", "q", "array")

    def __init__(self, n: int, p: int, q: int, coeffs: Mapping | None = None):
        _check_bidegree(n, p, q)
        array = _zeros(n, p, q)
        if coeffs:
            rows, cols = _positions(n, p), _positions(n, q)
            for (I, J), c in coeffs.items():
                c = complex(c)
                if c == 0:
                    continue
                if not cmath.isfinite(c):
                    raise ValueError(
                        f"coefficient {c} at ({tuple(I)}, {tuple(J)}) is not finite")
                array[rows[_check_index(I, n, p)],
                      cols[_check_index(J, n, q)]] += c
        self.n = int(n)
        self.p = int(p)
        self.q = int(q)
        self.array = array

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_array(cls, n: int, p: int, q: int,
                    array: np.ndarray) -> "ExteriorForm":
        """Unchecked constructor for internal results.

        ``array`` must be complex with shape (C(n,p), C(n,q)); it is taken
        over, not copied.
        """
        u = object.__new__(cls)
        u.n, u.p, u.q, u.array = n, p, q, array
        return u

    @classmethod
    def zero(cls, n: int, p: int, q: int) -> "ExteriorForm":
        _check_bidegree(n, p, q)
        return cls._from_array(n, p, q, _zeros(n, p, q))

    @classmethod
    def scalar(cls, n: int, value: complex) -> "ExteriorForm":
        _check_bidegree(n, 0, 0)
        return cls._from_array(n, 0, 0, np.full((1, 1), complex(value)))

    @classmethod
    def basis(cls, n: int, holo: Sequence[int], anti: Sequence[int],
              value: complex = 1.0) -> "ExteriorForm":
        holo = tuple(holo)
        anti = tuple(anti)
        return cls(n, len(holo), len(anti), {(holo, anti): value})

    # -- bookkeeping -------------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.p, self.q)

    @property
    def coeffs(self) -> Mapping:
        """Read-only map {(I, J): c} of the nonzero entries, built from the array."""
        rows, cols = _basis(self.n, self.p), _basis(self.n, self.q)
        return MappingProxyType({(rows[i], cols[j]): complex(self.array[i, j])
                                 for i, j in zip(*np.nonzero(self.array))})

    def is_zero(self) -> bool:
        return not self.array.any()

    def max_abs(self) -> float:
        return float(np.abs(self.array).max())

    def _tol(self, tol: float | None) -> float:
        # default tolerance scales with the largest coefficient
        return 1e-9 * self.max_abs() if tol is None else float(tol)

    def _same_shape(self, other: "ExteriorForm"):
        if self.n != other.n or self.p != other.p or self.q != other.q:
            raise DimensionMismatch(
                f"({self.p},{self.q}) on C^{self.n} vs "
                f"({other.p},{other.q}) on C^{other.n}")

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        self._same_shape(other)
        return ExteriorForm._from_array(self.n, self.p, self.q,
                                        self.array + other.array)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        self._same_shape(other)
        return ExteriorForm._from_array(self.n, self.p, self.q,
                                        self.array - other.array)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm._from_array(self.n, self.p, self.q, -self.array)

    def __mul__(self, scalar) -> "ExteriorForm":
        if isinstance(scalar, ExteriorForm):
            return NotImplemented
        return ExteriorForm._from_array(self.n, self.p, self.q,
                                        complex(scalar) * self.array)

    __rmul__ = __mul__

    # -- core operations ---------------------------------------------------

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        """Exterior product, canonical basis order restored with Koszul signs.

        Bidegree overflow (p or q beyond n) is not an error: the product is
        the zero form with bidegree clamped to n.
        """
        if self.n != other.n:
            raise DimensionMismatch(f"C^{self.n} vs C^{other.n}")
        n = self.n
        p = self.p + other.p
        q = self.q + other.q
        if p > n or q > n:
            p, q = min(p, n), min(q, n)
            return ExteriorForm._from_array(n, p, q, _zeros(n, p, q))
        rows1, rows2, H = _merge_columns(n, self.p, other.p)
        cols1, cols2, K = _merge_columns(n, self.q, other.q)
        # products of coefficients over index pairs that do not overlap:
        # rows (I1, I2), columns (J1, J2)
        T = self.array[rows1][:, cols1] * other.array[rows2][:, cols2]
        out = H @ T @ K.T
        # sign from moving other's holomorphic block past self's
        # antiholomorphic block
        if (other.p * self.q) % 2:
            out = -out
        return ExteriorForm._from_array(n, p, q, out)

    def conjugate(self) -> "ExteriorForm":
        sign = -1 if (self.p * self.q) % 2 else 1
        return ExteriorForm._from_array(self.n, self.q, self.p,
                                        sign * self.array.conj().T)

    def is_real(self, tol: float | None = None) -> bool:
        """True when conjugate(u) == u within tolerance."""
        if self.p != self.q:
            return False
        return (self.conjugate() - self).max_abs() <= self._tol(tol)

    # -- plumbing ----------------------------------------------------------

    def items(self):
        """Nonzero entries as ((I, J), c) pairs, sorted by (I, J)."""
        return sorted(self.coeffs.items())

    def get(self, I: Sequence[int], J: Sequence[int]) -> complex:
        i = _positions(self.n, self.p).get(tuple(I))
        j = _positions(self.n, self.q).get(tuple(J))
        if i is None or j is None:
            return 0.0 + 0.0j
        return complex(self.array[i, j])

    def __repr__(self) -> str:
        if self.is_zero():
            return f"ExteriorForm({self.n}, {self.p}, {self.q}, 0)"
        terms = ", ".join(f"{I}|{J}: {c:.4g}" for (I, J), c in self.items())
        return f"ExteriorForm({self.n}, {self.p}, {self.q}, {{{terms}}})"


def wedge(u: ExteriorForm, v: ExteriorForm) -> ExteriorForm:
    return u.wedge(v)


def wedge_all(forms: Iterable[ExteriorForm]) -> ExteriorForm:
    forms = list(forms)
    if not forms:
        raise ValueError("empty wedge")
    out = forms[0]
    for f in forms[1:]:
        out = out.wedge(f)
    return out


def wedge_power(u: ExteriorForm, k: int) -> ExteriorForm:
    if k < 0:
        raise ValueError("negative wedge power")
    out = ExteriorForm.scalar(u.n, 1.0)
    for _ in range(k):
        out = out.wedge(u)
    return out


def one_form(components: Sequence[complex]) -> ExteriorForm:
    """(1,0)-form sum_j components[j] * e_{j+1}^v."""
    comp = np.array([complex(c) for c in components], dtype=complex)
    _check_bidegree(len(comp), 1, 0)
    return ExteriorForm._from_array(len(comp), 1, 0, comp.reshape(-1, 1))


def decomposable(factors: Sequence[Sequence[complex]]) -> ExteriorForm:
    """Wedge of (1,0)-forms given by their component vectors."""
    if len(factors) == 0:
        raise ValueError("need at least one factor")
    return wedge_all(one_form(f) for f in factors)


def hermitian_one_one(m: np.ndarray) -> ExteriorForm:
    """The real (1,1)-form i * sum_{jk} m[j,k] e_j^v ^ conj(e_k^v).

    ``m`` must be Hermitian for the result to be real; not checked here.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    _check_bidegree(n, 1, 1)
    return ExteriorForm._from_array(n, 1, 1, 1j * m)


def one_one_matrix(u: ExteriorForm) -> np.ndarray:
    """Inverse of :func:`hermitian_one_one`: m[j,k] = -i * coefficient."""
    if u.bidegree != (1, 1):
        raise ValueError("not a (1,1)-form")
    return -1j * u.array


def top_coefficient(u: ExteriorForm) -> complex:
    """Complex tau with u = tau * (i e_1^v ^ conj e_1^v) ^ ... ^ (i e_n^v ^ conj e_n^v).

    The unit volume form equals i**(n*n) e_{1..n}^v ^ conj(e_{1..n}^v) after
    reordering, hence tau = (-i)**(n*n) times the coefficient at the full
    index pair.
    """
    n = u.n
    if u.bidegree != (n, n):
        raise NotTopDegree(f"bidegree {u.bidegree} on C^{n} is not ({n},{n})")
    return ipow(-n * n) * complex(u.array[0, 0])


def volume_coefficient(u: ExteriorForm, tol: float | None = None) -> float:
    """Real volume coefficient of an (n,n)-form; NotReal if it is not real."""
    tau = top_coefficient(u)
    limit = u._tol(tol)
    if abs(tau.imag) > max(limit, 1e-12 * max(1.0, abs(tau))):
        raise NotReal(f"volume coefficient {tau} has non-negligible imaginary part")
    return tau.real


def evaluate_pairing(u: ExteriorForm, vectors: Sequence[Sequence[complex]],
                     tol: float | None = None) -> float:
    """(-i)**(p*p) * u(w_1, ..., w_p, conj w_1, ..., conj w_p) for real (p,p) u.

    Evaluation reduces to sum_{I,J} u_{IJ} det(W_I) conj(det(W_J)) with
    W_I the columns-I minor of the matrix with rows w_1..w_p: with w the
    Plucker vector of W, the value is w^T U conj(w).
    """
    p = u.p
    if u.q != p:
        raise ValueError(f"bidegree {u.bidegree} is not of the form (p,p)")
    if not u.is_real(tol):
        raise NotReal("form is not real within tolerance")
    vectors = list(vectors)
    if len(vectors) != p:
        raise DimensionMismatch(f"expected {p} vectors, got {len(vectors)}")
    W = (np.asarray([list(w) for w in vectors], dtype=complex)
         if p else np.zeros((0, u.n), dtype=complex))
    if W.shape != (p, u.n):
        raise DimensionMismatch(
            f"expected {p} vectors in C^{u.n}, got shape {W.shape}")
    w = plucker(W[None])[0]
    val = ipow(-p * p) * complex(w @ u.array @ w.conj())
    if abs(val.imag) > max(u._tol(tol), 1e-10 * max(1.0, abs(val))):
        raise NotReal(f"pairing value {val} has non-negligible imaginary part")
    return val.real


@functools.lru_cache(maxsize=None)
def _complement_signs(n: int, q: int):
    """For each q-index I: the position of its complement among the
    (n-q)-indices, and the shuffle sign of the complement followed by I."""
    full = set(range(1, n + 1))
    rows = _positions(n, n - q)
    comp = [tuple(sorted(full.difference(I))) for I in _basis(n, q)]
    idx = np.array([rows[K] for K in comp], dtype=int)
    sign = np.array([_merge(K, I)[0] for K, I in zip(comp, _basis(n, q))],
                    dtype=float)
    for arr in (idx, sign):
        arr.setflags(write=False)
    return idx, sign


def hermitian_gram(u: ExteriorForm, tol: float | None = None):
    """Gram matrix of real (p,p) u against decomposable (q,0) basis forms.

    Entry (I, J) is the complex volume coefficient of
    ``u ^ i**(q*q) e_I^v ^ conj(e_J^v)`` with q = n - p.  Returns
    ``(G, basis)`` where G is a Hermitian numpy array over the length-q
    multi-indices in ``basis``.  Positive semidefiniteness of G is the
    Hermitian positivity test for u.

    Only the coefficient of u at the complements (I^c, J^c) survives the
    wedge, so G is a signed permutation of u's array:
    G[I, J] = i**(-p*p) s(I^c, I) s(J^c, J) u[I^c, J^c], with s the shuffle
    sign of the complement followed by the index.  The phase collects
    i**(q*q) from the definition, i**(-n*n) from the volume form and
    (-1)**(p*q) from moving e_I past u's antiholomorphic block.
    """
    if u.p != u.q:
        raise ValueError(f"bidegree {u.bidegree} is not of the form (p,p)")
    if not u.is_real(tol):
        raise NotReal("form is not real within tolerance")
    n = u.n
    q = n - u.p
    basis = multi_indices(n, q)
    N = len(basis)
    idx, sign = _complement_signs(n, q)
    G = ipow(-u.p * u.p) * (sign[:, None] * u.array[np.ix_(idx, idx)] * sign)
    herm_defect = float(np.max(np.abs(G - G.conj().T))) if N else 0.0
    limit = max(u._tol(tol), 1e-12)
    if herm_defect > limit * max(1.0, float(np.max(np.abs(G))) if N else 1.0):
        raise NotReal(f"gram matrix deviates from Hermitian by {herm_defect}")
    G = 0.5 * (G + G.conj().T)
    return G, basis
