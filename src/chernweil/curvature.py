"""Chern, Segre and Schur forms of a curvature tensor at a point.

A curvature point *is* its complex coefficient tensor t[a, b, j, k], of shape
(r, r, n, n), read-only.  The curvature matrix is derived from it on demand:

    Theta[a][b] = sum_{j,k} t[a,b,j,k] e_j^v ^ conj(e_k^v),

a (1,1)-form, with the Hermitian symmetry conj(Theta[a][b]) == -Theta[b][a],
i.e. conj(t[a,b,j,k]) == t[b,a,k,j]; equivalently i*Theta is a Hermitian
matrix of forms.  Normalization: the k-th Chern form is the k-th coefficient
of det(Id + s * (i/2pi) Theta), all factors of 1/(2pi) kept.

Two independent routes compute it.  :func:`chern_form` runs the
Faddeev-LeVerrier recursion on the dense coefficient arrays of the whole
matrix; :func:`chern_form_oracle` sums Leibniz determinants of the principal
minors, one :class:`ExteriorForm` wedge at a time.

Schur forms hold no determinant code of their own.  The exact layer owns
the Jacobi-Trudi determinants (:mod:`chernweil.schur`), and this module
evaluates them on forms: :func:`schur_form` puts the Chern forms into the
c-alphabet polynomial, :func:`generalized_schur_form` the Segre forms into
the s-alphabet one.  By Jacobi-Trudi duality the two agree, so comparing
them checks the form-level Segre recursion of :func:`segre_form`.

The Griffiths energy of the point is the real biquadratic

    G(v, tau) = sum_{a,b,j,k}  t[a,b,j,k] * conj(v_a) v_b tau_j conj(tau_k)

on the coefficient tensor.  With this pairing i*Theta == omega x Id for the
standard Kaehler omega gives G = |v|^2 |tau|^2, and curvature of the shape
A ^ conj(A)^t gives G = sum_s |<A_s, v x tau>|^2 >= 0.

G is the Hermitian form of an rn x rn matrix read on product vectors, in
two ways (rows and columns indexed by pairs, a and b first):

    M1[(a,j),(b,k)] = t[a,b,j,k]    G(v, tau) = x^H M1 x,  x = v (x) conj(tau)
    M2[(a,k),(b,j)] = t[a,b,j,k]    G(v, tau) = y^H M2 y,  y = v (x) tau

Unit v and tau give unit x and y, so lambda_min(M1) and lambda_min(M2) are
lower bounds for G: either matrix being positive semidefinite certifies
Griffiths semipositivity exactly.

The labels follow Demailly's convention.  Writing G as the Griffiths form
sum c[j,k,l,m] tau_j conj(tau_k) v_l conj(v_m) gives c[j,k,l,m] = t[m,l,j,k].
Nakano semipositivity asks sum c[j,k,l,m] u[j,l] conj(u[k,m]) >= 0 for every
u in C^n (x) C^r, and that sum is y^H M2 y at y[(l,j)] = u[j,l].  So M2 >= 0
is Nakano and M1 >= 0, its partial transpose, dual Nakano semipositivity.
The quotient-type curvature A ^ conj(A)^t above has M1 = sum_s A_s A_s^H: it
is dual Nakano, as the generator's name says, and in general not Nakano.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exterior import ExteriorForm, _merge_columns, wedge_all
from .polynomial import SymPoly, signed_permutations
from .schur import gschur_in_segre, is_partition, schur_in_chern

TWO_PI = 2.0 * math.pi


class CurvaturePoint:
    """Curvature data of a rank-r Hermitian bundle at a point of C^n.

    ``t`` is the read-only coefficient tensor t[a, b, j, k]; n and r are
    read from its shape.  Build points with :func:`from_coefficients`.
    """

    __slots__ = ("t",)

    def __init__(self, t: np.ndarray):
        self.t = t

    @property
    def r(self) -> int:
        return self.t.shape[0]

    @property
    def n(self) -> int:
        return self.t.shape[2]

    def entry(self, a: int, b: int) -> ExteriorForm:
        """Theta[a][b], 0-based, as a (1,1)-form viewing the tensor."""
        return ExteriorForm._from_array(self.n, 1, 1, self.t[a, b])

    def max_abs(self) -> float:
        return float(np.abs(self.t).max(initial=0.0))


def from_coefficients(t: np.ndarray) -> CurvaturePoint:
    """Build a point from a copy of the dense coefficient tensor t[a, b, j, k].

    Checks the shape (r, r, n, n) with n >= 1 and that every entry is
    finite; Hermitian symmetry is left to :func:`validate`.
    """
    t = np.array(t, dtype=complex)
    if t.ndim != 4 or t.shape[0] != t.shape[1] or t.shape[2] != t.shape[3]:
        raise ValueError(f"tensor shape {t.shape} is not (r, r, n, n)")
    if t.shape[2] < 1:
        raise ValueError("(1,1)-forms need n >= 1")
    bad = np.argwhere(~np.isfinite(t))
    if len(bad):
        raise ValueError(f"coefficient {t[tuple(bad[0])]} at index "
                         f"{tuple(int(i) for i in bad[0])} is not finite")
    t.setflags(write=False)
    return CurvaturePoint(t)


def validate(c: CurvaturePoint, tol: float | None = None) -> list[str]:
    """List of Hermitian-symmetry violations, empty when the point is valid."""
    scale = max(1.0, c.max_abs())
    limit = (1e-9 * scale) if tol is None else float(tol)
    # cell (a, b) holds Theta[a][b] + conj(Theta[b][a]); cells (a, b) and
    # (b, a) are minus each other's conjugate transpose, so the maxima agree
    defect = np.abs(c.t - c.t.conj().transpose(1, 0, 3, 2)).max(axis=(2, 3))
    return [f"entry ({a + 1},{b + 1}): |conj(theta) + theta^t| = {defect[a, b]:.3e}"
            for a, b in zip(*np.nonzero(defect > limit))]


# ---------------------------------------------------------------------------
# characteristic forms

def _chern_arrays(c: CurvaturePoint, kmax: int) -> list[np.ndarray]:
    """Coefficient arrays of c_0, ..., c_kmax by Faddeev-LeVerrier, kmax <= n.

    With M = (i/2pi) Theta and B_0 = Id: c_k = tr(M ^ B_{k-1}) / k and
    B_k = c_k Id - M ^ B_{k-1}.  The entries are even forms, which commute,
    so the recursion for the coefficients of det(Id + M) holds as over a
    field.  The last step takes only the trace.
    """
    n, r = c.n, c.r
    M = (1j / TWO_PI) * c.t
    B = np.eye(r, dtype=complex)[:, :, None, None]
    out = [np.ones((1, 1), dtype=complex)]
    for k in range(1, kmax + 1):
        # ExteriorForm.wedge of every product M[a][b] ^ B[b][c] at once:
        # gather the coefficient pairs with disjoint indices, contract over
        # the inner index b, merge with the shuffle signs, and apply the
        # block sign (-1)**(deg B * 1) of moving B's holomorphic block
        # past M's antiholomorphic one.
        left, right, H = _merge_columns(n, 1, k - 1)
        Mg = M[:, :, left[:, None], left]
        Bg = B[:, :, right[:, None], right]
        sign = -1.0 if (k - 1) % 2 else 1.0
        if k == kmax:
            out.append(sign / k * (H @ np.einsum("abxy,baxy->xy", Mg, Bg) @ H.T))
            break
        MB = sign * (H @ np.einsum("abxy,bcxy->acxy", Mg, Bg) @ H.T)
        ck = np.trace(MB) / k
        out.append(ck)
        B = np.eye(r)[:, :, None, None] * ck - MB
    return out


def chern_form(c: CurvaturePoint, k: int) -> ExteriorForm:
    """k-th Chern form, by the Faddeev-LeVerrier recursion on (i/2pi) Theta.

    See :func:`chern_form_oracle` for the independently coded route.
    """
    if k < 0 or k > c.r:
        raise ValueError(f"k = {k} outside 0..{c.r}")
    if k > c.n:
        return ExteriorForm.zero(c.n, c.n, c.n)
    return ExteriorForm._from_array(c.n, k, k, _chern_arrays(c, k)[k])


def chern_form_oracle(c: CurvaturePoint, k: int) -> ExteriorForm:
    """k-th Chern form as the sum of the k x k principal minors of (i/2pi) Theta.

    Each minor is a Leibniz permutation sum of wedge products of
    :class:`ExteriorForm` entries.  Same mathematical object as
    :func:`chern_form`; the two share only the exterior algebra's sign
    tables.
    """
    if k < 0 or k > c.r:
        raise ValueError(f"k = {k} outside 0..{c.r}")
    if k > c.n:
        return ExteriorForm.zero(c.n, c.n, c.n)
    if k == 0:
        return ExteriorForm.scalar(c.n, 1.0)
    theta = [[c.entry(a, b) for b in range(c.r)] for a in range(c.r)]
    trace = ExteriorForm.zero(c.n, k, k)
    for S in itertools.combinations(range(c.r), k):
        for perm, sign in signed_permutations(k):
            term = wedge_all(theta[a][S[j]] for a, j in zip(S, perm))
            trace = trace + term if sign > 0 else trace - term
    # each term is a product of k entries, so the scale comes out as a power
    return trace * (1j / TWO_PI) ** k


def total_chern_forms(c: CurvaturePoint) -> list[ExteriorForm]:
    """[c_0, c_1, ..., c_min(r, n)]."""
    return [ExteriorForm._from_array(c.n, k, k, a)
            for k, a in enumerate(_chern_arrays(c, min(c.r, c.n)))]


def segre_form(c: CurvaturePoint, k: int,
               chern: Sequence[ExteriorForm] | None = None) -> ExteriorForm:
    """k-th Segre form by series inversion of the total Chern form."""
    if k < 0 or k > c.n:
        raise ValueError(f"k = {k} outside 0..{c.n}")
    if chern is None:
        chern = total_chern_forms(c)
    s: list[ExteriorForm] = [ExteriorForm.scalar(c.n, 1.0)]
    for d in range(1, k + 1):
        acc = ExteriorForm.zero(c.n, d, d)
        for j in range(1, min(d, len(chern) - 1) + 1):
            acc = acc + chern[j].wedge(s[d - j])
        s.append(-acc)
    return s[k]


def _evaluate(poly: SymPoly, forms: Sequence[ExteriorForm], n: int,
              weight: int) -> ExteriorForm:
    """poly with the (l,l)-form forms[l] put in for its variable l-1.

    poly is weight-homogeneous of the given weight when variable l-1 has
    weight l, so every monomial is a (weight, weight)-form; variables past
    the end of ``forms`` are zero.
    """
    out = ExteriorForm.zero(n, weight, weight)
    for e, coeff in poly.terms.items():
        if any(x and i + 1 >= len(forms) for i, x in enumerate(e)):
            continue
        factors = [forms[i + 1] for i, x in enumerate(e) for _ in range(x)]
        term = wedge_all(factors) if factors else ExteriorForm.scalar(n, 1.0)
        out = out + coeff * term
    return out


def schur_form(c: CurvaturePoint, sigma: Sequence[int],
               chern: Sequence[ExteriorForm] | None = None) -> ExteriorForm:
    """Schur form det(c_{sigma_i + j - i}) for a partition sigma.

    The determinant is :func:`~chernweil.schur.schur_in_chern`, evaluated on
    the Chern forms; the zero top-degree form when the weight exceeds n.
    """
    sigma = tuple(int(x) for x in sigma)
    if not is_partition(sigma):
        raise ValueError(f"{sigma} is not a partition")
    weight = sum(sigma)
    if weight > c.n:
        return ExteriorForm.zero(c.n, c.n, c.n)
    if chern is None:
        chern = total_chern_forms(c)
    return _evaluate(schur_in_chern(sigma, c.r), chern, c.n, weight)


def generalized_schur_form(c: CurvaturePoint, sigma: Sequence[int],
                           segre: Sequence[ExteriorForm] | None = None) -> ExteriorForm:
    """det(s_{sigma_i + j - i}) for an arbitrary integer sequence sigma.

    The determinant is :func:`~chernweil.schur.gschur_in_segre` cut at
    s_n, evaluated on the Segre forms ``segre`` (by default
    :func:`segre_form` for every degree); the zero top-degree form when the
    total weight exceeds n.
    """
    sigma = tuple(int(x) for x in sigma)
    weight = sum(sigma)
    if weight < 0:
        raise ValueError(f"total weight {weight} is negative")
    if weight > c.n:
        return ExteriorForm.zero(c.n, c.n, c.n)
    if segre is None:
        chern = total_chern_forms(c)
        segre = [segre_form(c, l, chern) for l in range(c.n + 1)]
    return _evaluate(gschur_in_segre(sigma, truncate=c.n), segre, c.n, weight)


# ---------------------------------------------------------------------------
# Griffiths energy

SEMIPOSITIVE = "semipositive_up_to_tol"
NEGATIVE_WITNESS = "negative_witness"
DUAL_NAKANO = "dual_nakano"
NAKANO = "nakano"


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the multistart alternating eigenvector searches."""

    random_starts: int = 64
    local_iters: int = 200
    tol: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        # a search with no starts or no steps would certify vacuously
        for name in ("random_starts", "local_iters"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class GriffithsReport:
    min_value: float
    argmin_v: np.ndarray
    argmin_tau: np.ndarray
    status: str
    tol: float


def griffiths_energy(c: CurvaturePoint, v: Sequence[complex],
                     tau: Sequence[complex]) -> float:
    """G(v, tau); real by Hermitian symmetry of the point."""
    t = c.t
    v = np.asarray(list(v), dtype=complex)
    tau = np.asarray(list(tau), dtype=complex)
    val = complex(np.einsum("abjk,a,b,j,k->", t, v.conj(), v, tau, tau.conj()))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
        raise ValueError(f"energy {val} is not real; curvature point invalid?")
    return val.real


def griffiths_certificate(c: CurvaturePoint,
                          tol: float = SearchBudget.tol) -> tuple[str, float] | None:
    """Exact certificate of Griffiths semipositivity up to tol, or None.

    Tries the dual Nakano matrix M1, then the Nakano matrix M2 (module
    docstring): one eigvalsh of the Hermitian part each.  Returns
    (kind, lambda_min) for the first with lambda_min >= -tol; since G >=
    lambda_min on unit (v, tau), no energy lies below -tol.  None means
    neither test holds; the point may still be Griffiths semipositive.
    """
    t = c.t
    rn = c.r * c.n
    for kind, axes in ((DUAL_NAKANO, (0, 2, 1, 3)), (NAKANO, (0, 3, 1, 2))):
        M = t.transpose(axes).reshape(rn, rn)
        lam = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])
        if lam >= -tol:
            return kind, lam
    return None


def hermitian_min_eig(H: np.ndarray):
    """Smallest eigenvalue and a unit eigenvector of the Hermitian part of H.

    Batched over leading axes: returns (w[...], v[..., :]).  Both alternating
    searches (Griffiths energy, weak positivity) take their exact one-argument
    step from this.
    """
    H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
    w, V = np.linalg.eigh(H)
    return w[..., 0], V[..., :, 0]


def griffiths_minimum(c: CurvaturePoint, budget: SearchBudget = SearchBudget()) -> GriffithsReport:
    """Minimize G over unit v and tau by multistart alternating eigensteps.

    Each step is exact for one argument with the other fixed, so reported
    values are true energies: a semipositive point can never produce a value
    below its true minimum, and any reported negative value replays.
    """
    t = c.t
    r, n = c.r, c.n
    s = budget.random_starts
    rng = np.random.default_rng(np.random.SeedSequence(budget.rng_seed))
    v = rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))
    tau = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    tau /= np.linalg.norm(tau, axis=1, keepdims=True)
    scale = max(1.0, float(np.max(np.abs(t))) if t.size else 1.0)
    prev = np.full(s, np.inf)
    for _ in range(budget.local_iters):
        # v-step: G = v^H K(tau) v
        K = np.einsum("abjk,sj,sk->sab", t, tau, tau.conj())
        _, v = hermitian_min_eig(K)
        # tau-step: G = sum L[j,k] tau_j conj(tau_k) = z^H L z at z = conj(tau)
        L = np.einsum("abjk,sa,sb->sjk", t, v.conj(), v)
        _, z = hermitian_min_eig(L)
        tau = z.conj()
        vals = np.real(np.einsum("abjk,sa,sb,sj,sk->s", t, v.conj(), v, tau, tau.conj()))
        if np.max(prev - vals) < 1e-13 * scale:
            prev = vals
            break
        prev = vals
    best = int(np.argmin(prev))
    vb, tb = v[best], tau[best]
    value = griffiths_energy(c, vb, tb)
    status = NEGATIVE_WITNESS if value < -budget.tol else SEMIPOSITIVE
    return GriffithsReport(value, vb, tb, status, budget.tol)
