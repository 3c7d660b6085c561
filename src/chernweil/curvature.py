"""Chern, Segre and Schur forms of a curvature tensor at a point.

A curvature point is an r x r matrix of (1,1)-forms Theta with the Hermitian
symmetry conj(Theta[a][b]) == -Theta[b][a]; equivalently i*Theta is a
Hermitian matrix of forms.  Normalization: the k-th Chern form is the k-th
coefficient of det(Id + t * (i/2pi) Theta), all factors of 1/(2pi) kept.

The Griffiths energy of the point is the real biquadratic

    G(v, tau) = sum_{a,b,j,k}  t[a,b,j,k] * conj(v_a) v_b tau_j conj(tau_k)

on the raw coefficients t of Theta[a][b] = sum t[a,b,j,k] e_j^v ^ conj(e_k^v).
With this pairing i*Theta == omega x Id for the standard Kaehler omega gives
G = |v|^2 |tau|^2, and curvature of the shape A ^ conj(A)^t gives
G = sum_s |<A_s, v x tau>|^2 >= 0.

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

from .exterior import ExteriorForm, wedge_all
from .polynomial import permutation_sign

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CurvaturePoint:
    """Curvature data of a rank-r Hermitian bundle at a point of C^n."""

    n: int
    r: int
    theta: tuple[tuple[ExteriorForm, ...], ...]

    def __post_init__(self):
        if len(self.theta) != self.r or any(len(row) != self.r for row in self.theta):
            raise ValueError("theta must be an r x r matrix of forms")
        for row in self.theta:
            for f in row:
                if f.n != self.n or f.bidegree != (1, 1):
                    raise ValueError("curvature entries must be (1,1)-forms on C^n")
        object.__setattr__(self, "theta", tuple(tuple(row) for row in self.theta))

    def entry(self, a: int, b: int) -> ExteriorForm:
        """Theta[a][b], 0-based."""
        return self.theta[a][b]

    def max_abs(self) -> float:
        return max((f.max_abs() for row in self.theta for f in row), default=0.0)


def from_coefficients(t: np.ndarray) -> CurvaturePoint:
    """Build a point from the dense coefficient tensor t[a, b, j, k]."""
    t = np.array(t, dtype=complex)
    r, r2, n, n2 = t.shape
    if r != r2 or n != n2:
        raise ValueError(f"tensor shape {t.shape} is not (r, r, n, n)")
    if n < 1:
        raise ValueError("(1,1)-forms need n >= 1")
    # the coefficient array of a (1,1)-form is indexed by (j, k) directly
    return CurvaturePoint(n, r, tuple(
        tuple(ExteriorForm._from_array(n, 1, 1, t[a, b]) for b in range(r))
        for a in range(r)))


def coefficients(c: CurvaturePoint) -> np.ndarray:
    """Dense coefficient tensor t[a, b, j, k] of the curvature point."""
    t = np.zeros((c.r, c.r, c.n, c.n), dtype=complex)
    for a in range(c.r):
        for b in range(c.r):
            t[a, b] = c.theta[a][b].array
    return t


def validate(c: CurvaturePoint, tol: float | None = None) -> list[str]:
    """List of Hermitian-symmetry violations, empty when the point is valid."""
    scale = max(1.0, c.max_abs())
    limit = (1e-9 * scale) if tol is None else float(tol)
    bad = []
    for a in range(c.r):
        for b in range(c.r):
            defect = (c.theta[a][b].conjugate() + c.theta[b][a]).max_abs()
            if defect > limit:
                bad.append(f"entry ({a + 1},{b + 1}): |conj(theta) + theta^t| = {defect:.3e}")
    return bad


# ---------------------------------------------------------------------------
# characteristic forms

def _scaled_entries(c: CurvaturePoint) -> list[list[ExteriorForm]]:
    s = 1j / TWO_PI
    return [[c.theta[a][b] * s for b in range(c.r)] for a in range(c.r)]


def _wedge_det_laplace(mat: list[list[ExteriorForm]], n: int) -> ExteriorForm:
    """Determinant of a k x k matrix of (1,1)-forms by first-row cofactors."""
    k = len(mat)
    if k == 0:
        return ExteriorForm.scalar(n, 1.0)
    if k == 1:
        return mat[0][0]
    out = ExteriorForm.zero(n, k, k)
    for j in range(k):
        if mat[0][j].is_zero():
            continue
        minor = [[row[t] for t in range(k) if t != j] for row in mat[1:]]
        term = mat[0][j].wedge(_wedge_det_laplace(minor, n))
        if j % 2:
            term = -term
        out = out + term
    return out


def _wedge_det_leibniz(mat: list[list[ExteriorForm]], n: int) -> ExteriorForm:
    k = len(mat)
    if k == 0:
        return ExteriorForm.scalar(n, 1.0)
    out = None
    for perm in itertools.permutations(range(k)):
        term = wedge_all(mat[i][perm[i]] for i in range(k)) * permutation_sign(perm)
        out = term if out is None else out + term
    return out


def chern_form(c: CurvaturePoint, k: int) -> ExteriorForm:
    """k-th Chern form: sum over k-subsets of diagonal minors of (i/2pi) Theta.

    Minors are expanded by recursive cofactor (Laplace) expansion; see
    :func:`chern_form_oracle` for the independently coded route.
    """
    if k < 0 or k > c.r:
        raise ValueError(f"k = {k} outside 0..{c.r}")
    if k == 0:
        return ExteriorForm.scalar(c.n, 1.0)
    if k > c.n:
        return ExteriorForm.zero(c.n, min(k, c.n), min(k, c.n))
    m = _scaled_entries(c)
    out = ExteriorForm.zero(c.n, k, k)
    for S in itertools.combinations(range(c.r), k):
        sub = [[m[a][b] for b in S] for a in S]
        out = out + _wedge_det_laplace(sub, c.n)
    return out


def chern_form_oracle(c: CurvaturePoint, k: int) -> ExteriorForm:
    """Trace of the induced endomorphism on the k-th exterior power.

    Builds every entry of the compound matrix on the wedge basis by explicit
    Leibniz permutation sums and sums the diagonal.  Same mathematical object
    as :func:`chern_form`, different code path.
    """
    if k < 0 or k > c.r:
        raise ValueError(f"k = {k} outside 0..{c.r}")
    if k == 0:
        return ExteriorForm.scalar(c.n, 1.0)
    if k > c.n:
        return ExteriorForm.zero(c.n, min(k, c.n), min(k, c.n))
    m = _scaled_entries(c)
    trace = ExteriorForm.zero(c.n, k, k)
    for S in itertools.combinations(range(c.r), k):
        trace = trace + _wedge_det_leibniz([[m[a][b] for b in S] for a in S], c.n)
    return trace


def total_chern_forms(c: CurvaturePoint) -> list[ExteriorForm]:
    """[c_0, c_1, ..., c_min(r, n)]."""
    return [chern_form(c, k) for k in range(min(c.r, c.n) + 1)]


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


def schur_form(c: CurvaturePoint, sigma: Sequence[int],
               chern: Sequence[ExteriorForm] | None = None) -> ExteriorForm:
    """Schur form det(c_{sigma_i + j - i}) for a partition sigma."""
    sigma = tuple(int(x) for x in sigma)
    if any(sigma[i] < sigma[i + 1] for i in range(len(sigma) - 1)) or \
            (sigma and sigma[-1] < 0):
        raise ValueError(f"{sigma} is not a partition")
    if chern is None:
        chern = total_chern_forms(c)
    k = len(sigma)
    weight = sum(sigma)
    if weight > c.n:
        return ExteriorForm.zero(c.n, c.n, c.n)

    def entry(i, j):  # 1-based
        l = sigma[i - 1] + j - i
        if l == 0:
            return ExteriorForm.scalar(c.n, 1.0)
        if l < 0 or l >= len(chern) or l > c.n:
            return None
        return chern[l]

    mat = [[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    return _det_mixed(mat, c.n, weight)


def generalized_schur_form(c: CurvaturePoint, sigma: Sequence[int],
                           segre: Sequence[ExteriorForm] | None = None) -> ExteriorForm:
    """det(s_{sigma_i + j - i}) for an arbitrary integer sequence sigma.

    Entries s_l vanish for l outside [0, n]; the result is the zero top-degree
    form when the total weight exceeds n.
    """
    sigma = tuple(int(x) for x in sigma)
    k = len(sigma)
    weight = sum(sigma)
    if weight < 0:
        raise ValueError(f"total weight {weight} is negative")
    if weight > c.n:
        return ExteriorForm.zero(c.n, c.n, c.n)
    if segre is None:
        chern = total_chern_forms(c)
        segre = [segre_form(c, l, chern) for l in range(c.n + 1)]

    def entry(i, j):  # 1-based
        l = sigma[i - 1] + j - i
        if l == 0:
            return ExteriorForm.scalar(c.n, 1.0)
        if l < 0 or l > c.n:
            return None
        return segre[l]

    mat = [[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    return _det_mixed(mat, c.n, weight)


def _det_mixed(mat, n: int, weight: int) -> ExteriorForm:
    """Leibniz determinant of a matrix of even forms; None entries are zero."""
    k = len(mat)
    out = ExteriorForm.zero(n, weight, weight)
    for perm in itertools.permutations(range(k)):
        entries = [mat[i][perm[i]] for i in range(k)]
        if any(e is None for e in entries):
            continue
        term = wedge_all(entries)
        out = out + term if permutation_sign(perm) > 0 else out - term
    return out


# ---------------------------------------------------------------------------
# Griffiths energy

SEMIPOSITIVE = "semipositive_up_to_tol"
NEGATIVE_WITNESS = "negative_witness"
INCONCLUSIVE = "inconclusive"
DUAL_NAKANO = "dual_nakano"
NAKANO = "nakano"


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the multistart alternating eigenvector searches."""

    random_starts: int = 64
    local_iters: int = 200
    tol: float = 1e-9
    rng_seed: int = 0


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
    t = coefficients(c)
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
    t = coefficients(c)
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
    t = coefficients(c)
    r, n = c.r, c.n
    s = budget.random_starts
    if s <= 0:
        zero_v = np.zeros(r, dtype=complex)
        zero_t = np.zeros(n, dtype=complex)
        return GriffithsReport(math.nan, zero_v, zero_t, INCONCLUSIVE, budget.tol)
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
