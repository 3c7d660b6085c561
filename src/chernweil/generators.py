"""Random curvature points with known positivity properties.

Every constructor returns a :class:`~chernweil.curvature.CurvaturePoint`
that passes Hermitian-symmetry validation by construction.  The sampled
families:

* ``dual_nakano_sample``: Theta = A ^ conj(A)^t for a random matrix A of
  (1,0)-forms; Griffiths energy is a sum of squared moduli, hence >= 0.
* ``line_sum``: diagonal curvature from strictly positive (1,1)-forms,
  the split sum of positive line bundles.
* ``psd_tensor``: Theta = -i * P (x) omega for PSD P and a PSD real omega;
  the energy factors as (v^H P v) * omega(tau).
* ``convex_combine``: nonnegative mixtures, preserving semipositivity.
* ``indefinite_control``: a perturbed sample with a planted strictly
  negative direction, for negative batteries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvaturePoint, from_coefficients, griffiths_energy
from .exterior import ExteriorForm, hermitian_one_one, one_one_matrix


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random curvature point, enough to regenerate it."""

    kind: str
    n: int
    r: int
    seed: int

    KINDS = ("dual_nakano", "line_sum", "psd_tensor", "convex_mix", "indefinite")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 and r >= 1")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_psd(rng, size: int, rank: int | None = None) -> np.ndarray:
    k = rank if rank is not None else size
    B = rng.standard_normal((k, size)) + 1j * rng.standard_normal((k, size))
    return B.conj().T @ B


def dual_nakano_sample(n: int, r: int, seed: int = 0,
                       scale: float = 1.0) -> CurvaturePoint:
    """Theta[a][b] = sum_s A[a,s] ^ conj(A[b,s]) with Gaussian A of (1,0)-forms."""
    rng = _rng(seed)
    m = max(1, min(n, r))
    a = scale * (rng.standard_normal((r, m, n)) + 1j * rng.standard_normal((r, m, n)))
    # t[a,b,j,k] = sum_s a[a,s,j] conj(a[b,s,k])
    t = np.einsum("asj,bsk->abjk", a, a.conj())
    return from_coefficients(t)


def line_sum(n: int, omegas: list[ExteriorForm]) -> CurvaturePoint:
    """Diagonal curvature with Theta[a][a] = -i * omega_a.

    Each omega must be a strictly positive real (1,1)-form; with this sign
    (i/2pi) Theta[a][a] equals omega_a / 2pi.
    """
    r = len(omegas)
    if r == 0:
        raise ValueError("need at least one line")
    mats = []
    for a, omega in enumerate(omegas):
        if omega.n != n or omega.bidegree != (1, 1):
            raise ValueError(f"omega[{a}] is not a (1,1)-form on C^{n}")
        if not omega.is_real():
            raise ValueError(f"omega[{a}] is not real")
        m = one_one_matrix(omega)
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
        if lam <= 0:
            raise ValueError(f"omega[{a}] is not strictly positive (min eig {lam:.3e})")
        mats.append(m)
    t = np.zeros((r, r, n, n), dtype=complex)
    for a, m in enumerate(mats):
        t[a, a] = m  # -i * (i m) = m
    return from_coefficients(t)


def psd_tensor(omega: ExteriorForm, P: np.ndarray) -> CurvaturePoint:
    """Theta[a][b] = -i * P[a,b] * omega for PSD P and PSD real omega."""
    P = np.asarray(P, dtype=complex)
    r = P.shape[0]
    if P.shape != (r, r):
        raise ValueError("P must be square")
    if float(np.max(np.abs(P - P.conj().T))) > 1e-9 * max(1.0, float(np.max(np.abs(P)))):
        raise ValueError("P is not Hermitian")
    if float(np.min(np.linalg.eigvalsh(0.5 * (P + P.conj().T)))) < -1e-9:
        raise ValueError("P is not positive semidefinite")
    if not omega.is_real() or omega.bidegree != (1, 1):
        raise ValueError("omega must be a real (1,1)-form")
    m = one_one_matrix(omega)
    if float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))) < -1e-9 * max(
            1.0, float(np.max(np.abs(m)))):
        raise ValueError("omega is not positive semidefinite")
    t = np.einsum("ab,jk->abjk", P, m)
    return from_coefficients(t)


def convex_combine(points: list[CurvaturePoint], weights: list[float]) -> CurvaturePoint:
    """Weighted sum with nonnegative weights; energies combine linearly."""
    if len(points) != len(weights) or not points:
        raise ValueError("need matching nonempty points and weights")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    n, r = points[0].n, points[0].r
    if any(p.n != n or p.r != r for p in points):
        raise ValueError("points have mismatched shapes")
    t = sum(w * p.t for w, p in zip(weights, points))
    return from_coefficients(t)


def indefinite_control(n: int, r: int, seed: int = 0) -> tuple[CurvaturePoint, dict]:
    """Semipositive base with a planted strictly negative diagonal direction.

    Returns the point and the planted witness payload; the energy at the
    witness is exactly -1 by construction.
    """
    base = dual_nakano_sample(n, r, seed=seed, scale=0.6)
    t = base.t.copy()
    # force t[0,0,0,0] = -1, keeping Hermitian symmetry (real diagonal entry)
    t[0, 0, 0, 0] = -1.0
    point = from_coefficients(t)
    v = np.zeros(r, dtype=complex)
    v[0] = 1.0
    tau = np.zeros(n, dtype=complex)
    tau[0] = 1.0
    witness = {"v": [complex(x) for x in v], "tau": [complex(x) for x in tau],
               "energy": griffiths_energy(point, v, tau)}
    return point, witness


def sample(spec: GeneratorSpec) -> CurvaturePoint:
    """Draw the curvature point described by a generator spec."""
    rng = _rng(spec.seed)
    n, r = spec.n, spec.r
    if spec.kind == "dual_nakano":
        return dual_nakano_sample(n, r, seed=spec.seed)
    # psd draws times the float 1/n (not / n): seeded samples keep their bits
    if spec.kind == "line_sum":
        omegas = []
        for a in range(r):
            m = _random_psd(rng, n) * (1.0 / n)
            m += 0.1 * np.eye(n)  # keep strictly positive
            omegas.append(hermitian_one_one(m))
        return line_sum(n, omegas)
    if spec.kind == "psd_tensor":
        m = _random_psd(rng, n) * (1.0 / n)
        P = _random_psd(rng, r) / r
        return psd_tensor(hermitian_one_one(m), P)
    if spec.kind == "convex_mix":
        parts = 2 + int(rng.integers(0, 2))
        pts = [dual_nakano_sample(n, r, seed=spec.seed + 1 + i)
               for i in range(parts)]
        weights = [float(w) for w in rng.random(parts)]
        return convex_combine(pts, weights)
    if spec.kind == "indefinite":
        return indefinite_control(n, r, seed=spec.seed)[0]
    raise ValueError(f"unknown generator kind {spec.kind!r}")
