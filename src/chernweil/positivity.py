"""Membership tests for the positivity cones of real (p,p)-forms.

Three nested cones, ordered strongly <= Hermitian <= weakly positive:

* weak positivity: pairing against every decomposable test tuple is
  nonnegative.  Tested by multistart alternating minimization over tuples of
  unit vectors; refutations are exact (the witness value replays), while
  certifications are heuristic and labeled as such.
* Hermitian positivity: the Gram matrix against decomposable (q,0) basis
  forms is positive semidefinite.  Exact up to floating point.
* strong positivity: membership in the cone generated by decomposable
  squares.  Certified by a nonnegative-least-squares fit against a
  dictionary of squares i^{p^2} alpha ^ conj(alpha), alpha = w_1 ^ ... ^ w_p,
  drawn as one stack of random unit covectors and turned into the NNLS
  matrix in one pass through the Plucker coordinates of alpha; refuted
  through the Hermitian dual (any negative Gram eigenvalue produces a dual
  witness), otherwise Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Sequence

import numpy as np

from .curvature import SearchBudget, hermitian_min_eig
from .exterior import (ExteriorForm, NotReal, decomposable, evaluate_pairing,
                       hermitian_gram, ipow, merge_table, plucker,
                       volume_coefficient)


class Status(Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PositivityVerdict:
    status: Status
    margin: float
    witness: dict | None = None
    heuristic: bool = False
    detail: str = ""


# ---------------------------------------------------------------------------
# weak positivity: search over decomposable test tuples

def check_positive(u: ExteriorForm, budget: SearchBudget = SearchBudget()) -> PositivityVerdict:
    """Weak positivity by multistart alternating minimization.

    Minimizes the pairing over tuples of p unit vectors; each coordinate
    update is an exact minimal-eigenvector step in one vector with the
    others fixed.  Refutations replay through evaluate_pairing; a Certified
    answer is heuristic (no refutation found within budget).
    """
    p = u.p
    if u.q != p:
        raise ValueError(f"bidegree {u.bidegree} is not of the form (p,p)")
    if not u.is_real():
        raise NotReal("form is not real within tolerance")
    if p == 0:
        val = float(u.get((), ()).real)
        status = Status.REFUTED if val < -budget.tol else Status.CERTIFIED
        witness = {"vectors": [], "value": val} if status is Status.REFUTED else None
        return PositivityVerdict(status, val, witness, heuristic=False)
    if u.is_zero():
        return PositivityVerdict(Status.CERTIFIED, 0.0, None, heuristic=True,
                                 detail="zero form")

    n = u.n
    U = u.array
    phase = ipow(-p * p)
    scale = max(1.0, float(np.max(np.abs(U))))
    s = budget.random_starts
    rng = np.random.default_rng(np.random.SeedSequence(budget.rng_seed))
    ws = rng.standard_normal((s, p, n)) + 1j * rng.standard_normal((s, p, n))
    ws /= np.linalg.norm(ws, axis=2, keepdims=True)

    # D[L, (K, a)]: sign of e_L ^ e_a at e_K, so the Plucker vector of p-1
    # vectors V followed by x is sum_{L,a} V[L] D[L, (K, a)] x_a
    N = comb(n, p)
    D = merge_table(n, p - 1, 1).reshape(N, -1, n).transpose(1, 0, 2) \
        .reshape(-1, N * n)

    def values(ws):
        W = plucker(ws)
        return np.real(phase * np.sum((W @ U) * W.conj(), axis=1))

    prev = values(ws)
    for _ in range(budget.local_iters):
        for i in range(p):
            # moving w_i last flips the Plucker vector by a global sign,
            # which cancels in the quadratic form
            V = plucker(np.delete(ws, i, axis=1))
            B = (V @ D).reshape(s, N, n)
            # C[s, a, b] = sum_{K,L} B[s,K,a] U[K,L] conj(B[s,L,b])
            C = phase * (np.swapaxes(B, 1, 2) @ U @ B.conj())
            # the quadratic form in x = w_i equals z^H C z at z = conj(x)
            _, z = hermitian_min_eig(C)
            ws[:, i, :] = z.conj()
        vals = values(ws)
        if np.max(prev - vals) < 1e-13 * scale:
            prev = vals
            break
        prev = vals

    best = int(np.argmin(prev))
    witness_vecs = [ws[best, i, :].copy() for i in range(p)]
    margin = evaluate_pairing(u, witness_vecs)
    if margin < -budget.tol:
        witness = {"vectors": [[complex(x) for x in w] for w in witness_vecs],
                   "value": margin}
        return PositivityVerdict(Status.REFUTED, margin, witness)
    return PositivityVerdict(Status.CERTIFIED, float(np.min(prev)), None,
                             heuristic=True,
                             detail=f"{s} starts, no refutation")


# ---------------------------------------------------------------------------
# Hermitian positivity: exact Gram eigenvalue test

def check_hermitian_positive(u: ExteriorForm, tol: float = 1e-9) -> PositivityVerdict:
    """PSD test of the Gram matrix; exact up to floating point.

    A negative eigenvalue yields the dual witness beta with
    vol(u ^ i^{q^2} beta ^ conj(beta)) = lambda_min < 0.
    """
    G, basis = hermitian_gram(u)
    if G.size == 0:
        return PositivityVerdict(Status.CERTIFIED, 0.0, None)
    scale = max(1.0, float(np.max(np.abs(G))))
    w, V = np.linalg.eigh(G)
    lam = float(w[0])
    if lam < -tol * scale:
        x = V[:, 0]
        # quadratic form at coefficients v equals conj(v)^H G conj(v)
        beta = x.conj()
        witness = {"beta": {str(I): complex(b) for I, b in zip(basis, beta)},
                   "basis": [list(I) for I in basis],
                   "beta_coeffs": [complex(b) for b in beta],
                   "value": lam}
        return PositivityVerdict(Status.REFUTED, lam, witness)
    return PositivityVerdict(Status.CERTIFIED, lam, None)


def gram_witness_form(verdict: PositivityVerdict, n: int, q: int) -> ExteriorForm:
    """Rebuild the (q,0)-form beta from a Hermitian refutation payload."""
    if verdict.witness is None:
        raise ValueError("verdict carries no witness")
    basis = [tuple(I) for I in verdict.witness["basis"]]
    coeffs = verdict.witness["beta_coeffs"]
    out = {}
    for I, c in zip(basis, coeffs):
        if c != 0:
            out[(I, ())] = c
    return ExteriorForm(n, q, 0, out)


# ---------------------------------------------------------------------------
# strong positivity: dictionary certificates and the Hermitian dual

def _real_coords(D: np.ndarray, p: int) -> np.ndarray:
    """Real coordinates of real (p,p)-forms from their coefficient arrays.

    ``D`` is one (N, N) array or a stack (..., N, N).  The diagonal entries
    (real part for even p, imaginary part for odd p), then (Re, Im) of each
    entry above the diagonal, row by row.
    """
    diag = np.diagonal(D, axis1=-2, axis2=-1)
    upper = D[(..., *np.triu_indices(D.shape[-1], 1))]
    pairs = np.stack([upper.real, upper.imag], axis=-1)
    return np.concatenate([diag.real if p % 2 == 0 else diag.imag,
                           pairs.reshape(*upper.shape[:-1], -1)], axis=-1)


def _random_factors(rng: np.random.Generator, size: int, p: int, n: int) -> np.ndarray:
    """``size`` tuples of p random unit covectors on C^n, shape (size, p, n).

    Each tuple reads a real (p, n) block and then an imaginary one from the
    stream.
    """
    z = rng.standard_normal((size, 2, p, n))
    ws = z[:, 0] + 1j * z[:, 1]
    ws /= np.linalg.norm(ws, axis=2, keepdims=True)
    return ws


def _square_coords(ws: np.ndarray) -> np.ndarray:
    """NNLS matrix of the squares i^{p^2} alpha ^ conj(alpha), one column each.

    alpha is w_1 ^ ... ^ w_p for the tuple ws[k]; with W its Plucker vector
    the square has coefficient i^{p^2} W[I] conj(W[J]) at (I, J), because the
    (p,0) ^ (0,p) wedge needs no shuffle.
    """
    p = ws.shape[1]
    W = plucker(ws)
    squares = ipow(p * p) * (W[:, :, None] * W[:, None, :].conj())
    return _real_coords(squares, p).T


def check_strongly_positive(u: ExteriorForm, budget: SearchBudget = SearchBudget(),
                            dictionary: Sequence[Sequence[Sequence[complex]]] | None = None
                            ) -> PositivityVerdict:
    """Strong positivity via NNLS against a dictionary of decomposable squares.

    Certified when the fit reproduces u with small relative residual; the
    certificate lists weights and covector factors.  Refuted when the
    Hermitian Gram matrix has a negative eigenvalue (its eigenvector gives a
    Hermitian-positive dual form pairing negatively with u).  Otherwise
    Unknown: u sits outside the sampled cone but no dual witness was found.

    ``dictionary`` replaces the random one: k tuples of p covectors in C^n,
    shape (k, p, n).
    """
    p = u.p
    if u.q != p:
        raise ValueError(f"bidegree {u.bidegree} is not of the form (p,p)")
    if not u.is_real():
        raise NotReal("form is not real within tolerance")
    n = u.n
    if p in (0, n):
        # scalar and volume cases coincide with weak positivity
        val = float(u.get((), ()).real) if p == 0 else volume_coefficient(u)
        if val < -budget.tol:
            return PositivityVerdict(Status.REFUTED, val, {"value": val})
        atoms = [] if val == 0 else \
            [[[complex(x) for x in np.eye(n)[i]] for i in range(p)]]
        cert = {"weights": [val] if val else [], "atoms": atoms, "residual": 0.0}
        return PositivityVerdict(Status.CERTIFIED, val, cert)

    # refutation via the Hermitian dual
    herm = check_hermitian_positive(u, tol=budget.tol)
    if herm.status is Status.REFUTED:
        q = n - p
        beta = gram_witness_form(herm, n, q)
        dual = (beta.wedge(beta.conjugate())) * ipow(q * q)
        value = volume_coefficient(u.wedge(dual))
        witness = dict(herm.witness)
        witness["dual_value"] = value
        return PositivityVerdict(Status.REFUTED, value, witness,
                                 detail="Hermitian-positive dual witness")

    if dictionary is None:
        rng = np.random.default_rng(np.random.SeedSequence(budget.rng_seed))
        ws = _random_factors(rng, 20 * comb(n, p) ** 2, p, n)
    else:
        ws = np.asarray(dictionary, dtype=complex)
        if ws.ndim != 3 or ws.shape[0] == 0 or ws.shape[1:] != (p, n):
            raise ValueError(f"dictionary has shape {ws.shape}, expected "
                             f"(k, {p}, {n}) with k >= 1")
    # imported here: only this test needs scipy.optimize, and importing it
    # takes most of the package's import time
    import scipy.optimize

    target = _real_coords(u.array, p)
    A = _square_coords(ws)
    weights, rnorm = scipy.optimize.nnls(A, target, maxiter=10 * A.shape[1])
    rel = rnorm / max(1.0, float(np.linalg.norm(target)))
    if rel <= 1e-8:
        used = np.flatnonzero(weights > 0)
        cert = {"weights": [float(w) for w in weights[used]],
                "atoms": [[list(map(complex, f)) for f in ws[i]] for i in used],
                "residual": float(rel)}
        return PositivityVerdict(Status.CERTIFIED, float(rel), cert)
    return PositivityVerdict(Status.UNKNOWN, float(rel), None,
                             detail=f"NNLS relative residual {rel:.3e}")


def reconstruct_certificate(verdict: PositivityVerdict, n: int, p: int) -> ExteriorForm:
    """Rebuild sum_i w_i i^{p^2} alpha_i ^ conj(alpha_i) from a certificate."""
    if verdict.witness is None or "weights" not in verdict.witness:
        raise ValueError("verdict carries no strong-positivity certificate")
    phase = ipow(p * p)
    out = ExteriorForm.zero(n, p, p)
    for w, factors in zip(verdict.witness["weights"], verdict.witness["atoms"]):
        alpha = decomposable(factors) if factors else ExteriorForm.scalar(n, 1.0)
        out = out + (alpha.wedge(alpha.conjugate()) * phase) * w
    return out
