"""Cone membership checks: weak, Hermitian, and strong positivity.

Refutations must replay exactly (witness pairing reproduces the reported
margin); certifications are checked against hand-built members of each cone
and against reconstruction of the returned certificates.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chernweil
from chernweil.curvature import SearchBudget
from chernweil.exterior import (ExteriorForm, NotReal, decomposable,
                                evaluate_pairing, ipow, one_form,
                                volume_coefficient, wedge)
from chernweil.positivity import (PositivityVerdict, Status, _random_factors,
                                  _real_coords, _square_coords,
                                  check_hermitian_positive, check_positive,
                                  check_strongly_positive, gram_witness_form,
                                  reconstruct_certificate)

RNG = np.random.default_rng(20240813)
FAST = SearchBudget(random_starts=16, local_iters=60)


def random_covectors(n, p, rng):
    v = rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [list(row) for row in v]


def square(factors, n):
    """i^{p^2} alpha ^ conj(alpha) for alpha = wedge of the given covectors."""
    p = len(factors)
    alpha = decomposable(factors) if factors else ExteriorForm.scalar(n, 1.0)
    return alpha.wedge(alpha.conjugate()) * ipow(p * p)


def omega(n):
    """Standard Kaehler form i sum e_j ^ conj(e_j)."""
    out = ExteriorForm.zero(n, 1, 1)
    for j in range(1, n + 1):
        out = out + ExteriorForm(n, 1, 1, {((j,), (j,)): 1j})
    return out


# ---------------------------------------------------------------------------
# weak positivity

def test_weak_scalar_semantics():
    pos = check_positive(ExteriorForm.scalar(2, 2.0))
    assert pos.status is Status.CERTIFIED and pos.margin == 2.0
    assert not pos.heuristic
    neg = check_positive(ExteriorForm.scalar(2, -1.0))
    assert neg.status is Status.REFUTED and neg.margin == -1.0
    assert neg.witness["vectors"] == []


def test_weak_rejects_wrong_bidegree_and_nonreal():
    with pytest.raises(ValueError):
        check_positive(ExteriorForm.basis(2, (1,), ()))
    with pytest.raises(NotReal):
        check_positive(ExteriorForm(2, 1, 1, {((1,), (2,)): 1.0}))


def test_weak_zero_form():
    v = check_positive(ExteriorForm.zero(2, 1, 1))
    assert v.status is Status.CERTIFIED and v.margin == 0.0 and v.heuristic


def test_weak_kaehler_form_margin_one():
    # pairing of omega with any unit vector is exactly 1
    v = check_positive(omega(2), FAST)
    assert v.status is Status.CERTIFIED
    assert abs(v.margin - 1.0) < 1e-9


def test_weak_refutes_negative_volume():
    n = 2
    nu = square([list(np.eye(n)[0]), list(np.eye(n)[1])], n)
    v = check_positive(nu * -1.0, FAST)
    assert v.status is Status.REFUTED
    assert v.margin < -0.9
    vectors = [np.asarray(w) for w in v.witness["vectors"]]
    assert abs(evaluate_pairing(nu * -1.0, vectors) - v.witness["value"]) < 1e-12
    assert v.witness["value"] == v.margin


def test_weak_refutes_indefinite_diagonal():
    u = ExteriorForm(2, 1, 1, {((1,), (1,)): 1j, ((2,), (2,)): -1j})
    v = check_positive(u, FAST)
    assert v.status is Status.REFUTED
    assert abs(v.margin + 1.0) < 1e-9


def test_weak_certifies_squares():
    for p, n in [(1, 3), (2, 3), (2, 4)]:
        u = square(random_covectors(n, p, RNG), n)
        v = check_positive(u, FAST)
        assert v.status is Status.CERTIFIED


# ---------------------------------------------------------------------------
# Hermitian positivity

def test_hermitian_certifies_squares_of_nondecomposables():
    # xi = e12 + e34 is not decomposable, yet i^{p^2} xi ^ conj(xi) is
    # Hermitian positive
    n = 4
    e12 = decomposable([list(np.eye(n)[0]), list(np.eye(n)[1])])
    e34 = decomposable([list(np.eye(n)[2]), list(np.eye(n)[3])])
    xi = e12 + e34
    u = xi.wedge(xi.conjugate()) * ipow(4)
    v = check_hermitian_positive(u)
    assert v.status is Status.CERTIFIED


def test_hermitian_certifies_random_squares():
    n = 3
    for p in (1, 2):
        for _ in range(5):
            a = random_covectors(n, p, RNG)
            b = random_covectors(n, p, RNG)
            xi = decomposable(a) + decomposable(b) * complex(RNG.normal(), RNG.normal())
            u = xi.wedge(xi.conjugate()) * ipow(p * p)
            assert check_hermitian_positive(u).status is Status.CERTIFIED


def test_hermitian_refutation_witness_replays():
    n = 2
    u = ExteriorForm(n, 1, 1, {((1,), (1,)): -1j})
    v = check_hermitian_positive(u)
    assert v.status is Status.REFUTED
    assert v.margin < 0
    q = n - u.p
    beta = gram_witness_form(v, n, q)
    dual = beta.wedge(beta.conjugate()) * ipow(q * q)
    assert abs(volume_coefficient(u.wedge(dual)) - v.witness["value"]) < 1e-12
    assert abs(v.witness["value"] - v.margin) < 1e-15


def test_hermitian_top_degree_reads_volume():
    n = 3
    nu = square([list(r) for r in np.eye(n)], n)
    assert check_hermitian_positive(nu * 2.5).status is Status.CERTIFIED
    bad = check_hermitian_positive(nu * -2.5)
    assert bad.status is Status.REFUTED
    assert abs(bad.margin + 2.5) < 1e-12


def test_gram_witness_requires_witness():
    v = check_hermitian_positive(omega(2))
    with pytest.raises(ValueError):
        gram_witness_form(v, 2, 1)


def test_weak_and_hermitian_agree_at_extreme_bidegrees():
    # for p in {0, 1, n-1, n} the two cones coincide; near-boundary forms
    # need the full search budget, the fast one stalls in the flat valley
    n = 3
    rng = np.random.default_rng(7)
    for p in (0, 1, 2, 3):
        for trial in range(6):
            w = ExteriorForm.zero(n, p, p)
            for _ in range(3):
                s = square(random_covectors(n, p, rng), n)
                w = w + s * rng.normal()
            hp = check_hermitian_positive(w)
            wp = check_positive(w, SearchBudget())
            assert hp.status == wp.status, (p, trial)
            if hp.status is Status.REFUTED and 0 < p:
                assert wp.margin <= hp.margin * 0.5 or \
                    abs(wp.margin - hp.margin) < 1e-9


# ---------------------------------------------------------------------------
# strong positivity

def test_strong_scalar_and_volume_cases():
    n = 2
    ok = check_strongly_positive(ExteriorForm.scalar(n, 1.5))
    assert ok.status is Status.CERTIFIED
    assert reconstruct_certificate(ok, n, 0).get((), ()) == pytest.approx(1.5)
    bad = check_strongly_positive(ExteriorForm.scalar(n, -2.0))
    assert bad.status is Status.REFUTED

    nu = square([list(r) for r in np.eye(n)], n)
    top = check_strongly_positive(nu * 3.0)
    assert top.status is Status.CERTIFIED
    back = reconstruct_certificate(top, n, n)
    assert (back - nu * 3.0).max_abs() < 1e-12
    assert check_strongly_positive(nu * -3.0).status is Status.REFUTED


def test_strong_certifies_kaehler_form():
    n = 2
    v = check_strongly_positive(omega(n), FAST)
    assert v.status is Status.CERTIFIED
    back = reconstruct_certificate(v, n, 1)
    assert (back - omega(n)).max_abs() < 1e-7


def test_strong_certificate_reconstructs_random_cone_member():
    n = 3
    rng = np.random.default_rng(11)
    u = ExteriorForm.zero(n, 1, 1)
    for _ in range(4):
        u = u + square(random_covectors(n, 1, rng), n) * float(rng.uniform(0.2, 1.0))
    v = check_strongly_positive(u, FAST)
    assert v.status is Status.CERTIFIED
    assert v.witness["residual"] <= 1e-8
    back = reconstruct_certificate(v, n, 1)
    assert (back - u).max_abs() < 1e-6 * max(1.0, u.max_abs())


def test_strong_refutes_via_hermitian_dual():
    n = 2
    u = ExteriorForm(n, 1, 1, {((1,), (1,)): -1j, ((2,), (2,)): 2j})
    v = check_strongly_positive(u, FAST)
    assert v.status is Status.REFUTED
    assert "dual_value" in v.witness
    assert v.margin < -0.9
    q = n - u.p
    beta = gram_witness_form(v, n, q)
    dual = beta.wedge(beta.conjugate()) * ipow(q * q)
    assert abs(volume_coefficient(u.wedge(dual)) - v.margin) < 1e-12


def test_strong_square_of_nondecomposable_is_not_certified():
    # Hermitian positive but outside the strong cone
    n = 4
    e12 = decomposable([list(np.eye(n)[0]), list(np.eye(n)[1])])
    e34 = decomposable([list(np.eye(n)[2]), list(np.eye(n)[3])])
    xi = e12 + e34
    u = xi.wedge(xi.conjugate()) * ipow(4)
    assert check_hermitian_positive(u).status is Status.CERTIFIED
    v = check_strongly_positive(u, FAST)
    assert v.status is not Status.CERTIFIED


def test_strong_wedge_closure_via_product_dictionary():
    # certificates multiply: concatenating factor lists certifies products
    # sums of >= n squares sit in the interior of the cone; boundary points
    # (rank-deficient sums) are not reachable by a random dictionary
    n = 4
    rng = np.random.default_rng(23)
    u1 = ExteriorForm.zero(n, 1, 1)
    for _ in range(5):
        u1 = u1 + square(random_covectors(n, 1, rng), n) * float(rng.uniform(0.3, 1.0))
    u2 = ExteriorForm.zero(n, 1, 1)
    for _ in range(5):
        u2 = u2 + square(random_covectors(n, 1, rng), n) * float(rng.uniform(0.3, 1.0))
    v1 = check_strongly_positive(u1, FAST)
    v2 = check_strongly_positive(u2, FAST)
    assert v1.status is Status.CERTIFIED and v2.status is Status.CERTIFIED
    product_dict = [list(f1) + list(f2)
                    for f1 in v1.witness["atoms"] for f2 in v2.witness["atoms"]]
    v = check_strongly_positive(wedge(u1, u2), FAST, dictionary=product_dict)
    assert v.status is Status.CERTIFIED


def test_random_factors_match_per_tuple_draws():
    # one (size, 2, p, n) draw reads the stream in the order of one real and
    # one imaginary (p, n) block per tuple
    size, p, n = 50, 2, 4
    ws = _random_factors(np.random.default_rng(7), size, p, n)
    rng = np.random.default_rng(7)
    for k in range(size):
        vecs = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        assert np.array_equal(ws[k], vecs)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_square_coords_match_wedged_squares(p):
    # odd p reads the imaginary diagonal, even p the real one
    rng = np.random.default_rng(40 + p)
    for n in range(p, 6):
        ws = rng.standard_normal((6, p, n)) + 1j * rng.standard_normal((6, p, n))
        ws /= np.linalg.norm(ws, axis=2, keepdims=True)
        A = _square_coords(ws)
        for k in range(len(ws)):
            want = _real_coords(square(list(ws[k]), n).array, p)
            np.testing.assert_allclose(A[:, k], want, rtol=0, atol=1e-14)


def test_strong_dictionary_as_lists_or_array():
    n = 3
    rng = np.random.default_rng(13)
    u = ExteriorForm.zero(n, 1, 1)
    for _ in range(4):
        u = u + square(random_covectors(n, 1, rng), n) * float(rng.uniform(0.2, 1.0))
    ws = rng.standard_normal((60, 1, n)) + 1j * rng.standard_normal((60, 1, n))
    as_array = check_strongly_positive(u, FAST, dictionary=ws)
    as_lists = check_strongly_positive(
        u, FAST, dictionary=[[list(map(complex, f)) for f in fs] for fs in ws])
    assert as_array.status is Status.CERTIFIED
    assert as_lists == as_array
    back = reconstruct_certificate(as_array, n, 1)
    assert (back - u).max_abs() < 1e-6 * max(1.0, u.max_abs())


@pytest.mark.parametrize("shape", [(5, 2, 3), (5, 1, 4), (5, 3), (0, 1, 3)])
def test_strong_dictionary_of_wrong_shape_names_it(shape):
    u = omega(3)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        check_strongly_positive(u, FAST, dictionary=np.ones(shape))


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    code = ("import sys, chernweil.cli; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(chernweil.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reconstruct_requires_certificate():
    v = PositivityVerdict(Status.UNKNOWN, 1.0)
    with pytest.raises(ValueError):
        reconstruct_certificate(v, 2, 1)


# ---------------------------------------------------------------------------
# cone relations

def test_cone_nesting_on_strong_members():
    # anchor with omega/2 to keep the samples well inside the cone
    n = 3
    rng = np.random.default_rng(31)
    for trial in range(5):
        u = omega(n) * 0.5
        for _ in range(3):
            u = u + square(random_covectors(n, 1, rng), n) * float(rng.uniform(0.2, 1.0))
        sp = check_strongly_positive(u, FAST)
        hp = check_hermitian_positive(u)
        wp = check_positive(u, FAST)
        assert sp.status is Status.CERTIFIED
        assert hp.status is Status.CERTIFIED
        assert wp.status is Status.CERTIFIED


def test_square_of_positive_form_is_not_refuted():
    # the wedge square of a weakly positive (2,2)-form on C^4 pairs
    # nonnegatively; at top degree the certification margin sits at zero
    # because degenerate test tuples always reach it
    n = 4
    e12 = decomposable([list(np.eye(n)[0]), list(np.eye(n)[1])])
    e34 = decomposable([list(np.eye(n)[2]), list(np.eye(n)[3])])
    xi = e12 + e34
    u = xi.wedge(xi.conjugate()) * ipow(4)
    assert check_positive(u, FAST).status is Status.CERTIFIED
    sq = wedge(u, u)
    v = check_positive(sq, FAST)
    assert v.status is Status.CERTIFIED
    assert volume_coefficient(sq) > 0
