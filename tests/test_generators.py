"""Sample families with curvature of known sign, and their planted controls."""

import math

import numpy as np
import pytest

from chernweil.curvature import (NEGATIVE_WITNESS, SearchBudget, chern_form,
                                 from_coefficients, griffiths_energy,
                                 griffiths_minimum, validate)
from chernweil.exterior import ExteriorForm, hermitian_one_one, wedge
from chernweil.generators import (GeneratorSpec, convex_combine,
                                  dual_nakano_sample, indefinite_control,
                                  line_sum, psd_tensor, sample)

RNG = np.random.default_rng(20240814)
BUDGET = SearchBudget(random_starts=16, local_iters=100)


def standard_omega(n):
    return hermitian_one_one(np.eye(n))


def random_probe(n, r, rng):
    v = rng.normal(size=r) + 1j * rng.normal(size=r)
    tau = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v, tau


# ---------------------------------------------------------------------------
# spec validation

def test_generator_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        GeneratorSpec("nakano", 2, 2, 0)
    with pytest.raises(ValueError):
        GeneratorSpec("dual_nakano", 0, 2, 0)
    assert set(GeneratorSpec.KINDS) == {
        "dual_nakano", "line_sum", "psd_tensor", "convex_mix", "indefinite"}


# ---------------------------------------------------------------------------
# dual-Nakano samples

def test_dual_nakano_is_valid_and_semipositive():
    for n, r in [(2, 2), (3, 3), (4, 2)]:
        c = dual_nakano_sample(n, r, seed=5)
        assert c.n == n and c.r == r
        assert validate(c) == []
        for _ in range(20):
            v, tau = random_probe(n, r, RNG)
            assert griffiths_energy(c, v, tau).real >= -1e-10 * c.max_abs()


def test_dual_nakano_is_deterministic():
    a = dual_nakano_sample(3, 2, seed=9).t
    b = dual_nakano_sample(3, 2, seed=9).t
    other = dual_nakano_sample(3, 2, seed=10).t
    assert np.array_equal(a, b)
    assert not np.allclose(a, other)


def test_dual_nakano_scale_is_quadratic():
    a = dual_nakano_sample(2, 2, seed=3, scale=1.0).t
    b = dual_nakano_sample(2, 2, seed=3, scale=2.0).t
    assert np.allclose(b, 4.0 * a)


# ---------------------------------------------------------------------------
# split sums of line bundles

def test_line_sum_first_chern_form():
    n, r = 2, 3
    omega = standard_omega(n)
    c = line_sum(n, [omega] * r)
    want = omega * (r / (2.0 * math.pi))
    assert (chern_form(c, 1) - want).max_abs() < 1e-12


def test_line_sum_chern_forms_are_elementary_symmetric():
    n = 3
    omegas = []
    for _ in range(3):
        b = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        omegas.append(hermitian_one_one(b.conj().T @ b + 0.5 * np.eye(n)))
    c = line_sum(n, omegas)
    scaled = [w * (1.0 / (2.0 * math.pi)) for w in omegas]
    for k in (1, 2, 3):
        acc = ExteriorForm.zero(n, k, k)
        import itertools
        for S in itertools.combinations(range(3), k):
            term = scaled[S[0]]
            for a in S[1:]:
                term = wedge(term, scaled[a])
            acc = acc + term
        got = chern_form(c, k)
        assert (got - acc).max_abs() < 1e-12 * max(1.0, acc.max_abs())


def test_line_sum_rejects_nonpositive_input():
    n = 2
    with pytest.raises(ValueError):
        line_sum(n, [])
    with pytest.raises(ValueError):
        line_sum(n, [hermitian_one_one(np.diag([1.0, 0.0]))])  # only semidefinite
    with pytest.raises(ValueError):
        line_sum(n, [ExteriorForm.scalar(n, 1.0)])


# ---------------------------------------------------------------------------
# tensor products with a positive line

def test_psd_tensor_identity_has_unit_minimum():
    c = psd_tensor(standard_omega(2), np.eye(2))
    rep = griffiths_minimum(c, BUDGET)
    assert abs(rep.min_value - 1.0) < 1e-9


def test_psd_tensor_rank_one_touches_zero():
    P = np.outer([1.0, 1.0], [1.0, 1.0]) / 2.0
    c = psd_tensor(standard_omega(2), P)
    rep = griffiths_minimum(c, BUDGET)
    assert abs(rep.min_value) < 1e-9


def test_psd_tensor_energy_factorizes():
    n, r = 3, 2
    B = RNG.normal(size=(r, r)) + 1j * RNG.normal(size=(r, r))
    P = B.conj().T @ B
    m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    m = m.conj().T @ m
    c = psd_tensor(hermitian_one_one(m), P)
    for _ in range(10):
        v, tau = random_probe(n, r, RNG)
        want = (v.conj() @ P @ v) * (tau @ m @ tau.conj())
        assert abs(griffiths_energy(c, v, tau) - want) < 1e-10 * abs(want)


def test_psd_tensor_zero_omega_kills_chern_forms():
    c = psd_tensor(ExteriorForm.zero(2, 1, 1), np.eye(2))
    assert chern_form(c, 1).is_zero()
    assert chern_form(c, 2).is_zero()


def test_psd_tensor_rejects_bad_input():
    with pytest.raises(ValueError):
        psd_tensor(standard_omega(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        psd_tensor(standard_omega(2), -np.eye(2))
    with pytest.raises(ValueError):
        psd_tensor(hermitian_one_one(-np.eye(2)), np.eye(2))


# ---------------------------------------------------------------------------
# mixtures

def test_points_share_no_writable_state():
    t = dual_nakano_sample(2, 2, seed=1).t.copy()
    c = from_coefficients(t)
    t[0, 0, 0, 0] += 1.0  # the point holds its own copy
    before = c.t.copy()
    convex_combine([c, c], [0.5, 2.0])
    assert np.array_equal(c.t, before)
    with pytest.raises(ValueError):
        c.t[0, 0, 0, 0] = 2.0
    point, _ = indefinite_control(2, 2, seed=4)
    assert dual_nakano_sample(2, 2, seed=4, scale=0.6).t[0, 0, 0, 0] != -1.0
    assert point.t[0, 0, 0, 0] == -1.0


def test_convex_combine_energies_are_linear():
    n, r = 2, 2
    pts = [dual_nakano_sample(n, r, seed=s) for s in (7, 8)]
    weights = [0.3, 1.2]
    mix = convex_combine(pts, weights)
    assert validate(mix) == []
    v, tau = random_probe(n, r, RNG)
    want = sum(w * griffiths_energy(p, v, tau) for w, p in zip(weights, pts))
    assert abs(griffiths_energy(mix, v, tau) - want) < 1e-12 * abs(want)


def test_convex_combine_rejects_bad_input():
    pts = [dual_nakano_sample(2, 2, seed=1)]
    with pytest.raises(ValueError):
        convex_combine(pts, [0.5, 0.5])
    with pytest.raises(ValueError):
        convex_combine(pts, [-1.0])
    with pytest.raises(ValueError):
        convex_combine([], [])
    with pytest.raises(ValueError):
        convex_combine([pts[0], dual_nakano_sample(3, 2, seed=1)], [1.0, 1.0])


# ---------------------------------------------------------------------------
# planted negatives

def test_indefinite_control_plants_exact_witness():
    point, witness = indefinite_control(2, 2, seed=0)
    assert validate(point) == []
    assert witness["energy"] == -1.0
    v = np.asarray(witness["v"])
    tau = np.asarray(witness["tau"])
    assert griffiths_energy(point, v, tau) == -1.0


def test_indefinite_control_is_found_by_search():
    point, _ = indefinite_control(2, 2, seed=3)
    rep = griffiths_minimum(point, BUDGET)
    assert rep.status == NEGATIVE_WITNESS
    assert rep.min_value <= -1.0 + 1e-9


# ---------------------------------------------------------------------------
# dispatcher

def test_sample_dispatch_all_kinds():
    for kind in GeneratorSpec.KINDS:
        spec = GeneratorSpec(kind, 2, 2, seed=11)
        c = sample(spec)
        assert c.n == 2 and c.r == 2
        assert validate(c) == []
        again = sample(spec)
        assert np.array_equal(c.t, again.t)


def test_sample_seeds_decorrelate():
    for kind in GeneratorSpec.KINDS:
        a = sample(GeneratorSpec(kind, 2, 2, seed=1))
        b = sample(GeneratorSpec(kind, 2, 2, seed=2))
        assert not np.allclose(a.t, b.t)


def test_sample_indefinite_matches_control():
    spec = GeneratorSpec("indefinite", 3, 2, seed=6)
    a = sample(spec)
    b = indefinite_control(3, 2, seed=6)[0]
    assert np.array_equal(a.t, b.t)
