"""Characteristic forms from pointwise curvature data.

Fixtures with closed-form answers are computed by hand in the comments; the
two independently coded determinant routes cross-check each other on random
valid curvature tensors.
"""

import math
import time

import numpy as np
import pytest

from chernweil.batch import _griffiths_fields
from chernweil.curvature import (DUAL_NAKANO, NAKANO, NEGATIVE_WITNESS,
                                 SEMIPOSITIVE, SearchBudget,
                                 chern_form, chern_form_oracle,
                                 from_coefficients, generalized_schur_form,
                                 griffiths_certificate, griffiths_energy,
                                 griffiths_minimum, schur_form, segre_form,
                                 total_chern_forms, validate)
from chernweil.exterior import ExteriorForm, volume_coefficient, wedge
from chernweil.generators import dual_nakano_sample, indefinite_control
from chernweil.schur import conjugate_partition

RNG = np.random.default_rng(20240812)
TOL = 1e-12


def close(a, b, tol=TOL):
    scale = max(1.0, a.max_abs(), b.max_abs())
    return (a - b).max_abs() <= tol * scale


def hermitian_tensor(n, r, rng):
    """Random coefficient tensor obeying conj(t[a,b,j,k]) = t[b,a,k,j]."""
    g = rng.normal(size=(r, r, n, n)) + 1j * rng.normal(size=(r, r, n, n))
    return (g + np.conj(np.transpose(g, (1, 0, 3, 2)))) / 2


def identity_tensor(n, r):
    t = np.zeros((r, r, n, n), dtype=complex)
    for a in range(r):
        for j in range(n):
            t[a, a, j, j] = 1.0
    return t


# ---------------------------------------------------------------------------
# construction and validation

def test_round_trip_coefficients():
    t = hermitian_tensor(3, 2, RNG)
    c = from_coefficients(t)
    assert c.n == 3 and c.r == 2
    assert np.allclose(c.t, t)
    for a in range(2):
        for b in range(2):
            assert c.entry(a, b).bidegree == (1, 1)
            assert np.array_equal(c.entry(a, b).array, t[a, b])


def test_from_coefficients_rejects_bad_shape():
    for shape in ((2, 3, 2, 2), (2, 2, 2, 3), (2, 2, 2), (1, 1, 0, 0)):
        with pytest.raises(ValueError):
            from_coefficients(np.zeros(shape))


def test_from_coefficients_rejects_non_finite_entries():
    for value in (np.nan, np.inf):
        t = np.zeros((2, 2, 2, 2), dtype=complex)
        t[1, 0, 1, 0] = value
        with pytest.raises(ValueError, match=r"\(1, 0, 1, 0\) is not finite"):
            from_coefficients(t)


def test_validate_accepts_hermitian_tensors():
    for n, r in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        c = from_coefficients(hermitian_tensor(n, r, RNG))
        assert validate(c) == []


def test_validate_names_offending_entries():
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    t[0, 1, 0, 0] = 1.0  # no matching conjugate in the (2,1) slot
    out = validate(from_coefficients(t))
    assert any("(1,2)" in msg for msg in out)
    assert any("(2,1)" in msg for msg in out)


def test_validate_flags_imaginary_diagonal():
    t = np.zeros((1, 1, 1, 1), dtype=complex)
    t[0, 0, 0, 0] = 1j
    assert validate(from_coefficients(t))


# ---------------------------------------------------------------------------
# Chern forms

def test_chern_zeroth_is_one():
    c = from_coefficients(identity_tensor(2, 2))
    f = chern_form(c, 0)
    assert f.bidegree == (0, 0)
    assert abs(f.get((), ()) - 1.0) < TOL


def test_chern_line_bundle():
    # rank 1: c_1 = (i/2pi) theta, so theta = 3 e^1 wedge conj(e^1) on C^1
    # integrates against the volume normalization to 3 / (2 pi)
    t = np.zeros((1, 1, 1, 1), dtype=complex)
    t[0, 0, 0, 0] = 3.0
    f = chern_form(from_coefficients(t), 1)
    assert abs(volume_coefficient(f) - 3.0 / (2.0 * math.pi)) < TOL


def test_chern_two_by_minors():
    # rank 2: c_2 = -(1/4pi^2)(T11 T22 - T12 T21)
    c = from_coefficients(hermitian_tensor(3, 2, RNG))
    t11, t12 = c.entry(0, 0), c.entry(0, 1)
    t21, t22 = c.entry(1, 0), c.entry(1, 1)
    want = (wedge(t11, t22) - wedge(t12, t21)) * (-1.0 / (4.0 * math.pi ** 2))
    assert close(chern_form(c, 2), want)


def test_chern_degree_bounds():
    c = from_coefficients(identity_tensor(2, 3))
    with pytest.raises(ValueError):
        chern_form(c, -1)
    with pytest.raises(ValueError):
        chern_form(c, 4)
    assert chern_form(c, 3).is_zero()  # degree above dim C^2


def test_chern_forms_are_real():
    for n, r in [(2, 2), (3, 3), (4, 2)]:
        c = from_coefficients(hermitian_tensor(n, r, RNG))
        for f in total_chern_forms(c):
            assert f.is_real(tol=1e-10)


def test_chern_matches_oracle():
    for n in (2, 3, 4):
        for r in (2, 3, 4):
            c = from_coefficients(hermitian_tensor(n, r, RNG))
            for k in range(min(n, r) + 1):
                a, b = chern_form(c, k), chern_form_oracle(c, k)
                assert close(a, b, 1e-10)


def test_whitney_sum_formula():
    # block-diagonal curvature multiplies total Chern forms
    n = 3
    ta = hermitian_tensor(n, 2, RNG)
    tb = hermitian_tensor(n, 1, RNG)
    t = np.zeros((3, 3, n, n), dtype=complex)
    t[:2, :2] = ta
    t[2:, 2:] = tb
    whole = from_coefficients(t)
    ca = total_chern_forms(from_coefficients(ta))
    cb = total_chern_forms(from_coefficients(tb))
    for k in range(min(3, n) + 1):
        acc = ExteriorForm.zero(n, k, k)
        for i in range(len(ca)):
            j = k - i
            if 0 <= j < len(cb):
                acc = acc + wedge(ca[i], cb[j])
        assert close(chern_form(whole, k), acc, 1e-11)


# ---------------------------------------------------------------------------
# Segre and Schur forms

def test_segre_series_inverts_chern():
    c = from_coefficients(hermitian_tensor(4, 3, RNG))
    chern = total_chern_forms(c)
    segre = [segre_form(c, k, chern) for k in range(c.n + 1)]
    for k in range(1, c.n + 1):
        acc = segre[k]
        for j in range(1, min(k, c.r) + 1):
            acc = acc + wedge(chern[j], segre[k - j])
        assert acc.max_abs() <= 1e-11 * max(1.0, segre[k].max_abs())


def test_segre_low_degrees():
    c = from_coefficients(hermitian_tensor(3, 2, RNG))
    c1, c2 = chern_form(c, 1), chern_form(c, 2)
    assert close(segre_form(c, 1), -c1)
    assert close(segre_form(c, 2), wedge(c1, c1) - c2)


def test_schur_form_fixtures():
    c = from_coefficients(hermitian_tensor(3, 3, RNG))
    c1, c2, c3 = (chern_form(c, k) for k in (1, 2, 3))
    assert close(schur_form(c, (2, 1, 0)), wedge(c1, c2) - c3, 1e-11)
    assert close(schur_form(c, (1, 1)), wedge(c1, c1) - c2, 1e-11)
    assert close(schur_form(c, (2,)), c2)
    with pytest.raises(ValueError):
        schur_form(c, (1, 2))


def test_schur_form_above_dimension_vanishes():
    c = from_coefficients(hermitian_tensor(2, 3, RNG))
    assert schur_form(c, (2, 1, 0)).is_zero()


def test_generalized_schur_fixtures():
    c = from_coefficients(hermitian_tensor(3, 3, RNG))
    # single-row sequences reduce to Segre forms
    for k in (0, 1, 2, 3):
        assert close(generalized_schur_form(c, (k,)), segre_form(c, k))
    # det for (1,1) is s1^2 - s2 = c2
    assert close(generalized_schur_form(c, (1, 1)), chern_form(c, 2), 1e-11)
    with pytest.raises(ValueError):
        generalized_schur_form(c, (-2, 1))


def partitions(w, largest=None):
    """Every partition of w, parts in decreasing order."""
    if w == 0:
        yield ()
        return
    for part in range(min(w, largest or w), 0, -1):
        for rest in partitions(w - part, part):
            yield (part,) + rest


def test_form_level_jacobi_trudi():
    # the s-alphabet determinant on the Segre forms against the c-alphabet
    # one on the Chern forms, for every partition that fits the dimension
    for n in range(1, 6):
        for r in range(1, 5):
            c = from_coefficients(hermitian_tensor(n, r, RNG))
            chern = total_chern_forms(c)
            segre = [segre_form(c, k, chern) for k in range(n + 1)]
            for w in range(n + 1):
                for sigma in partitions(w):
                    sign = -1.0 if w % 2 else 1.0
                    lhs = generalized_schur_form(c, sigma, segre)
                    rhs = schur_form(c, conjugate_partition(sigma), chern) * sign
                    assert close(lhs, rhs, 1e-10), (n, r, sigma)


def test_generalized_schur_far_indices_vanish_promptly():
    # s_l with l far above n must not size the exact alphabet
    c = from_coefficients(hermitian_tensor(3, 3, RNG))
    start = time.perf_counter()
    u = generalized_schur_form(c, (1_000_000_000, 1, -999_999_998))
    assert u.bidegree == (3, 3) and u.is_zero()
    assert time.perf_counter() - start < 5.0


def test_proof_identity_forms_rank3():
    # push-forward answer (-2,1,4) agrees with c1 c2 - c3 on actual curvature
    c = from_coefficients(hermitian_tensor(3, 3, RNG))
    lhs = generalized_schur_form(c, (-2, 1, 4))
    rhs = wedge(chern_form(c, 1), chern_form(c, 2)) - chern_form(c, 3)
    assert close(lhs, rhs, 1e-10)


# ---------------------------------------------------------------------------
# Griffiths energies

def test_energy_identity_tensor():
    c = from_coefficients(identity_tensor(3, 2))
    v = np.array([1.0, 0.0])
    tau = np.array([0.0, 1.0, 0.0])
    assert abs(griffiths_energy(c, v, tau) - 1.0) < TOL
    v2 = np.array([1.0, 1.0]) / math.sqrt(2)
    assert abs(griffiths_energy(c, v2, tau) - 1.0) < TOL


def test_energy_is_real_for_valid_points():
    c = from_coefficients(hermitian_tensor(3, 2, RNG))
    for _ in range(20):
        v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        tau = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        e = griffiths_energy(c, v, tau)
        assert abs(complex(e).imag) < 1e-10 * max(1.0, abs(e))


@pytest.mark.parametrize("field", ["random_starts", "local_iters"])
def test_search_budget_rejects_empty_searches(field):
    # a search with no starts or no steps would certify vacuously
    for value in (0, -1):
        with pytest.raises(ValueError, match=field):
            SearchBudget(**{field: value})
    assert getattr(SearchBudget(**{field: 1}), field) == 1


def test_minimum_identity_tensor():
    c = from_coefficients(identity_tensor(2, 2))
    rep = griffiths_minimum(c, SearchBudget(random_starts=8, local_iters=50))
    assert rep.status == SEMIPOSITIVE
    assert abs(rep.min_value - 1.0) < 1e-9


def test_minimum_planted_negative_direction():
    t = identity_tensor(2, 2)
    t[0, 0, 0, 0] = -1.0
    c = from_coefficients(t)
    assert validate(c) == []
    rep = griffiths_minimum(c, SearchBudget(random_starts=16, local_iters=100))
    assert rep.status == NEGATIVE_WITNESS
    assert rep.min_value <= -1.0 + 1e-9
    # the reported value is a true energy at the reported arguments
    replay = griffiths_energy(c, rep.argmin_v, rep.argmin_tau)
    assert abs(replay - rep.min_value) < 1e-9
    assert abs(np.linalg.norm(rep.argmin_v) - 1.0) < 1e-9
    assert abs(np.linalg.norm(rep.argmin_tau) - 1.0) < 1e-9


def test_dual_nakano_samples_are_semipositive():
    budget = SearchBudget(random_starts=12, local_iters=80)
    for i, (n, r) in enumerate([(2, 2), (3, 2), (3, 3), (4, 2), (2, 3)]):
        c = dual_nakano_sample(n, r, seed=100 + i)
        assert validate(c) == []
        rep = griffiths_minimum(c, budget)
        assert rep.min_value >= -1e-9
        for _ in range(10):
            v = RNG.normal(size=r) + 1j * RNG.normal(size=r)
            tau = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            assert griffiths_energy(c, v, tau).real >= -1e-10 * c.max_abs()


# ---------------------------------------------------------------------------
# Griffiths certificates: the dual Nakano matrix M1 and the Nakano matrix M2

def certificate_min_eigs(t):
    """lambda_min of M1[(a,j),(b,k)] and of M2[(a,k),(b,j)], both = t[a,b,j,k]."""
    r, _, n, _ = t.shape
    m1 = np.einsum("abjk->ajbk", t).reshape(r * n, r * n)
    m2 = np.einsum("abjk->akbj", t).reshape(r * n, r * n)
    return tuple(float(np.linalg.eigvalsh(m)[0]) for m in (m1, m2))


def choi_tensor(a, b, c):
    """t[p,q] = Phi(E_pq) for the generalized Choi map Phi[a,b,c] on 3 x 3.

    Phi(X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
                  b x11 + c x22 + a x33) - X
    is a positive map for a >= 1, a + b + c >= 3 and, if a <= 2,
    bc >= (2 - a)^2 (Cho-Kye-Lee 1992), so G(v, tau) = z^H Phi(w w^H) z >= 0
    with w = conj(v), z = conj(tau).
    """
    weights = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    t = np.zeros((3, 3, 3, 3), dtype=complex)
    for p in range(3):
        t[p, p] = np.diag(weights[:, p])
        for q in range(3):
            t[p, q, p, q] -= 1.0
    return t


def test_certificate_bound_is_an_energy_on_product_vectors():
    # -x x^H with x = v (x) conj(tau) gives lambda_min(M1) = -1 = G(v, tau),
    # so the certificate's bound is attained exactly where the docstring says
    for n, r in [(2, 2), (3, 2), (2, 3)]:
        v = RNG.normal(size=r) + 1j * RNG.normal(size=r)
        tau = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        v, tau = v / np.linalg.norm(v), tau / np.linalg.norm(tau)
        x = np.kron(v, tau.conj())
        t = -np.einsum("p,q->pq", x, x.conj()).reshape(r, n, r, n)
        c = from_coefficients(t.transpose(0, 2, 1, 3))
        assert validate(c) == []
        kind, lam = griffiths_certificate(c, tol=2.0)
        assert kind == DUAL_NAKANO
        assert abs(lam + 1.0) < 1e-12
        assert abs(griffiths_energy(c, v, tau) - lam) < 1e-12


def test_certificate_bounds_every_energy_from_below():
    budget = SearchBudget(random_starts=16, local_iters=100)
    for n, r in [(2, 2), (3, 3), (4, 2)]:
        c = from_coefficients(hermitian_tensor(n, r, RNG))
        kind, lam = griffiths_certificate(c, tol=np.inf)
        assert kind == DUAL_NAKANO
        assert lam <= griffiths_minimum(c, budget).min_value + 1e-12
        for _ in range(20):
            v = RNG.normal(size=r) + 1j * RNG.normal(size=r)
            tau = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            v, tau = v / np.linalg.norm(v), tau / np.linalg.norm(tau)
            assert griffiths_energy(c, v, tau) >= lam - 1e-12


def test_certificate_dual_nakano_sample_is_dual_nakano_only():
    c = dual_nakano_sample(3, 3, seed=7)
    m1, m2 = certificate_min_eigs(c.t)
    assert abs(m1) < 1e-12
    assert m2 < -8.0  # -8.82: A ^ conj(A)^t is not Nakano
    kind, lam = griffiths_certificate(c)
    assert kind == DUAL_NAKANO
    assert lam == pytest.approx(m1, abs=1e-12)


def test_certificate_partial_transpose_is_nakano_only():
    t = dual_nakano_sample(3, 3, seed=7).t.transpose(0, 1, 3, 2)
    c = from_coefficients(t)
    assert validate(c) == []
    m1, m2 = certificate_min_eigs(t)
    assert m1 < -8.0 and abs(m2) < 1e-12
    kind, lam = griffiths_certificate(c)
    assert kind == NAKANO
    assert lam == pytest.approx(m2, abs=1e-12)


@pytest.mark.parametrize("abc, mins", [((2.0, 0.0, 1.0), (-1.0, -0.618)),
                                       ((1.5, 1.0, 0.5), (-1.5, -0.281))])
def test_certificate_fails_on_choi_maps_and_the_search_decides(abc, mins):
    # Griffiths semipositive, but neither Nakano nor dual Nakano
    c = from_coefficients(choi_tensor(*abc))
    assert validate(c) == []
    assert certificate_min_eigs(c.t) == pytest.approx(mins, abs=1e-3)
    assert griffiths_certificate(c) is None
    fields = _griffiths_fields(c, SearchBudget())
    assert fields["griffiths_certificate"] == "search"
    assert fields["griffiths_status"] == SEMIPOSITIVE
    assert fields["griffiths_min"] >= -1e-9


def test_certificate_fails_on_indefinite_controls():
    for n, seed in [(3, 0), (4, 3), (5, 11)]:
        c, _ = indefinite_control(n, 3, seed=seed)
        assert griffiths_certificate(c) is None
        fields = _griffiths_fields(c, SearchBudget())
        assert fields["griffiths_certificate"] == "search"
        assert fields["griffiths_status"] == NEGATIVE_WITNESS
        assert fields["griffiths_min"] < -1e-9


def test_certificate_threshold_is_absolute_tol():
    tol = SearchBudget().tol
    for shift, certified in [(-0.5 * tol, True), (-2.0 * tol, False)]:
        t = identity_tensor(3, 2)
        t[1, 1, 2, 2] = shift  # M1 and M2 are both diagonal here
        c = from_coefficients(t)
        assert certificate_min_eigs(t) == pytest.approx((shift, shift), abs=1e-20)
        got = griffiths_certificate(c, tol)
        if certified:
            assert got[0] == DUAL_NAKANO
            assert got[1] == pytest.approx(shift, abs=1e-20)
        else:
            assert got is None
            assert griffiths_minimum(c).status == NEGATIVE_WITNESS
