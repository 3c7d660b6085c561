"""Exterior algebra: frozen examples plus independent evaluation oracles.

The oracles here recompute wedge signs by bubble sort and pairings by a full
permutation sum, sharing no code path with the library's merge/determinant
implementations.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.exterior import (DimensionMismatch, ExteriorForm, NotReal,
                                NotTopDegree, decomposable, evaluate_pairing,
                                hermitian_gram, hermitian_one_one, ipow,
                                merge_table, multi_indices, one_form,
                                one_one_matrix, plucker, top_coefficient,
                                volume_coefficient, wedge, wedge_all)

RNG = np.random.default_rng(20240811)
TOL = 1e-12


# ---------------------------------------------------------------------------
# independent oracles

def _sort_sign(seq):
    """Bubble-sort parity; (0, None) on repeated indices."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return 0, None
    return sign, tuple(seq)


def wedge_oracle(u, v):
    """Concatenate index blocks, sort by adjacent swaps, track the Koszul sign."""
    out = {}
    for (I1, J1), c1 in u.items():
        for (I2, J2), c2 in v.items():
            s1, I = _sort_sign(I1 + I2)
            if s1 == 0:
                continue
            s2, J = _sort_sign(J1 + J2)
            if s2 == 0:
                continue
            cross = -1 if (len(J1) * len(I2)) % 2 else 1
            key = (I, J)
            out[key] = out.get(key, 0) + s1 * s2 * cross * c1 * c2
    return ExteriorForm(u.n, u.p + v.p, u.q + v.q,
                        {k: c for k, c in out.items() if c != 0})


def pairing_oracle(u, vectors):
    """(-i)^{p^2} u(w_1..w_p, conj(w_1)..conj(w_p)) by a raw permutation sum.

    Each basis covector is evaluated argument by argument: e^i sees only the
    holomorphic slots, ebar^j only the conjugated ones.
    """
    p = u.p
    ws = [np.asarray(w, dtype=complex) for w in vectors]
    m = 2 * p
    total = 0.0 + 0.0j
    for (I, J), c in u.items():
        def cov(t, arg):
            if t < p:
                return ws[arg][I[t] - 1] if arg < p else 0.0
            return np.conj(ws[arg - p][J[t - p] - 1]) if arg >= p else 0.0

        val = 0.0 + 0.0j
        for perm in itertools.permutations(range(m)):
            sign, _ = _sort_sign(tuple(perm[t] + 1 for t in range(m)))
            term = sign
            for t in range(m):
                term = term * cov(t, perm[t])
                if term == 0:
                    break
            val += term
        total += c * val
    return ipow(-p * p) * total


def random_form(n, p, q, terms=3, rng=RNG):
    coeffs = {}
    Is = multi_indices(n, p)
    Js = multi_indices(n, q)
    for _ in range(terms):
        I = Is[rng.integers(len(Is))]
        J = Js[rng.integers(len(Js))]
        coeffs[(I, J)] = complex(rng.standard_normal(), rng.standard_normal())
    return ExteriorForm(n, p, q, coeffs)


def random_real_form(n, p, rng=RNG):
    w = random_form(n, p, p, terms=4, rng=rng)
    return w + w.conjugate()


def unit_vectors(n, p, rng=RNG):
    ws = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    return [w / np.linalg.norm(w) for w in ws]


# ---------------------------------------------------------------------------
# construction and basic algebra

def test_basis_wedge_squares_to_zero():
    e1 = one_form([1, 0])
    assert wedge(e1, e1).is_zero()


def test_basis_wedge_mixed_coefficient():
    e1 = one_form([1, 0])
    u = wedge(e1, e1.conjugate())
    assert u.bidegree == (1, 1)
    assert u.get((1,), (1,)) == pytest.approx(1.0)


def test_wedge_of_nondecomposable_square():
    # (e12 + e34) ^ (e12 + e34) = 2 e1234
    xi = decomposable([[1, 0, 0, 0], [0, 1, 0, 0]]) + \
        decomposable([[0, 0, 1, 0], [0, 0, 0, 1]])
    sq = wedge(xi, xi)
    assert sq.get((1, 2, 3, 4), ()) == pytest.approx(2.0)
    assert len(list(sq.items())) == 1


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(one_form([1, 0]), one_form([1, 0, 0]))


def test_wedge_overflow_is_annihilated_zero():
    e1 = one_form([1])
    out = wedge(wedge(e1, e1.conjugate()), e1)
    assert out.is_zero()
    assert out.bidegree == (1, 1)


def test_conjugate_examples():
    e1 = one_form([1, 0])
    u = wedge(e1, e1.conjugate()) * 1j
    assert (u.conjugate() - u).max_abs() < TOL
    assert e1.conjugate().bidegree == (0, 1)
    e12 = decomposable([[1, 0], [0, 1]]) * (2 + 3j)
    c = e12.conjugate()
    assert c.bidegree == (0, 2)
    assert c.get((), (1, 2)) == pytest.approx(2 - 3j)


def test_is_real_examples():
    e1, e2 = one_form([1, 0]), one_form([0, 1])
    assert (wedge(e1, e1.conjugate()) * 1j).is_real()
    assert not wedge(e1, e2.conjugate()).is_real()
    u = (wedge(e1, e2.conjugate()) + wedge(e2, e1.conjugate())) * 1j
    assert u.is_real()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_wedge_matches_bubble_sort_oracle(seed, n):
    rng = np.random.default_rng(seed)
    p1, q1 = rng.integers(0, n + 1, size=2)
    p2, q2 = rng.integers(0, n - p1 + 1), rng.integers(0, n - q1 + 1)
    u = random_form(n, p1, q1, rng=rng)
    v = random_form(n, p2, q2, rng=rng)
    got = wedge(u, v)
    want = wedge_oracle(u, v)
    assert (got - want).max_abs() < TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_wedge_graded_anticommutativity(seed):
    rng = np.random.default_rng(seed)
    n = 4
    u = random_form(n, 1, 1, rng=rng)
    v = random_form(n, 2, 1, rng=rng)
    sign = (-1) ** ((u.p + u.q) * (v.p + v.q))
    assert (wedge(u, v) - wedge(v, u) * sign).max_abs() < TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_conjugate_involution_and_multiplicativity(seed):
    rng = np.random.default_rng(seed)
    n = 3
    u = random_form(n, 2, 1, rng=rng)
    v = random_form(n, 1, 1, rng=rng)
    assert (u.conjugate().conjugate() - u).max_abs() < TOL
    lhs = wedge(u, v).conjugate()
    rhs = wedge(u.conjugate(), v.conjugate())
    assert (lhs - rhs).max_abs() < TOL


def test_decomposable_examples():
    u = decomposable([[1, 0], [0, 1]])
    assert u.get((1, 2), ()) == pytest.approx(1.0)
    assert decomposable([[1, 0], [1, 0]]).is_zero()
    v = decomposable([[1, 1], [0, 1]])
    assert v.get((1, 2), ()) == pytest.approx(1.0)
    assert len(list(v.items())) == 1


def test_decomposable_accepts_an_array_of_factors():
    rng = np.random.default_rng(11)
    W = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    u = decomposable(W)
    assert u.bidegree == (3, 0)
    assert np.array_equal(u.array, decomposable([list(w) for w in W]).array)
    with pytest.raises(ValueError):
        decomposable(np.zeros((0, 5)))


# ---------------------------------------------------------------------------
# volume normalization and pairings

def test_volume_coefficient_unit():
    e1, e2 = one_form([1, 0]), one_form([0, 1])
    v = wedge(wedge(e1, e1.conjugate()) * 1j, wedge(e2, e2.conjugate()) * 1j)
    assert volume_coefficient(v) == pytest.approx(1.0)
    assert volume_coefficient(ExteriorForm.zero(2, 2, 2)) == 0.0


def test_volume_coefficient_scaled_n1():
    e1 = one_form([1])
    assert volume_coefficient(wedge(e1, e1.conjugate()) * 2j) == pytest.approx(2.0)


def test_volume_coefficient_errors():
    e1 = one_form([1, 0])
    with pytest.raises(NotTopDegree):
        volume_coefficient(wedge(e1, e1.conjugate()))
    bad = decomposable([[1, 0], [0, 1]])
    bad = wedge(bad, bad.conjugate()) * (1 + 1j)
    with pytest.raises(NotReal):
        volume_coefficient(bad)


def test_pairing_frozen_examples():
    e1 = one_form([1, 0, 0])
    u = wedge(e1, e1.conjugate()) * 1j
    assert evaluate_pairing(u, [np.array([1, 0, 0])]) == pytest.approx(1.0)
    assert evaluate_pairing(u, [np.array([0, 1, 0])]) == pytest.approx(0.0)
    e2 = one_form([0, 1, 0])
    uu = wedge(u, wedge(e2, e2.conjugate()) * 1j)
    val = evaluate_pairing(uu, [np.array([1, 0, 0]), np.array([0, 1, 0])])
    assert val == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_pairing_matches_permutation_oracle(seed, p):
    rng = np.random.default_rng(seed)
    n = 4
    u = random_real_form(n, p, rng=rng)
    ws = unit_vectors(n, p, rng=rng)
    got = evaluate_pairing(u, ws)
    want = pairing_oracle(u, ws)
    assert abs(want.imag) < 1e-9
    assert got == pytest.approx(want.real, abs=1e-10)


def test_pairing_arity_and_reality_checks():
    u = hermitian_one_one(np.eye(2))
    with pytest.raises(ValueError):
        evaluate_pairing(u, [])
    skew = one_form([1, 0])
    skew = wedge(skew, one_form([0, 1]).conjugate())
    with pytest.raises(NotReal):
        evaluate_pairing(skew, [np.array([1, 0])])


# ---------------------------------------------------------------------------
# hermitian gram

def test_gram_frozen_examples():
    e1 = one_form([1])
    u = wedge(e1, e1.conjugate()) * 1j
    G, basis = hermitian_gram(u)
    assert basis == [()]
    assert G == pytest.approx(np.array([[1.0]]))

    e1, e2 = one_form([1, 0]), one_form([0, 1])
    u = wedge(e1, e1.conjugate()) * 1j
    G, basis = hermitian_gram(u)
    assert basis == [(1,), (2,)]
    assert G == pytest.approx(np.diag([0.0, 1.0]))

    G, basis = hermitian_gram(ExteriorForm.scalar(2, 1.0))
    assert basis == [(1, 2)]
    assert G == pytest.approx(np.array([[1.0]]))


def gram_oracle(u):
    """The Gram matrix entry by entry, through two wedges and the volume."""
    n = u.n
    q = n - u.p
    basis = multi_indices(n, q)
    G = np.zeros((len(basis), len(basis)), dtype=complex)
    for a, I in enumerate(basis):
        left = u.wedge(ExteriorForm.basis(n, I, ())) * ipow(q * q)
        for b, J in enumerate(basis):
            eta = ExteriorForm.basis(n, J, ()).conjugate()
            G[a, b] = top_coefficient(left.wedge(eta))
    return 0.5 * (G + G.conj().T)


@pytest.mark.parametrize("n", range(6))
def test_gram_matches_wedge_oracle(n):
    rng = np.random.default_rng(60 + n)
    for p in range(n + 1):
        u = random_real_form(n, p, rng=rng)
        G, basis = hermitian_gram(u)
        assert basis == multi_indices(n, n - p)
        assert np.array_equal(G, gram_oracle(u))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_gram_of_squares_is_psd(seed, p):
    rng = np.random.default_rng(seed)
    n = 4
    xi = random_form(n, p, 0, terms=3, rng=rng)
    u = wedge(xi, xi.conjugate()) * ipow(p * p)
    assert u.is_real()
    G, _ = hermitian_gram(u)
    lam = np.linalg.eigvalsh(G)
    assert lam.min() >= -1e-10 * max(1.0, xi.max_abs() ** 2)


def test_positive_diagonal_wedge_has_positive_volume():
    n = 3
    parts = []
    for j in range(n):
        m = np.zeros((n, n))
        m[j, j] = float(j + 1)
        parts.append(hermitian_one_one(m))
    assert volume_coefficient(wedge_all(parts)) > 0


def test_one_one_matrix_round_trip():
    m = np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]])
    assert one_one_matrix(hermitian_one_one(m)) == pytest.approx(m)


# ---------------------------------------------------------------------------
# dense storage: the mapping constructor, the read-back views, the tables

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 6))
def test_wedge_matches_bubble_sort_oracle_large_n(seed, n):
    rng = np.random.default_rng(seed)
    p1, q1 = rng.integers(0, n + 1, size=2)
    p2, q2 = rng.integers(0, n - p1 + 1), rng.integers(0, n - q1 + 1)
    u = random_form(n, p1, q1, terms=8, rng=rng)
    v = random_form(n, p2, q2, terms=8, rng=rng)
    assert (wedge(u, v) - wedge_oracle(u, v)).max_abs() < TOL


@pytest.mark.parametrize("n, left, right", [
    (5, (2, 0), (1, 3)), (6, (2, 0), (1, 3)), (6, (0, 3), (2, 1)),
    (6, (3, 1), (2, 2)), (6, (1, 2), (4, 0)), (4, (1, 3), (2, 0)),
])
def test_wedge_matches_oracle_on_mixed_bidegrees(n, left, right):
    rng = np.random.default_rng(sum(left) * 10 + sum(right) + n)
    u = random_form(n, *left, terms=30, rng=rng)
    v = random_form(n, *right, terms=30, rng=rng)
    got = wedge(u, v)
    assert got.bidegree == (left[0] + right[0], left[1] + right[1])
    assert (got - wedge_oracle(u, v)).max_abs() < TOL


def test_wedge_overflow_of_nonzero_forms_is_annihilated_zero():
    rng = np.random.default_rng(3)
    u = random_form(3, 2, 2, terms=6, rng=rng)
    v = random_form(3, 2, 1, terms=6, rng=rng)
    out = wedge(u, v)
    assert out.is_zero()
    assert out.bidegree == (3, 3)
    assert not wedge(u, random_form(3, 1, 1, rng=rng)).is_zero()


@pytest.mark.parametrize("key", [
    ((1, 2), (1,)),   # wrong length
    ((0,), (1,)),     # out of range
    ((4,), (1,)),
    ((1,), (3, 2)),   # wrong length for q = 1
])
def test_mapping_constructor_rejects_bad_multi_indices(key):
    with pytest.raises(ValueError, match="multi-index"):
        ExteriorForm(3, 1, 1, {key: 1.0})


def test_mapping_constructor_rejects_unsorted_multi_indices():
    with pytest.raises(ValueError, match="not strictly increasing"):
        ExteriorForm(3, 2, 0, {((2, 1), ()): 1.0})
    with pytest.raises(ValueError, match="not strictly increasing"):
        ExteriorForm(3, 2, 0, {((2, 2), ()): 1.0})


def test_mapping_constructor_sums_duplicate_keys():
    # two keys that normalise to the same multi-index pair
    u = ExteriorForm(3, 1, 1, {((1,), (2,)): 1.0, (("1",), ("2",)): 2.5j})
    assert u.get((1,), (2,)) == 1.0 + 2.5j
    assert len(u.coeffs) == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e999,
                                   complex(0.0, float("-inf"))])
def test_mapping_constructor_rejects_non_finite(value):
    with pytest.raises(ValueError, match="not finite"):
        ExteriorForm(2, 1, 1, {((1,), (1,)): 1.0, ((2,), (1,)): value})


def test_items_are_sorted_nonzero_entries():
    rng = np.random.default_rng(11)
    for p, q in [(0, 0), (1, 2), (2, 1), (2, 2), (3, 0)]:
        u = random_form(4, p, q, terms=10, rng=rng)
        keys = [k for k, _ in u.items()]
        assert keys == sorted(keys)
        assert all(c != 0 for _, c in u.items())
        want = [(I, J) for I in multi_indices(4, p) for J in multi_indices(4, q)
                if u.get(I, J) != 0]
        assert keys == want


def test_coeffs_is_a_read_only_view_of_the_nonzero_entries():
    rng = np.random.default_rng(12)
    u = random_form(5, 2, 2, terms=7, rng=rng)
    assert len(u.coeffs) == np.count_nonzero(u.array) == len(u.items())
    assert dict(u.coeffs) == dict(u.items())
    with pytest.raises(TypeError):
        u.coeffs[((1, 2), (1, 2))] = 1.0
    assert len(ExteriorForm.zero(5, 2, 2).coeffs) == 0


def test_array_layout_follows_multi_indices():
    u = ExteriorForm(4, 2, 1, {((2, 4), (3,)): 5.0})
    assert u.array.shape == (6, 4)
    assert u.array[multi_indices(4, 2).index((2, 4)), 2] == 5.0
    assert np.count_nonzero(u.array) == 1


def test_merge_tables_are_cached_and_read_only():
    H = merge_table(5, 2, 1)
    assert merge_table(5, 2, 1) is H
    assert H.shape == (10, 10 * 5)
    assert not H.flags.writeable
    # every column is either one signed unit or empty
    assert set(np.abs(H).sum(axis=0)) <= {0.0, 1.0}


@pytest.mark.parametrize("n, p", [(3, 1), (4, 2), (5, 3), (6, 2)])
def test_plucker_matches_decomposable_and_minors(n, p):
    rng = np.random.default_rng(n * 10 + p)
    W = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    got = plucker(W[None])[0]
    alpha = decomposable([list(w) for w in W])
    for a, I in enumerate(multi_indices(n, p)):
        minor = np.linalg.det(W[:, [i - 1 for i in I]])
        assert got[a] == pytest.approx(minor, abs=1e-12)
        assert got[a] == pytest.approx(alpha.get(I, ()), abs=1e-12)
