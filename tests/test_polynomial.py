"""Exact polynomial ring: arithmetic laws, symmetrization, exact division."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.polynomial import (ExactDivisionError, SymPoly, antisymmetrize,
                                  complete_homogeneous, divide_exact,
                                  elementary_symmetric, permutation_sign,
                                  signed_permutations, vandermonde)


def poly_from_terms(nvars, terms):
    return SymPoly(nvars, {tuple(e): c for e, c in terms})


small_poly = st.builds(
    poly_from_terms,
    st.just(3),
    st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                 st.integers(0, 3)),
                       st.integers(-9, 9)), max_size=5))


def test_construction_rejects_bad_terms():
    with pytest.raises(ValueError):
        SymPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SymPoly(2, {(-1, 0): 1})
    with pytest.raises(TypeError):
        SymPoly(2, {(0, 0): 0.5})


def test_zero_terms_prune():
    p = SymPoly(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): 1}
    assert (p - p).is_zero()


def test_variable_and_monomial():
    x, y = SymPoly.variable(0, 2), SymPoly.variable(1, 2)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert SymPoly.monomial((2, 1), 3) == 3 * x * x * y


def test_pad_and_cross_alphabet_equality():
    x = SymPoly.variable(0, 1)
    assert x == SymPoly.variable(0, 3)
    assert x.pad(3).nvars == 3
    with pytest.raises(ValueError):
        x.pad(0)


@settings(max_examples=80, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + SymPoly.zero(3) == a
    assert a * SymPoly.one(1) == a


def test_substitute_single_variable():
    p = SymPoly.monomial((2,)) + SymPoly.monomial((1,), 3) + SymPoly.const(1, 5)
    x, y = SymPoly.variable(0, 2), SymPoly.variable(1, 2)
    q = p.substitute([x + y])
    want = (x + y) ** 2 + 3 * (x + y) + 5
    assert q == want


def test_permute_variables():
    p = SymPoly.monomial((2, 1, 0))
    q = p.permute_variables([2, 0, 1])  # x1 -> slot 2, x2 -> slot 0, x3 -> slot 1
    assert q == SymPoly.monomial((1, 0, 2))
    with pytest.raises(ValueError):
        p.permute_variables([0, 0, 1])


def test_antisymmetrize_staircase_is_vandermonde():
    for r in (2, 3):
        delta = tuple(range(r - 1, -1, -1))
        assert antisymmetrize(SymPoly.monomial(delta)) == vandermonde(r)


def test_antisymmetrize_kills_symmetric_monomials():
    assert antisymmetrize(SymPoly.monomial((1, 1))).is_zero()
    assert antisymmetrize(SymPoly.monomial((2, 2, 0)) +
                          SymPoly.monomial((2, 0, 2))).is_zero()


def test_divide_exact_round_trip():
    x, y, z = (SymPoly.variable(i, 3) for i in range(3))
    num = (x - y) * (x * x + 3 * y * z - z * z + 7)
    assert divide_exact(num, x - y) == x * x + 3 * y * z - z * z + 7
    q = divide_exact(vandermonde(3) * (x + y + z), vandermonde(3))
    assert q == x + y + z


def test_divide_exact_raises_on_remainder():
    x, y = SymPoly.variable(0, 2), SymPoly.variable(1, 2)
    with pytest.raises(ExactDivisionError):
        divide_exact(x * x + 1, x - y)
    with pytest.raises(ExactDivisionError):
        divide_exact(2 * x + 1, 2 * x)  # coefficient not divisible
    with pytest.raises(ZeroDivisionError):
        divide_exact(x, SymPoly.zero(2))


def test_elementary_symmetric_brute_force():
    n = 4
    for k in range(n + 1):
        got = elementary_symmetric(k, n)
        want = SymPoly.zero(n)
        for combo in itertools.combinations(range(n), k):
            e = [0] * n
            for i in combo:
                e[i] = 1
            want = want + SymPoly.monomial(tuple(e))
        assert got == want
    assert elementary_symmetric(5, 4).is_zero()


def test_complete_homogeneous_brute_force():
    # h_k = sum over multisets; count terms against stars and bars
    h = complete_homogeneous(3, 2)
    assert len(h.terms) == 4
    assert all(c == 1 for c in h.terms.values())
    assert all(sum(e) == 3 for e in h.terms)
    assert complete_homogeneous(0, 3) == SymPoly.one(3)
    assert complete_homogeneous(-1, 3).is_zero()


def test_newton_identity_degree_two():
    # h2 - e1 h1 + e2 = 0
    n = 3
    h1, h2 = complete_homogeneous(1, n), complete_homogeneous(2, n)
    e1, e2 = elementary_symmetric(1, n), elementary_symmetric(2, n)
    assert (h2 - e1 * h1 + e2).is_zero()


def test_pretty_print():
    x, y = SymPoly.variable(0, 2), SymPoly.variable(1, 2)
    s = (x * x - 2 * y).pretty(["x", "y"])
    assert "x^2" in s and "2*y" in s
    assert SymPoly.zero(2).pretty() == "0"


def test_permutation_sign_matches_inversion_count():
    for k in range(6):
        perms = list(itertools.permutations(range(k)))
        for perm in perms:
            inversions = sum(perm[i] > perm[j]
                             for i, j in itertools.combinations(range(k), 2))
            assert permutation_sign(perm) == (-1) ** inversions
        assert signed_permutations(k) == tuple((w, permutation_sign(w)) for w in perms)


# ---------------------------------------------------------------------------
# internal results skip the mapping constructor's checks

def reread(p):
    """p read back through the checked mapping constructor."""
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    assert all(len(e) == p.nvars and all(type(x) is int and x >= 0 for x in e)
               for e in p.terms)
    return SymPoly(p.nvars, p.terms)


@settings(max_examples=80, deadline=None)
@given(small_poly, small_poly, st.integers(0, 3), st.permutations(range(3)))
def test_unchecked_results_equal_their_checked_reading(a, b, k, perm):
    before = (dict(a.terms), dict(b.terms))
    one = SymPoly.one(3)
    results = [a + b, a - b, a * b, a ** k, -a, 3 * a, 0 * a, a + 2, 2 - a,
               a.pad(5), a.permute_variables(perm), antisymmetrize(a),
               a.substitute([b, b * b, one]), a.substitute([one, a, SymPoly.zero(3)]),
               SymPoly.zero(3).substitute([a, b, one])]
    if not b.is_zero():
        quotient = divide_exact(a * b, b)
        assert quotient == a
        results.append(quotient)
    for p in results:
        checked = reread(p)
        assert (checked.nvars, checked.terms) == (p.nvars, p.terms)
    assert (a.terms, b.terms) == before


def test_cached_basis_polynomials_survive_arithmetic():
    h, e, v = complete_homogeneous(3, 3), elementary_symmetric(2, 3), vandermonde(3)
    before = [dict(q.terms) for q in (h, e, v)]
    x = SymPoly.variable(0, 3)
    for q in (h, e, v):
        _ = [q + x, x + q, q - q, -q, 2 * q, q * x, q ** 2, q.pad(4),
             q.permute_variables([2, 0, 1]), antisymmetrize(q),
             q.substitute([x, x, x]), divide_exact(q * x, x)]
    _ = [SymPoly.monomial((2, 1)).substitute([h, e]), divide_exact(v * h, v)]
    assert complete_homogeneous(3, 3) is h and elementary_symmetric(2, 3) is e
    assert vandermonde(3) is v
    assert [q.terms for q in (h, e, v)] == before
