"""Schur calculus: determinantal rules, push-forwards, and their oracles.

Everything here is exact integer arithmetic.  The classical bialternant
(antisymmetrized staircase over Vandermonde) serves as the independent
reference for Schur polynomials in root variables.
"""

import itertools

import pytest

from chernweil.polynomial import SymPoly, antisymmetrize, divide_exact, vandermonde
from chernweil.schur import (FlagType, _det, complete_flag_oracle,
                             conjugate_partition, dp_nu, dp_pushforward,
                             enumerate_partitions, expand_in_roots,
                             gschur_in_chern, gschur_in_segre, is_partition,
                             jacobi_trudi_check, projective_oracle,
                             schur_in_chern, segre_in_chern, segre_to_chern)


def c_var(i, r):
    """c_{i} in the rank-r Chern alphabet (1-based)."""
    return SymPoly.variable(i - 1, r)


def bialternant(lam, r):
    """Classical Schur polynomial s_lam(x_1..x_r) = a_{lam+delta} / a_delta."""
    lam = tuple(lam) + (0,) * (r - len(lam))
    delta = tuple(range(r - 1, -1, -1))
    num = antisymmetrize(SymPoly.monomial(tuple(l + d for l, d in zip(lam, delta))))
    return divide_exact(num, vandermonde(r))


# ---------------------------------------------------------------------------
# partitions

def test_enumerate_partitions_examples():
    assert set(enumerate_partitions(2, 2)) == {(2, 0), (1, 1)}
    assert set(enumerate_partitions(3, 3)) == {(3, 0, 0), (2, 1, 0), (1, 1, 1)}


def test_enumerate_partitions_counts_match_brute_force():
    for k in range(7):
        for r in range(1, 5):
            brute = {
                lam for lam in itertools.product(range(r + 1), repeat=k)
                if sum(lam) == k and all(a >= b for a, b in zip(lam, lam[1:]))
            }
            assert set(enumerate_partitions(k, r)) == brute


def test_conjugate_partition_examples():
    assert conjugate_partition((2, 1, 0)) == (2, 1)
    assert conjugate_partition((1, 1, 1)) == (3,)
    with pytest.raises(ValueError):
        conjugate_partition((1, 2))


def test_conjugate_is_involution():
    for k in range(1, 7):
        for r in range(1, 5):
            for sigma in enumerate_partitions(k, r):
                back = conjugate_partition(conjugate_partition(sigma))
                trimmed = tuple(x for x in sigma if x)
                assert back == trimmed


def test_is_partition():
    assert is_partition((3, 1, 0))
    assert is_partition(())
    assert not is_partition((1, 2))
    assert not is_partition((1, -1))


# ---------------------------------------------------------------------------
# determinantal Schur and Segre polynomials

def test_schur_in_chern_frozen():
    r = 3
    assert schur_in_chern((2, 1, 0), r) == c_var(1, r) * c_var(2, r) - c_var(3, r)
    assert schur_in_chern((1, 1), r) == c_var(1, r) ** 2 - c_var(2, r)
    for k in range(1, r + 1):
        assert schur_in_chern((k,) + (0,) * (r - 1), r) == c_var(k, r)


def test_schur_hook_shape():
    # S_{(k-1,1)} = c_1 c_{k-1} - c_k
    r = 4
    for k in (2, 3, 4):
        got = schur_in_chern((k - 1, 1), r)
        assert got == c_var(1, r) * c_var(k - 1, r) - c_var(k, r)


def test_schur_vanishes_when_part_exceeds_rank():
    # a part above r zeroes out the whole first row of the determinant
    assert schur_in_chern((3,), 2).is_zero()
    assert schur_in_chern((4, 1), 3).is_zero()
    # long columns are fine: (1,1,1) at rank 2 is h_3 of the roots
    r = 2
    got = schur_in_chern((1, 1, 1), r)
    assert got == c_var(1, r) ** 3 - 2 * c_var(1, r) * c_var(2, r)


def test_segre_in_chern_low_degrees():
    r = 3
    assert segre_in_chern(0, r) == SymPoly.one(r)
    assert segre_in_chern(1, r) == -c_var(1, r)
    assert segre_in_chern(2, r) == c_var(1, r) ** 2 - c_var(2, r)


def test_chern_segre_series_inverse():
    # sum_{j} c_j s_{k-j} = 0 for k >= 1 (c_0 = s_0 = 1)
    r = 4
    for k in range(1, 7):
        acc = segre_in_chern(k, r)
        for j in range(1, min(k, r) + 1):
            acc = acc + c_var(j, r) * segre_in_chern(k - j, r)
        assert acc.is_zero()


def test_gschur_single_entry():
    for k in (0, 1, 3):
        got = gschur_in_segre((k,))
        want = SymPoly.one(1) if k == 0 else SymPoly.variable(k - 1, k)
        assert got == want


def test_gschur_examples_by_hand():
    # s_(1,1) = s1^2 - s2, which equals c2
    p = gschur_in_segre((1, 1))
    s1, s2 = SymPoly.variable(0, 2), SymPoly.variable(1, 2)
    assert p == s1 * s1 - s2
    assert segre_to_chern(p, 3) == c_var(2, 3)
    # s_(-1,1) is the constant -1
    assert gschur_in_segre((-1, 1)) == SymPoly.const(1, -1)


def test_gschur_truncation_bounds_the_alphabet():
    # (1,4) cut at s_3: det [[s1, s2], [s3, 0]] = -s2 s3, in three slots
    s2, s3 = SymPoly.variable(1, 3), SymPoly.variable(2, 3)
    got = gschur_in_segre((1, 4), truncate=3)
    assert got.nvars == 3 and got == -(s2 * s3)


def full_jacobi_trudi(sigma, nvars, top):
    """det(x_{sigma_i + j - i}) over every row of sigma, trailing zero parts
    included: x_0 = 1, x_l is slot l - 1 for 1 <= l <= top, 0 otherwise."""
    def entry(i, j):
        l = sigma[i] + j - i
        if l == 0:
            return SymPoly.one(nvars)
        if l < 0 or l > top:
            return SymPoly.zero(nvars)
        return SymPoly.variable(l - 1, nvars)

    k = len(sigma)
    return _det([[entry(i, j) for j in range(k)] for i in range(k)], nvars)


@pytest.mark.parametrize("sigma", [(), (1,), (2, 1), (3, 1, 1), (2, 2)])
def test_trailing_zero_parts_leave_schur_in_chern_unchanged(sigma):
    r = 3
    for m in (1, 3):
        padded = sigma + (0,) * m
        assert schur_in_chern(padded, r) == schur_in_chern(sigma, r)
        assert schur_in_chern(padded, r) == full_jacobi_trudi(padded, r, r)


@pytest.mark.parametrize("sigma", [(), (2,), (2, 1), (-2, 1, 4), (1, 0, -1), (0, 3)])
def test_trailing_zero_parts_leave_gschur_in_segre_unchanged(sigma):
    for m in (1, 3):
        padded = sigma + (0,) * m
        top = max(x + len(padded) - 1 - i for i, x in enumerate(padded))
        assert gschur_in_segre(padded) == gschur_in_segre(sigma)
        assert gschur_in_segre(padded) == full_jacobi_trudi(padded, top, top)
        for cut in (1, 2, 3):
            got = gschur_in_segre(padded, truncate=cut)
            assert got == gschur_in_segre(sigma, truncate=cut)
            assert got == full_jacobi_trudi(padded, cut, cut)


def test_proof_identity_rank3():
    got = segre_to_chern(gschur_in_segre((-2, 1, 4)), 3)
    assert got == c_var(1, 3) * c_var(2, 3) - c_var(3, 3)


def test_proof_identity_rank2():
    got = segre_to_chern(gschur_in_segre((1, 4)), 2)
    assert got == c_var(1, 2) * c_var(2, 2) ** 2


def test_jacobi_trudi_examples():
    assert jacobi_trudi_check((1,), 3)
    assert jacobi_trudi_check((1, 1), 4)
    assert jacobi_trudi_check((3, 2, 1), 3)
    with pytest.raises(ValueError):
        jacobi_trudi_check((1, 2), 3)


def test_gschur_in_chern_matches_signed_schur():
    sigma = (2, 2)
    r = 3
    sign = (-1) ** sum(sigma)
    assert gschur_in_chern(sigma, r) == \
        sign * schur_in_chern(conjugate_partition(sigma), r)


# ---------------------------------------------------------------------------
# flag types and push-forwards

def test_flag_type_validation():
    with pytest.raises(ValueError):
        FlagType((1, 2))
    with pytest.raises(ValueError):
        FlagType((0, 2, 2))
    f = FlagType((0, 1, 3))
    assert f.r == 3 and f.m == 2
    assert f.relative_dimension == 2
    assert FlagType.complete(3).relative_dimension == 3


def test_dp_nu_frozen():
    assert dp_nu(FlagType.complete(3)) == (0, 1, 2)
    assert dp_nu(FlagType((0, 1, 3))) == (0, 0, 2)
    assert dp_nu(FlagType((0, 4))) == (0, 0, 0, 0)
    # nu always sums to the relative dimension
    for rho in [(0, 1, 2, 3), (0, 2, 3), (0, 1, 4), (0, 2, 4)]:
        f = FlagType(rho)
        assert sum(dp_nu(f)) == f.relative_dimension


def test_pushforward_proof_monomials():
    assert dp_pushforward(SymPoly.monomial((4, 2, 0)), FlagType.complete(3)) == \
        gschur_in_segre((-2, 1, 4))
    assert dp_pushforward(SymPoly.monomial((4, 2)), FlagType.complete(2)) == \
        gschur_in_segre((1, 4))
    assert dp_pushforward(SymPoly.variable(0, 2), FlagType.complete(2)) == \
        SymPoly.const(1, -1)


def test_pushforward_requires_block_symmetry():
    f = FlagType((0, 1, 3))  # first two roots form one block
    with pytest.raises(ValueError):
        dp_pushforward(SymPoly.variable(0, 3), f)
    sym = SymPoly.monomial((1, 1, 0))
    dp_pushforward(sym, f)  # symmetric in the block: fine


def segre_weight(poly):
    """Weighted degree where the i-th variable stands for s_i (weight i)."""
    weights = set()
    for exps in poly.terms:
        weights.add(sum(e * (i + 1) for i, e in enumerate(exps)))
    assert len(weights) == 1, "expected homogeneous output"
    return weights.pop()


def test_pushforward_degree_bookkeeping():
    f = FlagType.complete(3)
    d = f.relative_dimension
    for lam in [(3, 2, 1), (4, 2, 0), (5, 1, 1), (2, 2, 2)]:
        out = dp_pushforward(SymPoly.monomial(lam), f)
        if not out.is_zero():
            assert segre_weight(out) == sum(lam) - d
    # below the fiber dimension everything dies
    assert dp_pushforward(SymPoly.monomial((1, 1, 0)), f).is_zero()


def test_complete_flag_oracle_frozen():
    assert complete_flag_oracle(SymPoly.variable(0, 2), 2) == SymPoly.const(2, -1)
    assert complete_flag_oracle(SymPoly.monomial((1, 1)), 2).is_zero()


def test_oracle_headline_case():
    got = complete_flag_oracle(SymPoly.monomial((4, 2, 0)), 3)
    want = expand_in_roots(gschur_in_segre((-2, 1, 4)), 3, "s")
    assert got == want


def test_oracle_equivalence_sweep_small():
    # the acceptance suite runs the full sweep; spot-check rank 2 and 3 here
    for r in (2, 3):
        flag = FlagType.complete(r)
        d = flag.relative_dimension
        for k in (0, 1, 2):
            for lam in itertools.product(range(d + k + 1), repeat=r):
                if sum(lam) != d + k:
                    continue
                p = SymPoly.monomial(lam)
                left = expand_in_roots(dp_pushforward(p, flag), r, "s")
                assert left == complete_flag_oracle(p, r)


def test_oracle_equivalence_rank5_spot_check():
    # the CLI reaches rank 5 only with --rank 5; cover that path here on a
    # handful of monomials of excess 0 and 1
    r = 5
    flag = FlagType.complete(r)
    assert complete_flag_oracle(SymPoly.monomial((4, 3, 2, 1, 0)), r) == 1
    for lam in [(4, 3, 2, 1, 0), (0, 1, 2, 3, 4), (10, 0, 0, 0, 0), (2, 2, 2, 2, 2),
                (5, 3, 2, 1, 0), (3, 3, 3, 1, 1), (0, 2, 0, 4, 5), (0, 0, 0, 0, 11)]:
        p = SymPoly.monomial(lam)
        left = expand_in_roots(dp_pushforward(p, flag), r, "s")
        assert left == complete_flag_oracle(p, r)


def test_expand_in_roots_frozen():
    r = 3
    h1 = SymPoly.monomial((1, 0, 0)) + SymPoly.monomial((0, 1, 0)) + \
        SymPoly.monomial((0, 0, 1))
    assert expand_in_roots(SymPoly.variable(0, 1), r, "s") == h1
    assert expand_in_roots(c_var(1, r), r, "c") == -1 * h1
    with pytest.raises(ValueError):
        expand_in_roots(c_var(1, r), r, "t")


def test_schur_in_roots_is_signed_bialternant():
    # S_sigma(c) expanded in dual roots = (-1)^{|sigma|} s_sigma(x)
    for sigma, r in [((1,), 3), ((2, 1, 0), 3), ((2, 2), 2)]:
        got = expand_in_roots(schur_in_chern(sigma, r), r, "c")
        k = sum(sigma)
        assert got == (-1) ** k * bialternant(sigma, r)


def test_projective_oracle_matches_pushforward():
    assert projective_oracle(0, 3) == SymPoly.one(1)
    for r in (2, 3, 4):
        flag = FlagType((0, 1, r))
        for k in (0, 1, 2):
            lam = [0] * r
            lam[r - 1] = r - 1 + k
            got = dp_pushforward(SymPoly.monomial(tuple(lam)), flag)
            assert got == projective_oracle(k, r)


def test_tower_consistency_small():
    # complete rank-3 push-forward factors through the (0,1,3) flag
    from chernweil.batch import _front_block_pushforward
    f3, f13 = FlagType.complete(3), FlagType((0, 1, 3))
    for deg in range(5):
        for lam in itertools.product(range(deg + 1), repeat=3):
            if sum(lam) != deg:
                continue
            direct = dp_pushforward(SymPoly.monomial(lam), f3)
            mid = _front_block_pushforward(SymPoly.monomial(lam))
            assert dp_pushforward(mid, f13) == direct
