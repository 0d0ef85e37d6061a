"""Stock spaces: shapes, determinants, and the connected-sum census."""

import math

import pytest

from quadlink.classify import (
    EQUIVALENT,
    INEQUIVALENT,
    canonical_chern_vectors,
    invariants_report,
    yc_classes,
    yc_equivalent,
)
from quadlink.lattice import wu_classes
from quadlink.presentation import presentation
from quadlink.spaces import connected_sum, e8, lens, rp3, s2xs1, s3, t3
from quadlink.zlinalg import determinant


def test_stock_matrices():
    assert s3().data == ((1,),)
    assert rp3().data == ((2,),)
    assert s2xs1().data == ((0,),)
    assert t3().data == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert determinant(e8()) == 1


def test_e8_has_no_residual_structure():
    m = e8()
    assert len(wu_classes(m)) == 1
    assert len(canonical_chern_vectors(m)) == 1
    assert len(yc_classes(m)) == 1


def test_t3_spin_structures():
    assert len(wu_classes(t3())) == 8


def test_projective_space_counts():
    assert len(canonical_chern_vectors(rp3())) == 2
    assert len(yc_classes(rp3())) == 2


def test_lens_chain_values():
    assert lens(9, 1).data == ((9,),)
    assert lens(5, 2).data == ((3, -1), (-1, 2))
    for p in (2, 7, 26, 50):
        assert lens(p, 1).data == ((p,),)


def test_lens_chain_shape_and_determinant():
    for p in range(2, 51):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            m = lens(p, q)
            assert abs(determinant(m)) == p
            for i in range(m.rows):
                assert m[i][i] >= 2
                for j in range(m.rows):
                    if abs(i - j) == 1:
                        assert m[i][j] == -1
                    elif i != j:
                        assert m[i][j] == 0


def test_lens_rejects_bad_parameters():
    for p, q in ((1, 1), (4, 2), (5, 0), (5, 5), (5, 7)):
        with pytest.raises(ValueError):
            lens(p, q)


def test_sum_with_a_sphere_changes_nothing():
    base = presentation(rp3(), (2,))
    summed = connected_sum(base, presentation(s3(), (1,)))
    ra, rb = invariants_report(base), invariants_report(summed)
    assert ra.stable_profile() == rb.stable_profile()
    assert ra.value_multiset == rb.value_multiset
    assert yc_equivalent(base, summed).status == EQUIVALENT


def test_sum_of_circle_bundle_and_projective_space():
    summed = connected_sum(presentation(s2xs1(), (0,)), presentation(rp3(), (0,)))
    r = invariants_report(summed)
    assert r.free_rank == 1
    assert r.torsion_factors == (2,)


def test_gauss_sums_multiply_under_sums():
    pieces = [
        presentation(rp3(), (0,)),
        presentation(rp3(), (2,)),
        presentation(lens(5, 2), canonical_chern_vectors(lens(5, 2))[1]),
        presentation([[3]], (3,)),
    ]
    for a in pieces:
        for b in pieces:
            lhs = invariants_report(connected_sum(a, b)).gauss
            assert lhs == invariants_report(a).gauss * invariants_report(b).gauss


def test_census_of_circle_bundle_summed_with_projective_space():
    # decorations (2k, s) of diag(0, 2): singletons at k = 0, quadruples
    # for odd k, and two mirror pairs for even k
    matrix = connected_sum(presentation(s2xs1(), (0,)), presentation(rp3(), (0,))).matrix
    decorations = [(2 * k, s) for k in range(-4, 5) for s in (0, 2)]
    part = yc_classes(matrix, decorations)
    as_sets = {frozenset(cls) for cls in part}
    expected = {
        frozenset({(0, 0)}),
        frozenset({(0, 2)}),
        frozenset({(2, 0), (2, 2), (-2, 0), (-2, 2)}),
        frozenset({(6, 0), (6, 2), (-6, 0), (-6, 2)}),
        frozenset({(4, 0), (-4, 0)}),
        frozenset({(4, 2), (-4, 2)}),
        frozenset({(8, 0), (-8, 0)}),
        frozenset({(8, 2), (-8, 2)}),
    }
    assert as_sets == expected


def test_lens_census_agrees_with_the_orbit_count_midrange():
    from quadlink.classify import lens_yc_count

    for p in (11, 15):
        assert len(yc_classes(lens(p, 1))) == lens_yc_count(p)
