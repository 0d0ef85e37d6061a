"""Decision layer: regimes, censuses, and the two lens counting rules."""

import dataclasses
import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadlink.classify import (
    EQUIVALENT,
    INEQUIVALENT,
    UNKNOWN,
    EquivalenceVerdict,
    EvenOrderError,
    canonical_chern_vectors,
    invariants_report,
    lens_diffeo_count,
    lens_yc_count,
    yc_classes,
    yc_equivalent,
    yc_equivalent_by_pairing,
)
import quadlink.classify as classify_module
from quadlink.exact import QmodZ, cyclo_from_angles
from quadlink.lattice import chern_coordinates, discriminant, phi_eval, radical_slope
from quadlink.presentation import HandleSlide, apply_move, chern_equal, presentation, random_walk
from quadlink.quadfun import FiniteAbelianGroup, Fingerprint, OrderCapExceeded, QuadraticFunction
from quadlink.zlinalg import IntMatrix, determinant, intmatrix


# --- the gcd fact behind the free regime -------------------------------
#
# The free regime decides equivalence by comparing gcds of decoration
# vectors, which is sound only if the unimodular orbit of an integer
# vector is exactly its gcd class.  Before trusting that, validate it
# by brute force in the plane: breadth-first search over the elementary
# moves, restricted to the box of entries bounded by 6.

def _orbit_in_box(start, bound=6):
    def inside(v):
        return all(abs(x) <= bound for x in v)

    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for nxt in ((x + y, y), (x - y, y), (x, y + x), (x, y - x), (y, x), (-x, y), (x, -y)):
            if inside(nxt) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def test_plane_orbit_under_elementary_moves_is_the_gcd_class():
    box = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    classes = {}
    for v in box:
        classes.setdefault(math.gcd(*v), set()).add(v)
    for v in box:
        assert _orbit_in_box(v) == classes[math.gcd(*v)]


def test_free_regime_decides_by_gcd():
    two = presentation([[0]], (2,))
    minus_two = presentation([[0]], (-2,))
    four = presentation([[0]], (4,))
    zero = presentation([[0]], (0,))
    assert yc_equivalent(two, minus_two).status == EQUIVALENT
    assert yc_equivalent(two, four).status == INEQUIVALENT
    assert yc_equivalent(zero, two).status == INEQUIVALENT
    rank_two = presentation([[0, 0], [0, 0]], (2, 4))
    rank_two_other = presentation([[0, 0], [0, 0]], (6, 4))
    assert yc_equivalent(rank_two, rank_two_other).status == EQUIVALENT  # both gcd 2


# --- finite regime anchors ----------------------------------------------

def test_projective_space_decorations_are_inequivalent():
    a = presentation([[2]], (0,))
    b = presentation([[2]], (2,))
    v = yc_equivalent(a, b)
    assert v.status == INEQUIVALENT
    assert yc_equivalent(a, a).status == EQUIVALENT
    assert yc_equivalent(b, b).status == EQUIVALENT


def test_projective_space_gauss_sums_are_one_plus_minus_i():
    r0 = invariants_report(presentation([[2]], (0,)))
    r1 = invariants_report(presentation([[2]], (2,)))
    assert r0.gauss == cyclo_from_angles([Fraction(0), Fraction(1, 4)])
    assert r1.gauss == cyclo_from_angles([Fraction(0), Fraction(3, 4)])
    assert r0.gauss != r1.gauss


def test_finite_regime_witness_is_checked_pointwise():
    a = presentation([[5]], (5,))
    b = presentation([[-5]], (-5,))
    v = yc_equivalent(a, b)
    assert v.status == EQUIVALENT and v.witness is not None


def test_verdict_status_is_validated():
    with pytest.raises(ValueError):
        EquivalenceVerdict("maybe", "nope")


# --- mixed regime -------------------------------------------------------
#
# diag(0, 2) with decorations (2k, b) is the smallest presentation with
# both free rank and torsion.  A handle slide of the torsion component
# over the null one leaves the matrix alone and adds the first entry to
# the second, so (2, 0) and (2, 2) must merge; for k = 2 the same slide
# lands back on (4, 0) and the pair (4, 0) vs (4, 2) splits on Gauss
# sums over matched sections.

MIXED = [[0, 0], [0, 2]]


def test_mixed_merge_for_odd_k_confirmed_by_a_slide():
    p = presentation(MIXED, (2, 0))
    slid = apply_move(p, HandleSlide(1, 0))
    assert slid.matrix.data == p.matrix.data
    assert chern_equal(slid, presentation(MIXED, (2, 2))) is not None
    v = yc_equivalent(p, presentation(MIXED, (2, 2)))
    assert v.status == EQUIVALENT


def test_mixed_split_for_even_k():
    v = yc_equivalent(presentation(MIXED, (4, 0)), presentation(MIXED, (4, 2)))
    assert v.status == INEQUIVALENT
    assert yc_equivalent(presentation(MIXED, (2, 0)), presentation(MIXED, (4, 0))).status == INEQUIVALENT


def test_mixed_vanishing_free_decoration_uses_plain_gauss_sums():
    a = presentation(MIXED, (0, 0))
    b = presentation(MIXED, (0, 2))
    assert yc_equivalent(a, b).status == INEQUIVALENT
    assert yc_equivalent(a, a).status == EQUIVALENT


def test_budget_exhaustion_is_reported_not_guessed():
    v = yc_equivalent(presentation(MIXED, (2, 0)), presentation(MIXED, (2, 2)), budget=1)
    assert v.status == UNKNOWN
    assert not v.is_definite


def test_order_cap_propagates():
    with pytest.raises(OrderCapExceeded):
        yc_equivalent(presentation([[7]], (7,)), presentation([[7]], (7,)), cap=5)


def test_verdicts_are_symmetric():
    pairs = [
        (presentation([[2]], (0,)), presentation([[2]], (2,))),
        (presentation(MIXED, (2, 0)), presentation(MIXED, (2, 2))),
        (presentation(MIXED, (4, 0)), presentation(MIXED, (4, 2))),
        (presentation([[0]], (2,)), presentation([[0]], (-2,))),
    ]
    for a, b in pairs:
        assert yc_equivalent(a, b).status == yc_equivalent(b, a).status


def test_walks_stay_equivalent_to_their_start():
    corpus = [
        presentation([[2]], (2,)),
        presentation([[5]], (5,)),
        presentation(MIXED, (2, 2)),
        presentation([[0]], (4,)),
    ]
    for seed, start in enumerate(corpus):
        walked, trail = random_walk(start, 25, seed=101 + seed)
        assert len(trail) == 25
        assert invariants_report(start).stable_profile() == invariants_report(walked).stable_profile()
        assert yc_equivalent(start, walked).status == EQUIVALENT


# --- the two decision routes agree on finite homology --------------------

def _random_finite_presentations(rng, count):
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        m = intmatrix(rows)
        det = determinant(m)
        if det == 0 or abs(det) > 60:
            continue
        vecs = canonical_chern_vectors(m)
        out.append(presentation(rows, rng.choice(vecs)))
    return out

def test_isomorphism_route_and_pairing_route_agree():
    rng = random.Random(20260819)
    pool = _random_finite_presentations(rng, 14)
    pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i + 1 :]][:40]
    pairs += [(p, p) for p in pool[:4]]
    for a, b in pairs:
        direct = yc_equivalent(a, b).status
        paired = yc_equivalent_by_pairing(a, b).status
        assert direct == paired, (a, b)
        assert direct in (EQUIVALENT, INEQUIVALENT)


def test_pairing_route_refuses_infinite_homology():
    with pytest.raises(ValueError):
        yc_equivalent_by_pairing(presentation([[0]], (0,)), presentation([[0]], (0,)))


# --- canonical decorations and censuses ----------------------------------

def test_canonical_decorations_are_exhaustive_and_distinct():
    for rows in ([[2]], [[9]], [[3, 1], [1, 2]], [[2, 0], [0, -4]]):
        m = intmatrix(rows)
        vecs = canonical_chern_vectors(m)
        assert len(vecs) == abs(determinant(m))
        data = discriminant(m)
        pres = [presentation(rows, v) for v in vecs]
        for i, a in enumerate(pres):
            for b in pres[i + 1 :]:
                assert chern_equal(a, b) is None
        # the classes of the decorations exhaust the cokernel residues
        residues = {chern_coordinates(data, v)[1] for v in vecs}
        assert len(residues) <= len(vecs)


def test_canonical_decorations_refuse_degenerate_forms():
    with pytest.raises(ValueError):
        canonical_chern_vectors([[0]])


def test_census_counts_for_small_forms():
    assert len(yc_classes([[1]])) == 1
    assert len(yc_classes([[2]])) == 2
    assert len(yc_classes([[9]])) == 5


def test_census_partition_for_the_circle_bundle():
    part = yc_classes([[0]], [(s,) for s in range(-6, 7, 2)])
    as_sets = {frozenset(cls) for cls in part}
    assert as_sets == {
        frozenset({(0,)}),
        frozenset({(2,), (-2,)}),
        frozenset({(4,), (-4,)}),
        frozenset({(6,), (-6,)}),
    }


def test_census_matches_the_orbit_count_for_small_odd_lens_spaces():
    for p in (3, 5, 9):
        assert len(yc_classes([[p]])) == lens_yc_count(p)


def test_census_classes_are_internally_consistent():
    part = yc_classes([[9]])
    pres = {v: presentation([[9]], v) for cls in part for v in cls}
    for cls in part:
        for i, a in enumerate(cls):
            for b in cls[i + 1 :]:
                assert yc_equivalent(pres[a], pres[b]).status == EQUIVALENT
    for other in part[1:]:
        assert yc_equivalent(pres[part[0][0]], pres[other[0]]).status == INEQUIVALENT


# --- lens counting rules --------------------------------------------------

def test_orbit_census_counts():
    assert lens_yc_count(3) == 2
    assert lens_yc_count(9) == 5
    assert lens_yc_count(15) == 6
    assert lens_yc_count(25) == 13  # only the trivial roots of unity mod a prime square


def test_orbit_census_refuses_even_and_tiny_orders():
    with pytest.raises(EvenOrderError):
        lens_yc_count(8)
    with pytest.raises(ValueError):
        lens_yc_count(1)


def test_symmetry_orbit_counts():
    assert lens_diffeo_count(15, 1, 1) == 8
    assert lens_diffeo_count(5, 1, 2) == 3
    assert lens_diffeo_count(8, 1, 3) == 4


def test_symmetry_count_rejects_noninvertible_parameters():
    with pytest.raises(ValueError):
        lens_diffeo_count(9, 3, 1)


def test_decoration_classes_can_be_strictly_finer():
    # p = k^2 - 1 for k in {4, 6}
    assert lens_diffeo_count(15, 1, 1) > lens_yc_count(15)
    assert lens_diffeo_count(35, 1, 1) > lens_yc_count(35)


# --- reports ---------------------------------------------------------------

def test_report_fields_for_the_circle_bundle_family():
    for k in (0, 1, 3):
        r = invariants_report(presentation([[0]], (2 * k,)))
        assert r.free_rank == 1
        assert r.torsion_factors == ()
        assert r.chern_free_gcd == 2 * k


def test_report_for_the_trivial_group():
    r = invariants_report(presentation([[1]], (1,)))
    assert r.free_rank == 0
    assert r.torsion_factors == ()
    assert r.gauss == cyclo_from_angles([Fraction(0)])


def test_stable_profile_drops_section_data_when_it_must():
    free = invariants_report(presentation(MIXED, (2, 0)))
    assert free.chern_free_gcd == 2
    assert len(free.stable_profile()) == 4
    torsiononly = invariants_report(presentation(MIXED, (0, 2)))
    assert torsiononly.chern_free_gcd == 0
    assert len(torsiononly.stable_profile()) == 7


# --- reports against the defining formula -----------------------------------
#
# The report reads its multisets and Gauss sum off integer tables; the
# oracle below evaluates phi_eval on every stored lift instead and sorts.


@st.composite
def decorated_symmetric_forms(draw):
    n = draw(st.integers(1, 6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    chern = tuple(m[i][i] + 2 * draw(st.integers(-3, 3)) for i in range(n))
    return m, chern


def _report_oracle(m, chern):
    data = discriminant(IntMatrix(m))
    group = FiniteAbelianGroup(data.torsion_factors)
    slopes = radical_slope(data, chern)
    q = QuadraticFunction.from_callable(
        group, lambda w: phi_eval(data, chern, data.torsion_lift(w)), radical_slopes=slopes, check=False
    )
    elements = list(group.elements())
    gauss = cyclo_from_angles(q.values.values()).canonical()
    pairs = range(len(data.torsion_factors))
    diagonal = tuple(
        sorted(sum((data.linking[i][j] * (w[i] * w[j]) for i in pairs for j in pairs), QmodZ(0)) for w in elements)
    )
    return Fingerprint(
        invariant_factors=data.torsion_factors,
        value_multiset=tuple(sorted(q.values.values())),
        defect_multiset=tuple(sorted(q(w) - q(group.neg(w)) for w in elements)),
        gauss=gauss,
        radical_rank=len(slopes),
        radical_gcd=math.gcd(*(int(2 * s) for s in slopes)),
    ), diagonal


@settings(max_examples=60, deadline=None)
@given(decorated_symmetric_forms())
def test_report_matches_the_phi_eval_oracle(form):
    m, chern = form
    assume(discriminant(IntMatrix(m)).torsion_order <= 400)
    r = invariants_report(presentation(m, chern))
    oracle, diagonal = _report_oracle(m, chern)
    assert r.fingerprint == oracle
    assert (r.gauss.modulus, r.gauss.coeffs) == (oracle.gauss.modulus, oracle.gauss.coeffs)
    assert r.value_multiset == oracle.value_multiset
    assert r.defect_multiset == oracle.defect_multiset
    assert r.linking_diagonal == diagonal
    assert r.radical_slopes == tuple(int(s) for s in radical_slope(discriminant(IntMatrix(m)), chern))


def _report_on_corrupted_data(monkeypatch, p, **fields):
    original = classify_module.discriminant
    monkeypatch.setattr(classify_module, "discriminant", lambda m: dataclasses.replace(original(m), **fields))
    return invariants_report(p)


def test_report_checks_integral_slopes(monkeypatch):
    # c = (1, 0) pairs oddly with (1, 1), which no kernel vector of diag(1, 0) is
    with pytest.raises(RuntimeError, match="not integral"):
        _report_on_corrupted_data(monkeypatch, presentation([[1, 0], [0, 0]], (1, 0)), kernel=((1, 1),))


def test_report_checks_the_duality_identity(monkeypatch):
    with pytest.raises(RuntimeError, match="duality identity"):
        _report_on_corrupted_data(monkeypatch, presentation([[0]], (2,)), duality_matrix=IntMatrix([[3]]))
