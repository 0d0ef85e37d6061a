"""Decision layer: regimes, censuses, and the two lens counting rules."""

import dataclasses
import functools
import hashlib
import itertools
import math
import random
from collections import Counter, deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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
from quadlink.classify import DEFAULT_SEARCH_BUDGET, _MIXED_BLIND_REASONS, _Budget, _integral_slopes, _Side
from quadlink.exact import CyclotomicSum, QmodZ, cyclo_equals, cyclo_from_angles, cyclo_from_residues, residue_multiset
from quadlink.exact import _reduce_mod_cyclotomic
import quadlink.lattice as lattice_module
from quadlink.lattice import (
    CharacteristicError,
    DiscriminantData,
    chern_coordinates,
    discriminant,
    evaluation_pairing,
    linking_pairing,
    phi_eval,
    phi_generators,
    phi_table,
    radical_slope,
    self_linking_table,
)
from quadlink.presentation import HandleSlide, apply_move, chern_equal, presentation, random_walk
from quadlink.spaces import connected_sum, e8, lens
from quadlink.quadfun import (
    DEFAULT_ORDER_CAP,
    FiniteAbelianGroup,
    Fingerprint,
    GroupIso,
    OrderCapExceeded,
    QuadraticFunction,
    _cyclic_isometries,
    _defect_character,
    _generator_data,
    _generator_isomorphism,
    _image_positions,
    _isometries,
    _linear_table,
    _quadratic_table,
)
from quadlink.zlinalg import IntMatrix, SmithDecomposition, determinant, intmatrix, solve_integer


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
    data_a, data_b = discriminant(a.matrix), discriminant(b.matrix)
    values_a = phi_table(data_a, a.chern)
    values_b = phi_table(data_b, b.chern)
    # position of the witness's image of every element, in the order of values_a
    image = _image_positions(data_a.torsion_factors, v.witness.images)
    assert sorted(image) == list(range(len(values_a)))
    assert [values_b[u] for u in image] == values_a


# Verdicts of the finite regime with their witnesses: the CLI prints the
# witness images, so they are pinned, including the two walk pairs of
# the benchmark's decide workload (seed 1) over Z/45+Z/45 and (Z/5)^4.
def _diagonal(*entries):
    return [[d if i == j else 0 for j in range(len(entries))] for i, d in enumerate(entries)]


def _walked(rows, chern, seed, size_cap):
    return random_walk(presentation(rows, chern), 24, seed, size_cap=size_cap)[0]


def _assert_carries_values(p1, p2, images):
    """The map x -> sum x_i images[i] is bijective and phi_2(map x) == phi_1(x) on every x."""
    data1, data2 = discriminant(p1.matrix), discriminant(p2.matrix)
    assert data1.torsion_factors == data2.torsion_factors and data1.value_modulus == data2.value_modulus
    values1 = phi_table(data1, p1.chern)
    values2 = phi_table(data2, p2.chern)
    group = FiniteAbelianGroup(data1.torsion_factors)
    position = {x: n for n, x in enumerate(group.elements())}
    iso = GroupIso(group, group, tuple(images))
    mapped = [iso.apply(x) for x in position]
    assert len(set(mapped)) == len(position)
    assert [values2[position[y]] for y in mapped] == values1


_ISOMORPHIC = "the finite quadratic functions are isomorphic"
_NOT_ISOMORPHIC = "no isomorphism carries one finite quadratic function to the other"
PINNED_FINITE = [
    (lambda: (presentation([[5]], (5,)), presentation([[-5]], (-5,))), EQUIVALENT, _ISOMORPHIC, ((2,),)),
    (
        lambda: (presentation(_diagonal(45, 45), (-3, 1)), _walked(_diagonal(45, 45), (-3, 1), 753161180, 2)),
        EQUIVALENT, _ISOMORPHIC, ((0, 1), (44, 1)),
    ),
    (
        lambda: (
            presentation(_diagonal(5, 5, 5, 5), (-3, 3, 1, -3)),
            _walked(_diagonal(5, 5, 5, 5), (-3, 3, 1, -3), 1180710293, 4),
        ),
        EQUIVALENT, _ISOMORPHIC, ((0, 0, 0, 1), (0, 0, 1, 4), (1, 1, 4, 0), (0, 1, 1, 4)),
    ),
    (
        lambda: (presentation(_diagonal(9, 27), (3, -3)), _walked(_diagonal(9, 27), (3, -3), 985796255, 2)),
        EQUIVALENT, _ISOMORPHIC, ((1, 24), (0, 26)),
    ),
    (lambda: (presentation([[2]], (0,)), presentation([[2]], (2,))), INEQUIVALENT, _NOT_ISOMORPHIC, None),
    (lambda: (presentation([[3]], (3,)), presentation([[-3]], (-3,))), INEQUIVALENT, _NOT_ISOMORPHIC, None),
    (lambda: (presentation([], ()), presentation([], ())), EQUIVALENT, _ISOMORPHIC, ()),
    (lambda: (presentation(_diagonal(2, 2), (0, 2)), presentation(_diagonal(2, 2), (2, 0))), EQUIVALENT, _ISOMORPHIC, ((0, 1), (1, 0))),
    (lambda: (presentation([[9]], (11,)), presentation([[9]], (25,))), EQUIVALENT, _ISOMORPHIC, ((8,),)),
]


@pytest.mark.parametrize(
    "pair, status, reason, images",
    PINNED_FINITE,
    ids=["mirror-five", "z45-walk", "z5x4-walk", "z9-z27-walk", "projective", "mirror-three", "empty", "swap", "orbit"],
)
def test_finite_verdicts_are_pinned(pair, status, reason, images):
    p1, p2 = pair()
    v = yc_equivalent(p1, p2)
    assert (v.status, v.reason, None if v.witness is None else v.witness.images) == (status, reason, images)
    if images is not None:
        _assert_carries_values(p1, p2, images)


# --- the primary split against the whole-group search ----------------------
#
# The finite regime decides one p-primary part at a time.  The oracle is
# the route it replaced: value tables over the whole group, value and
# defect histograms, and one search whose witness is checked pointwise.


def _whole_group_images(p1, p2):
    """Generator images of an isomorphism of the finite quadratic functions found over the whole group, or None."""
    data1, data2 = discriminant(p1.matrix), discriminant(p2.matrix)
    assert data1.free_rank == data2.free_rank == 0
    factors, modulus = data1.torsion_factors, data1.value_modulus
    if factors != data2.torsion_factors:
        return None
    values1 = phi_table(data1, p1.chern)
    values2 = phi_table(data2, p2.chern)
    if Counter(values1) != Counter(values2):
        return None
    q1, b1 = _generator_data(factors, modulus, values1)
    q2, b2 = _generator_data(factors, modulus, values2)

    def defect_table(q, b):
        return _linear_table([(2 * v - b[i][i]) % modulus for i, v in enumerate(q)], factors, modulus)

    if Counter(defect_table(q1, b1)) != Counter(defect_table(q2, b2)):
        return None
    elements = list(FiniteAbelianGroup(factors).elements())
    candidates = [[m for m, v in zip(elements, values2) if v == want] for want in q1]
    if not all(candidates):
        return None
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    for images in _isometries(factors, modulus, b1, b2, order, candidates, lambda: True):
        if all(values2[u] == v for u, v in zip(_image_positions(factors, images), values1)):
            return images
    return None


def _is_prime_power(n):
    p = next((p for p in range(2, n + 1) if n % p == 0), None)
    while p and n % p == 0:
        n //= p
    return n == 1


def _check_against_the_whole_group(p1, p2):
    v = yc_equivalent(p1, p2)
    images = _whole_group_images(p1, p2)
    assert v.status == (INEQUIVALENT if images is None else EQUIVALENT)
    if v.witness is not None:
        _assert_carries_values(p1, p2, v.witness.images)
        factors = discriminant(p1.matrix).torsion_factors
        if _is_prime_power(factors[-1] if factors else 1):
            assert v.witness.images == images


@st.composite
def finite_pairs(draw):
    """Two decorations of one nondegenerate form, the second often a walk away from a decoration."""
    n = draw(st.integers(1, 3))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-7, 7))
    det = determinant(intmatrix(m))
    assume(det != 0 and abs(det) <= 400)
    vecs = canonical_chern_vectors(m)
    c1, c2 = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
    p1 = presentation(m, c1)
    if draw(st.booleans()):
        return p1, presentation(m, c2)
    return p1, random_walk(presentation(m, c2 if draw(st.booleans()) else c1), 12, draw(st.integers(0, 2**32)), size_cap=n)[0]


@settings(max_examples=80, deadline=None)
@given(finite_pairs())
@example((presentation(_diagonal(10, 30), (0, 0)), presentation(_diagonal(10, 30), (2, 4))))
@example((presentation(_diagonal(10, 30), (2, 6)), _walked(_diagonal(10, 30), (2, 6), 7, 2)))
@example((presentation(_diagonal(4, 12), (2, 0)), presentation(_diagonal(4, 12), (2, 4))))
@example((presentation(_diagonal(6, 6), (0, 2)), presentation(_diagonal(6, 6), (2, 0))))
@example((presentation([[15, -9], [-9, 36]], (1, 0)), presentation([[15, -9], [-9, 36]], (3, 2))))
def test_primary_split_matches_the_whole_group_search(pair):
    _check_against_the_whole_group(*pair)


@pytest.mark.parametrize("pair", [entry[0] for entry in PINNED_FINITE])
def test_pinned_finite_pairs_match_the_whole_group_search(pair):
    _check_against_the_whole_group(*pair())


def test_the_primary_split_keeps_the_order_cap():
    # |G| = 3969 is over the cap, though |G_3| = 81 and |G_7| = 49 are not
    rows = _diagonal(63, 63)
    p = presentation(rows, (1, 1))
    calls = (
        lambda: yc_equivalent(p, p, cap=1000),
        lambda: yc_classes(rows, cap=1000),
        lambda: yc_classes(rows, [(1, 1)], cap=1000),
    )
    for call in calls:
        with pytest.raises(OrderCapExceeded) as caught:
            call()
        assert (caught.value.order, caught.value.cap) == (3969, 1000)


# --- cyclic p-parts in closed form against the search ------------------------
#
# Every automorphism of a cyclic p-part Z/P is multiplication by a unit u,
# so the pair route takes the least u that quadfun._cyclic_isometries
# lists with q2(u h) = q1(h), and the census keys q by its least value
# on the orbit of h under the isometries of b; neither builds a table.
# The oracle is the isometry search on full value tables, per prime.


def _value_at_multiple(u, q, b, modulus):
    """q(u h) = u q(h) + C(u, 2) b(h, h), in units of 1/modulus."""
    return (u * q + u * (u - 1) // 2 * b) % modulus


@st.composite
def cyclic_pairs(draw):
    """Two quadratic functions on one Z/P, P a prime power up to 1024, as (P, M, q1, b1, q2, b2) in units of 1/M."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    order = p ** draw(st.integers(1, max(v for v in range(1, 11) if p**v <= 1024)))
    modulus = 2 * order * draw(st.sampled_from((1, 3)))

    def function(beta):
        # q(h) in units of 1/(2P) and b(h, h) = beta/P; q is quadratic on
        # Z/P exactly when P q(h) + C(P, 2) b(h, h) is an integer
        alpha = 2 * draw(st.integers(0, order - 1)) + (beta % 2 if order % 2 == 0 else 0)
        return modulus // (2 * order) * alpha, modulus // order * beta

    # beta a unit, as on a nondegenerate form, or any residue
    unit = st.integers(1, order - 1).filter(lambda x: x % p)
    q2, b2 = function(draw(st.one_of(unit, st.integers(0, order - 1))))
    kind = draw(st.sampled_from(("image", "same pairing", "independent")))
    if kind == "image":
        # q1 = q2 o (x -> u x) for a unit u, so an isomorphism exists
        u = draw(unit)
        return order, modulus, _value_at_multiple(u, q2, b2, modulus), u * u * b2 % modulus, q2, b2
    q1, b1 = function(b2 * order // modulus) if kind == "same pairing" else function(draw(st.integers(0, order - 1)))
    return order, modulus, q1, b1, q2, b2


@settings(max_examples=300, deadline=None)
@given(cyclic_pairs())
@example((9, 18, 2, 2, 4, 8))
@example((8, 16, 1, 2, 3, 6))
def test_cyclic_isometries_give_the_witness_of_the_search(pair):
    order, modulus, q1, b1, q2, b2 = pair
    values2 = _quadratic_table([order], modulus, [q2], [[b2]])
    searched = _generator_isomorphism([order], modulus, [q1], [[b1]], [q2], [[b2]], values2)
    units = _cyclic_isometries(order, modulus, b1, b2)
    closed = next((((u,),) for u in units if _value_at_multiple(u, q2, b2, modulus) == q1), None)
    assert closed == searched
    if b1 == b2:
        # the census key: the least value on the orbit of h under O(b)
        key1, key2 = (min(_value_at_multiple(u, q, b1, modulus) for u in units) for q in (q1, q2))
        assert (key1 == key2) == (searched is not None)


def _searched_census(m):
    """The canonical decorations of a nondegenerate form, partitioned by one isometry search per prime and new class."""
    data = discriminant(intmatrix(m))
    vecs = canonical_chern_vectors(m)
    modulus = data.value_modulus
    q_gens = [phi_generators(data, c) for c in vecs]
    columns = []
    for part in classify_module._primary_parts(data.torsion_factors):
        b = part.pairing(modulus, data.linking)
        ids, representatives, column = {}, [], []
        for q_gen in q_gens:
            q = part.quadratic(modulus, q_gen, data.linking)
            if q not in ids:
                values = _quadratic_table(part.factors, modulus, q, b)
                ids[q] = next(
                    (
                        cid
                        for cid, rep_q in enumerate(representatives)
                        if _generator_isomorphism(part.factors, modulus, rep_q, b, q, b, values) is not None
                    ),
                    len(representatives),
                )
                if ids[q] == len(representatives):
                    representatives.append(q)
            column.append(ids[q])
        columns.append(column)
    grouped = {}
    for v, key in zip(vecs, zip(*columns)):
        grouped.setdefault(key, []).append(v)
    return tuple(map(tuple, grouped.values()))


def test_lens_censuses_match_the_searched_census():
    # both orientations of L(p, 1), and L(p, q) at the least unit q > 1,
    # whose linking form b(h, h) = q'/p may be a non-square unit
    for p in range(2, 131):
        q = next((q for q in range(2, p) if math.gcd(q, p) == 1), None)
        for m in [lens(p, 1), [[-p]]] + ([lens(p, q)] if q else []):
            assert yc_classes(m) == _searched_census(m), (p, m)


@pytest.mark.parametrize(
    "m",
    [_diagonal(3, 3, 5), _diagonal(2, 4, 3), _diagonal(3, 9, 4), _diagonal(5, 5, 8), _diagonal(2, 2, 9), _diagonal(-3, 3, 7)],
)
def test_censuses_mixing_cyclic_and_rank_two_parts_match_the_searched_census(m):
    assert yc_classes(m) == _searched_census(m)


# --- censuses by orbits against the searched census ----------------------------
#
# A p-part of rank >= 2 is censused by a union-find over the decorations'
# q on its generators, merged along every witness the search finds: each
# lies in O(b), so it carries every q to an isomorphic one.  The oracle
# searches each new q against every class representative and recycles
# nothing.


@st.composite
def census_forms(draw):
    """A nondegenerate diagonal or block form with a p-part of rank >= 2, |det| <= 2000."""
    p = draw(st.sampled_from((2, 3, 5)))
    sign = st.sampled_from((1, -1))
    # |G_p| <= 256 keeps the oracle, which searches each new q against
    # every class, within a second
    power = st.sampled_from([p**e for e in (1, 2, 3) if p**e <= 27])
    if draw(st.booleans()):
        m = _diagonal(*(draw(sign) * draw(power) for _ in range(draw(st.integers(2, 4)))))
    else:
        # n U for a symmetric U with |det U| small: G_p holds (Z/n)^2
        n = draw(power)
        x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m = [[n * x, n], [n, n * y]]
        if draw(st.booleans()):
            m = [row + [0] for row in m] + [[0, 0, draw(sign) * draw(power)]]
    if draw(st.booleans()):
        # a cyclic part at another prime
        m[0][0] *= draw(st.sampled_from([q for q in (3, 7) if q != p]))
    det = determinant(intmatrix(m))
    assume(det != 0 and abs(det) <= 2000 and math.prod(math.gcd(d, p**12) for d in discriminant(intmatrix(m)).torsion_factors) <= 256)
    return m


@settings(max_examples=25, deadline=None)
@given(census_forms())
@example(_diagonal(2, 4, 8))
@example([[0, 8], [8, 0]])
@example([[0, 4, 0], [4, 0, 0], [0, 0, 4]])
@example(_diagonal(3, 3, 27))
@example(_diagonal(2, 2, 4, 4))
@example(_diagonal(27, 27))
def test_orbit_censuses_match_the_searched_census(m):
    assert yc_classes(m) == _searched_census(m)


# Partitions recorded before witnesses were recycled, from the census
# that searched every new p-restricted q (15 s and 44 s on these forms on
# a 2-core machine; the searched census takes about a minute on the
# first): class count, decoration count and sha256 of repr(yc_classes(m)).
@pytest.mark.parametrize(
    "m, classes, decorations, digest",
    [
        (_diagonal(9, 9, 27), 22, 2187, "13fd46872e9f52c9286bbf48ea13a287b5b91b68586fbd0040f779df108604b1"),
        (_diagonal(81, 81), 81, 6561, "15b85db904f356fdedb7bd003024f8f9b04455e284ac3e8697903876815559bb"),
    ],
    ids=["diag(9,9,27)", "diag(81,81)"],
)
def test_large_orbit_censuses_keep_their_recorded_partition(m, classes, decorations, digest):
    part = yc_classes(m)
    assert (len(part), sum(map(len, part))) == (classes, decorations)
    assert hashlib.sha256(repr(part).encode()).hexdigest() == digest


@pytest.mark.parametrize("m", [_diagonal(9, 9), _diagonal(4, 8)], ids=["diag(9,9)", "diag(4,8)"])
def test_explicit_lists_on_rank_two_parts_match_the_pairwise_oracle(m):
    # with a list, the union-find starts from the listed q only and adds
    # the images that the recycled witnesses reach; entries repeat classes
    # under other representatives, and one entry repeats outright
    d = m[0][0]
    vecs = [(d + 2 * a, m[1][1] % 2 + 2 * b) for a in range(0, 2 * d, 5) for b in (-3, 1, 4)]
    _check_census_against_oracle(m, vecs + vecs[:1])


@pytest.mark.parametrize(
    "change, message",
    [
        # 2 Psi(h_0) keeps the orders but scales b(h_0, h_0) by 4
        (lambda factors, y: (tuple(2 * x % d for x, d in zip(y[0], factors)),) + y[1:], "does not preserve the pairing"),
        # the identity keeps b but carries no decoration to another
        (lambda factors, y: tuple(tuple(int(i == j) for j in range(len(y))) for i in range(len(y))), "does not carry its decoration"),
    ],
    ids=["breaks-b", "identity"],
)
def test_a_tampered_recycled_isometry_raises(monkeypatch, change, message):
    original = classify_module._generator_isomorphism

    def tampered(*args):
        images = original(*args)
        return None if images is None else change(args[0], images)

    monkeypatch.setattr(classify_module, "_generator_isomorphism", tampered)
    with pytest.raises(RuntimeError, match=message):
        yc_classes(_diagonal(9, 9))


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


# The two pairs of the benchmark's decide workload (seed 1) that exhaust
# the default budget: c0 vs c0 + 2 on [d] + 0_b, one handle slide apart.
BUDGET_PAIRS = [
    (_diagonal(27, 0, 0, 0, 0), (-1, 2, 4, 4, 2), (1, 2, 4, 4, 2)),
    (_diagonal(16, 0, 0, 0, 0, 0), (2, 2, -4, -4, -2, 4), (4, 2, -4, -4, -2, 4)),
]
_SECTIONS_RAN_OUT = "budget ran out while comparing Gauss sums over matched sections"


@pytest.mark.parametrize("m, c1, c2", BUDGET_PAIRS, ids=["z27-z4", "z16-z5"])
def test_benchmark_budget_pairs_run_out_at_the_default_budget(m, c1, c2):
    v = yc_equivalent(presentation(m, c1), presentation(m, c2))
    assert (v.status, v.reason, v.witness) == (UNKNOWN, _SECTIONS_RAN_OUT, None)


def test_budget_edge_of_the_z27_pair():
    # 27^4 = 531,441 coupling rows for the one (d, v) pair the sweep
    # meets, 27 steps for its first section character, and the torsion
    # maps tried before it
    m, c1, c2 = BUDGET_PAIRS[0]
    p1, p2 = presentation(m, c1), presentation(m, c2)
    v = yc_equivalent(p1, p2, budget=531_470)
    assert (v.status, v.reason, v.witness) == (
        EQUIVALENT,
        "torsion map ((1,),) with coupling contraction (1,) and section character (0,) matches the Gauss sums",
        None,
    )
    v = yc_equivalent(p1, p2, budget=531_469)
    assert (v.status, v.reason, v.witness) == (UNKNOWN, _SECTIONS_RAN_OUT, None)


def test_order_cap_propagates():
    with pytest.raises(OrderCapExceeded):
        yc_equivalent(presentation([[7]], (7,)), presentation([[7]], (7,)), cap=5)


def test_report_refuses_oversized_torsion_before_the_replays(monkeypatch):
    # the cap is checked on the Smith diagonal, so a refused form replays
    # no transform vector; a form within the cap must still replay
    def refuse(self, idx):
        raise AssertionError("replayed a transform of a refused form")

    rows = [[2, 1, 0], [1, 5, 1], [0, 1, 7]]  # |det| = 61
    monkeypatch.setattr(SmithDecomposition, "uinv_columns", refuse)
    with pytest.raises(OrderCapExceeded) as caught:
        invariants_report(presentation(rows, (0, 1, 1)), cap=60)
    assert (caught.value.order, caught.value.cap) == (61, 60)
    with pytest.raises(AssertionError, match="replayed"):
        invariants_report(presentation(rows, (0, 1, 1)), cap=61)


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


def test_census_computes_the_determinant_once(monkeypatch):
    # one determinant and one discriminant per census, shared by every
    # decoration; no per-decoration report and no public pairwise call
    calls = Counter()
    for name in ("determinant", "discriminant", "invariants_report", "yc_equivalent"):
        original = getattr(classify_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(classify_module, name, counted)
    for rows in ([[9]], [[2, 1], [1, 2]], [[3, 0], [0, 3]]):
        calls.clear()
        yc_classes(rows)
        assert calls == {"determinant": 1, "discriminant": 1}
    calls.clear()
    assert len(yc_classes(MIXED, [(2 * a, b) for a in range(-2, 3) for b in (0, 2)])) == 5
    assert calls == {"discriminant": 1}
    calls.clear()
    assert len(canonical_chern_vectors([[9]])) == 9
    assert calls == {"determinant": 1, "discriminant": 1}


def _count_table_calls(monkeypatch):
    """A Counter of the classify module's calls to the table builders and the isometry search."""
    calls = Counter()
    for name in ("torsion_table", "_quadratic_table", "_generator_isomorphism"):
        original = getattr(classify_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(classify_module, name, counted)
    return calls


def test_census_builds_each_value_table_once(monkeypatch):
    # a finite census builds no whole-group table; a cyclic p-part is keyed
    # in closed form, with no table and no search; on the other p-parts it
    # tabulates a restricted q only when no recycled witness has reached
    # its orbit, and searches it only against the class representatives
    # with the same value histogram
    calls = _count_table_calls(monkeypatch)
    # (classes, p-tables, searches); the forms with one row, and
    # [[2, 1], [1, 2]] with G = Z/3, have only cyclic p-parts
    pinned = {
        ((9,),): (5, 0, 0),
        ((2, 1), (1, 2)): (2, 0, 0),
        ((3, 0), (0, 3)): (3, 5, 2),
        ((9, 0), (0, 9)): (9, 12, 6),
        ((4, 0), (0, 8)): (10, 14, 4),
        ((15,),): (6, 0, 0),
    }
    for rows, (count, tables, searches) in pinned.items():
        calls.clear()
        assert len(yc_classes(rows)) == count
        assert calls == Counter(_quadratic_table=tables, _generator_isomorphism=searches), rows


def test_a_prime_power_lens_census_is_table_free(monkeypatch):
    # Z/8192 is one cyclic 2-part: the whole census is one pass of orbit
    # minima, where the search route took about a minute
    calls = _count_table_calls(monkeypatch)
    assert len(yc_classes([[8192]])) == 3073
    assert calls == Counter()


def test_census_budget_edge_and_empty_list(monkeypatch):
    # an undecided comparison aborts the census; which pair it names
    # depends on the comparison order
    vecs = [(a, 2 * b) for a in (-3, -1, 1, 3) for b in range(-2, 3)]
    with pytest.raises(RuntimeError, match="cannot complete the partition"):
        yc_classes([[3, 0], [0, 0]], vecs, budget=5)
    assert len(yc_classes([[3, 0], [0, 0]], vecs)) == 4

    def refuse(m):
        raise AssertionError("an empty census built a discriminant")

    monkeypatch.setattr(classify_module, "discriminant", refuse)
    assert yc_classes([[3, 0], [0, 0]], []) == ()
    assert yc_classes([[1, 2], [3, 4]], []) == ()


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


# --- the census against its pairwise oracle -----------------------------
#
# yc_classes keys each decoration of a nondegenerate form by its class at
# each prime, and otherwise compares each decoration with the first member
# of each class in its bucket, on integer keys.  The oracle is the
# pairwise census: bucket by stable_profile(), decide every pair of a
# bucket not yet joined, and merge with union-find.  Finite pairs are
# decided by the whole-group search, others by yc_equivalent.


def _oracle_equivalent(a, b):
    if discriminant(a.matrix).free_rank == 0:
        return _whole_group_images(a, b) is not None
    verdict = yc_equivalent(a, b)
    assert verdict.is_definite
    return verdict.status == EQUIVALENT


def _census_oracle(m, vecs, profiles):
    pres = [presentation(m, v) for v in vecs]
    parent = list(range(len(vecs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    buckets = {}
    for i, prof in enumerate(profiles):
        buckets.setdefault(prof, []).append(i)
    for indices in buckets.values():
        for a, c in itertools.combinations(indices, 2):
            ra, rc = find(a), find(c)
            if ra == rc:
                continue
            if _oracle_equivalent(pres[a], pres[c]):
                parent[max(ra, rc)] = min(ra, rc)
    grouped = {}
    for i in range(len(vecs)):
        grouped.setdefault(find(i), []).append(i)
    return tuple(tuple(vecs[i] for i in members) for members in sorted(grouped.values(), key=lambda g: g[0]))


def _check_census_against_oracle(m, vecs):
    profiles = [invariants_report(presentation(m, v)).stable_profile() for v in vecs]
    data = discriminant(intmatrix(m))
    if data.free_rank:
        # bucket keys split exactly as the profiles do
        keys = [classify_module._census_key(classify_module._side(data, v), DEFAULT_ORDER_CAP) for v in vecs]
        for (k1, p1), (k2, p2) in itertools.combinations(zip(keys, profiles), 2):
            assert (k1 == k2) == (p1 == p2)
    else:
        # keys are classes, so equal keys have equal profiles
        keys = classify_module._finite_census_keys(data, vecs, DEFAULT_ORDER_CAP)
        for (k1, p1), (k2, p2) in itertools.combinations(zip(keys, profiles), 2):
            assert k1 != k2 or p1 == p2
    assert yc_classes(m, vecs) == _census_oracle(m, vecs, profiles)


@st.composite
def nondegenerate_forms(draw):
    n = draw(st.integers(1, 3))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-4, 4))
    det = determinant(intmatrix(m))
    assume(det != 0 and abs(det) <= 60)
    return m


@settings(max_examples=60, deadline=None)
@given(nondegenerate_forms())
@example([[9, 0], [0, 3]])
@example([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
def test_census_matches_the_pairwise_oracle_on_canonical_decorations(m):
    _check_census_against_oracle(m, canonical_chern_vectors(m))


@pytest.mark.parametrize(
    "m, vecs",
    [
        ([[0]], [(s,) for s in range(-8, 9, 2)]),
        ([[3, 0], [0, 0]], [(a, 2 * b) for a in (-3, -1, 1, 3) for b in range(-2, 3)]),
        ([[0, 1], [1, 0]], [(2 * a, 2 * b) for a in range(-2, 3) for b in range(-2, 3)]),
    ],
)
def test_census_matches_the_pairwise_oracle_on_explicit_decorations(m, vecs):
    _check_census_against_oracle(m, vecs)


# --- lens counting rules --------------------------------------------------

def test_orbit_census_counts():
    assert lens_yc_count(3) == 2
    assert lens_yc_count(9) == 5
    assert lens_yc_count(15) == 6
    assert lens_yc_count(25) == 13  # only the trivial roots of unity mod a prime square


def test_orbit_census_refuses_even_and_tiny_orders():
    with pytest.raises(EvenOrderError):
        lens_yc_count(8)
    with pytest.raises(EvenOrderError):
        lens_yc_count(2)
    # EvenOrderError is a ValueError, so a too small order must raise exactly ValueError
    for p in (1, 0, -3, -4):
        with pytest.raises(ValueError) as exc:
            lens_yc_count(p)
        assert type(exc.value) is ValueError


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


def _decorated_and_slid(draw, m):
    """m with a characteristic decoration drawn for it, moved by up to 6 handle slides that carry the decoration along."""
    n = len(m)
    p = presentation(m, [m[i][i] + 2 * draw(st.integers(-3, 3)) for i in range(n)])
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        p = apply_move(p, HandleSlide(i, j + (j >= i), draw(st.sampled_from((1, -1)))))
    return [list(row) for row in p.matrix.data], p.chern


@st.composite
def degenerate_decorated_forms(draw):
    """A random block plus a zero block, decorated and slid.

    The zero block makes the free rank positive by construction, with no
    filter for hypothesis to reject draws on.
    """
    k = draw(st.integers(0, 4))
    n = k + draw(st.integers(1, 6 - k))
    m = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    return _decorated_and_slid(draw, m)


DIAGONAL_ENTRIES = (0, 2, -2, 4, 8, -8, 16, 3, -3, 9, 5, 6, -12)


@st.composite
def diagonal_decorated_forms(draw):
    """diag(d_1, ..., d_k), torsion order at most 400, decorated and slid.

    Repeated entries give non-cyclic groups, powers of 2 give 2-groups
    and zeros give a free part.
    """
    budget, entries = 400, []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.sampled_from([d for d in DIAGONAL_ENTRIES if abs(d) <= budget]))
        budget //= max(abs(d), 1)
        entries.append(d)
    return _decorated_and_slid(draw, [[d if i == j else 0 for j in range(len(entries))] for i, d in enumerate(entries)])


def _report_oracle(m, chern):
    data = discriminant(IntMatrix(m))
    group = FiniteAbelianGroup(data.torsion_factors)
    slopes = radical_slope(data, chern)
    q = QuadraticFunction.from_callable(
        group, lambda w: phi_eval(data, chern, data.torsion_lift(w)), radical_slopes=slopes, check=False
    )
    elements = list(group.elements())
    gauss = cyclo_from_angles(q.values.values()).canonical()
    diagonal = tuple(
        sorted(linking_pairing(data, data.torsion_lift(w), data.torsion_lift(w)) for w in elements)
    )
    # the oracle's rational values, sorted, then written in the report's units of 1/M
    modulus = data.value_modulus

    def in_units(angles):
        assert all(modulus % a.denominator == 0 for a in angles)
        return tuple(a.numerator * (modulus // a.denominator) for a in angles)

    return Fingerprint(
        invariant_factors=data.torsion_factors,
        value_modulus=modulus,
        value_multiset=in_units(sorted(q.values.values())),
        defect_multiset=in_units(sorted(q(w) - q(group.neg(w)) for w in elements)),
        gauss=gauss,
        radical_rank=len(slopes),
        radical_gcd=math.gcd(*(int(2 * s) for s in slopes)),
    ), in_units(diagonal)


@settings(max_examples=60, deadline=None)
@given(decorated_symmetric_forms())
def test_report_matches_the_phi_eval_oracle(form):
    m, chern = form
    assume(discriminant(IntMatrix(m)).torsion_order <= 400)
    r = invariants_report(presentation(m, chern))
    oracle, diagonal = _report_oracle(m, chern)
    assert r.value_modulus == oracle.value_modulus
    assert (r.gauss.modulus, r.gauss.coeffs) == (oracle.gauss.modulus, oracle.gauss.coeffs)
    assert r.value_multiset == oracle.value_multiset
    assert r.defect_multiset == oracle.defect_multiset
    assert r.linking_diagonal == diagonal
    assert r.radical_slopes == tuple(int(s) for s in radical_slope(discriminant(IntMatrix(m)), chern))


def _canonical_reducing_every_pass(s):
    """canonical() before one reduction was shown to suffice: reduce mod Phi_n, divide by the support gcd, repeat."""
    n, coeffs = s.modulus, list(s.coeffs)
    while True:
        coeffs = _reduce_mod_cyclotomic(coeffs, n)
        coeffs += [0] * (n - len(coeffs))
        support = [j for j, c in enumerate(coeffs) if c]
        if not support:
            return CyclotomicSum(1, (0,))
        g = math.gcd(n, *support)
        if g == 1:
            return CyclotomicSum(n, coeffs)
        n //= g
        coeffs = coeffs[::g]


# The report sorts its value and self-linking tables, builds its defect
# multiset as sorted copies of range(0, M, h), and reduces its Gauss sum
# once; the histogram expansions and the reduce-every-pass loop it
# replaced are the oracles.
@settings(max_examples=100, deadline=None)
@given(st.one_of(decorated_symmetric_forms(), degenerate_decorated_forms(), diagonal_decorated_forms()))
@example(([[16, 0], [0, 16]], (0, 2)))
@example(([[2, 0, 0], [0, 6, 0], [0, 0, 0]], (2, 0, 4)))
def test_report_multisets_match_the_histogram_routes(form):
    m, chern = form
    data = discriminant(IntMatrix(m))
    assume(data.torsion_order <= 400)
    r = invariants_report(presentation(m, chern))
    modulus, factors = data.value_modulus, data.torsion_factors
    table = phi_table(data, chern)
    h = math.gcd(modulus, *_defect_character(modulus, *_generator_data(factors, modulus, table)))
    defects = dict.fromkeys(range(0, modulus, h), data.torsion_order * h // modulus)
    assert r.value_multiset == residue_multiset(Counter(table), modulus)
    assert r.defect_multiset == residue_multiset(defects, modulus)
    assert r.linking_diagonal == residue_multiset(Counter(self_linking_table(data)), modulus)
    gauss = _canonical_reducing_every_pass(cyclo_from_residues(Counter(table), modulus))
    assert (r.gauss.modulus, r.gauss.coeffs) == (gauss.modulus, gauss.coeffs)


# --- Gauss sums against Milgram's formula -----------------------------------
#
# For nondegenerate B and characteristic c, the Gauss sum of phi_c over
# the discriminant group satisfies gauss^2 = |det B| e((sigma(B) - c^T B^-1 c) / 4),
# e(t) = exp(2 pi i t).  Signature and B^-1 c come from exact elimination
# in Fraction, independent of the Smith data the report is built from.


def _signature(m):
    """sigma(B) by congruence diagonalization over Q."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    sigma = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is None:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    continue
                # x_k -> x_k + x_j makes the pivot 2 a_kj
                for i in range(n):
                    a[k][i] += a[j][i]
                for i in range(n):
                    a[i][k] += a[i][j]
            else:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
        pivot = a[k][k]
        sigma += 1 if pivot > 0 else -1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / pivot
    return sigma


def _inverse_form_value(m, c):
    """c^T B^-1 c by Gauss-Jordan elimination over Q."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(ci)] for row, ci in zip(m, c)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return sum(ci * a[i][n] / a[i][i] for i, ci in enumerate(c))


@st.composite
def milgram_forms(draw):
    n = draw(st.integers(1, 4))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-5, 5))
    det = determinant(intmatrix(m))
    assume(det != 0 and abs(det) <= 300)
    chern = tuple(m[i][i] + 2 * draw(st.integers(-3, 3)) for i in range(n))
    return m, chern


@settings(max_examples=80, deadline=None)
@given(milgram_forms())
@example(([[1]], (1,)))
@example(([[2, 1], [1, 2]], (0, 0)))
@example(([[-4, 1, 0], [1, 0, 3], [0, 3, 2]], (0, 2, 0)))
@example(([[0, 3], [3, 0]], (0, 2)))
@example(([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (2, 0, 0)))
def test_gauss_sum_squares_to_milgrams_formula(form):
    m, chern = form
    gauss = invariants_report(presentation(m, chern)).gauss
    angle = (_signature(m) - _inverse_form_value(m, chern)) / 4
    order = abs(determinant(intmatrix(m)))
    want = CyclotomicSum.integer(order) * CyclotomicSum.root_of_unity(QmodZ(angle))
    assert cyclo_equals(gauss * gauss, want)


def test_a_report_makes_no_qmodz(monkeypatch):
    # the multisets stay int residues in units of 1/value_modulus
    p = presentation(lens(4095, 2), lens(4095, 2).diagonal())
    made = Counter()
    init, reduced = QmodZ.__init__, QmodZ._reduced.__func__

    def counted_init(self, value):
        made["__init__"] += 1
        init(self, value)

    def counted_reduced(cls, value):
        made["_reduced"] += 1
        return reduced(cls, value)

    monkeypatch.setattr(QmodZ, "__init__", counted_init)
    monkeypatch.setattr(QmodZ, "_reduced", classmethod(counted_reduced))
    r = invariants_report(p)
    assert (r.value_modulus, len(r.value_multiset), len(r.linking_diagonal)) == (8190, 4095, 4095)
    assert made == Counter()
    QmodZ(1) + QmodZ._reduced(Fraction(1, 2))
    assert made == Counter({"__init__": 2, "_reduced": 1})


def _corrupted(data, **fields):
    """data with some fields replaced; a field built on first read is preset on the instance, where every read finds it."""
    lazy = {name: fields.pop(name) for name in list(fields) if name not in {f.name for f in dataclasses.fields(data)}}
    data = dataclasses.replace(data, **fields)
    vars(data).update(lazy)
    return data


def _report_on_corrupted_data(monkeypatch, p, **fields):
    original = classify_module.discriminant
    monkeypatch.setattr(classify_module, "discriminant", lambda m, **kw: _corrupted(original(m, **kw), **fields))
    return invariants_report(p)


def test_report_checks_integral_slopes(monkeypatch):
    # c = (1, 0) pairs oddly with (1, 1), which no kernel vector of diag(1, 0) is
    with pytest.raises(RuntimeError, match="not integral"):
        _report_on_corrupted_data(monkeypatch, presentation([[1, 0], [0, 0]], (1, 0)), kernel=((1, 1),))


def test_canonical_decorations_check_their_count(monkeypatch):
    # zero cokernel covectors collapse all decorations onto the diagonal;
    # they are corrupted after discriminant, whose own checks would refuse them
    original = classify_module.discriminant

    def zeroed(m):
        data = original(m)
        return dataclasses.replace(data, cok_tors_covectors=tuple((0,) * data.size for _ in data.torsion_factors))

    monkeypatch.setattr(classify_module, "discriminant", zeroed)
    with pytest.raises(RuntimeError, match="distinct decorations"):
        canonical_chern_vectors([[3]])


# --- the slope covector of the mixed sweep ------------------------------
#
# The sweep contracts couplings against W^-T s, s the kernel slopes and
# W the duality matrix.  Because 2 s = W^T f for the free cokernel part
# f of a characteristic vector, and W is unimodular, that covector is
# f / 2 with no inversion.  Handle slides move the Smith bases around,
# so check the identity on scrambled presentations.


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(1, 3),
    st.data(),
)
def test_slope_covector_is_half_the_free_part(d, b, data_strategy):
    free = data_strategy.draw(st.lists(st.integers(-3, 3), min_size=b, max_size=b))
    c0 = d % 2 + 2 * data_strategy.draw(st.integers(-2, 2))
    p = presentation([[d if i == j == 0 else 0 for j in range(b + 1)] for i in range(b + 1)], [c0] + [2 * f for f in free])
    slides = data_strategy.draw(
        st.lists(st.tuples(st.integers(0, b), st.integers(0, b), st.sampled_from((1, -1))), max_size=8)
    )
    for i, j, sign in slides:
        if i != j:
            p = apply_move(p, HandleSlide(i, j, sign))
    data = discriminant(p.matrix)
    free_part, _ = chern_coordinates(data, p.chern)
    slopes = radical_slope(data, p.chern)
    assert all(s.denominator == 1 for s in slopes)
    assert all(f % 2 == 0 for f in free_part)
    ell = solve_integer(data.duality_matrix.transpose(), [int(s) for s in slopes])
    assert ell == tuple(f // 2 for f in free_part)


# Verdicts of the mixed regime, reason strings included: the CLI prints
# them, so they are pinned on one pair per branch of the sweep.  On
# TWISTED_A and TWISTED_B the free covectors pair nontrivially with the
# torsion lifts, so both slope contractions enter the Gauss comparison.
SCRAMBLED = [[9, 9, 0], [9, 9, 0], [0, 0, 0]]
TWISTED_A = [[-3, 1, 2, 1], [1, 2, 0, 1], [2, 0, -2, -2], [1, 1, -2, -3]]
TWISTED_B = [[-3, -3, 2, -1], [-3, 0, 0, -3], [2, 0, -2, 2], [-1, -3, 2, 1]]
# Z/4 + Z/8 + Z^2: two torsion generators, so the coupling contraction
# reaches the off-diagonal linking terms
TWO_GENERATORS = [[12, -16, 0, 4], [-16, 24, 0, -8], [0, 0, 0, 0], [4, -8, 0, 4]]
# Z/4 + Z^2: its sweep charges its 16 coupling rows in one charge, so a small
# budget refuses that charge, and the sweep stops at its first section
# character; at 3 and at 7 the contraction (1,) reaches it
CUT_COUPLING = [[4, 0, 0], [0, 0, 0], [0, 0, 0]]
PINNED_MIXED = [
    (MIXED, (0, 0), MIXED, (0, 0), {}, EQUIVALENT,
     "vanishing free decoration part; torsion map ((1,),) matches the decorations and the Gauss sums agree"),
    ([[0, 0], [0, 4]], (0, 0), [[0, 0], [0, 4]], (0, 4), {}, INEQUIVALENT,
     "Gauss sums of the torsion parts differ"),
    ([[0, 0], [0, 4]], (0, 0), [[0, 0], [0, 4]], (0, 2), {}, INEQUIVALENT,
     "no pairing-preserving map matches the torsion decoration classes"),
    (MIXED, (0, 0), MIXED, (0, 0), {"budget": 1}, UNKNOWN,
     "budget ran out while sweeping torsion maps"),
    (MIXED, (2, 0), MIXED, (2, 2), {}, EQUIVALENT,
     "torsion map ((1,),) with coupling contraction (1,) and section character (0,) matches the Gauss sums"),
    ([[9, 0, 0], [0, 0, 0], [0, 0, 0]], (1, 2, 4), SCRAMBLED, (9, 5, 6), {}, EQUIVALENT,
     "torsion map ((1,),) with coupling contraction (4,) and section character (0,) matches the Gauss sums"),
    (TWISTED_A, (1, -4, -2, 5), TWISTED_A, (3, 4, 2, -1), {}, EQUIVALENT,
     "torsion map ((1,),) with coupling contraction (4,) and section character (0,) matches the Gauss sums"),
    (TWISTED_B, (5, 4, -4, 3), TWISTED_B, (1, -2, 4, 3), {}, EQUIVALENT,
     "torsion map ((1,),) with coupling contraction (0,) and section character (0,) matches the Gauss sums"),
    (MIXED, (4, 0), MIXED, (4, 2), {}, INEQUIVALENT,
     "no pairing-preserving map, coupling, and section shift reproduce the Gauss sums"),
    (MIXED, (2, 0), MIXED, (2, 2), {"budget": 5}, UNKNOWN,
     "budget ran out while comparing Gauss sums over matched sections"),
    (TWO_GENERATORS, (2, -2, -4, -2), TWO_GENERATORS, (0, -4, -2, -4), {}, EQUIVALENT,
     "torsion map ((1, 0), (0, 1)) with coupling contraction (1, 3) and section character (1, 0) matches the Gauss sums"),
    (CUT_COUPLING, (0, 2, 4), CUT_COUPLING, (2, 2, 4), {"budget": 3}, UNKNOWN,
     "budget ran out while comparing Gauss sums over matched sections"),
    (CUT_COUPLING, (0, 2, 4), CUT_COUPLING, (2, 2, 4), {"budget": 7}, UNKNOWN,
     "budget ran out while comparing Gauss sums over matched sections"),
    # no candidate of this pair reaches a section character
    ([[0, 0], [0, 4]], (4, 0), [[0, 0], [0, 4]], (4, 2), {"budget": 5}, UNKNOWN,
     "budget ran out before the sweep finished"),
]


# discriminant stores the linking pairing and the free-covector
# evaluations on the lifts as integer residues over the value modulus;
# the rational pairings on the derived lifts are the reference.  The
# three pinned forms have nonzero free-covector evaluations.
@settings(max_examples=100, deadline=None)
@given(decorated_symmetric_forms().filter(lambda form: len(form[0]) <= 5))
@example((TWISTED_A, None))
@example((TWISTED_B, None))
@example((TWO_GENERATORS, None))
def test_integer_discriminant_data_matches_the_rational_pairings(form):
    data = discriminant(IntMatrix(form[0]))
    modulus = data.value_modulus
    lifts = data.lifts
    assert [[Fraction(r, modulus) for r in row] for row in data.linking] == [
        [linking_pairing(data, gi, gj).value for gj in lifts] for gi in lifts
    ]
    assert [[Fraction(r, modulus) for r in row] for row in data.eval_free_lift] == [
        [evaluation_pairing(fm, gi).value for gi in lifts] for fm in data.cok_free_covectors
    ]


@pytest.mark.parametrize("m1, c1, m2, c2, kwargs, status, reason", PINNED_MIXED)
def test_mixed_verdicts_are_pinned(m1, c1, m2, c2, kwargs, status, reason):
    v = yc_equivalent(presentation(m1, c1), presentation(m2, c2), **kwargs)
    assert (v.status, v.reason, v.witness) == (status, reason, None)


# _coupling_contractions takes the sweep's free part to be 2 ell: the free
# cokernel coordinates of a characteristic vector are even whatever the form
@settings(max_examples=100, deadline=None)
@given(degenerate_decorated_forms())
@example((TWISTED_A, (1, -4, -2, 5)))
@example((TWISTED_B, (5, 4, -4, 3)))
@example((TWO_GENERATORS, (2, -2, -4, -2)))
def test_free_decoration_part_is_even(form):
    m, chern = form
    data = discriminant(IntMatrix(m))
    assert data.free_rank > 0
    free, _ = chern_coordinates(data, chern)
    assert all(f % 2 == 0 for f in free)


# The free decoration gcd is read off the slopes: coker(B)/torsion is
# Hom(ker B, Z), so the free cokernel coordinates of c and twice its
# slopes on a kernel basis differ by the unimodular duality matrix.
@settings(max_examples=100, deadline=None)
@given(decorated_symmetric_forms())
@example(([[0]], (2,)))
@example((TWISTED_A, (1, -4, -2, 5)))
@example((TWO_GENERATORS, (2, -2, -4, -2)))
def test_free_gcd_is_twice_the_slope_gcd(form):
    m, chern = form
    data = discriminant(IntMatrix(m))
    assume(data.torsion_order <= 1000)
    free, _ = chern_coordinates(data, chern)
    r = invariants_report(presentation(m, chern))
    assert r.chern_free_gcd == math.gcd(*free) == 2 * math.gcd(*radical_slope(data, chern))


# The torsion-free regime reads only the kernel basis and the slopes: on
# [[0]], on E8 + H + 0 + 0 and on a slid copy, reports and decisions are
# the same with every replay of U and U^-1 refused.  A mixed form still
# replays them.
def _e8_h_00(c_zeros):
    blocks = [presentation(e8(), (0,) * 8), presentation([[0, 1], [1, 0]], (2, 0))]
    return functools.reduce(connected_sum, blocks + [presentation([[0]], (c,)) for c in c_zeros])


def _slid(p, seed, slides=60):
    rng = random.Random(seed)
    for _ in range(slides):
        i, j = rng.sample(range(p.matrix.rows), 2)
        p = apply_move(p, HandleSlide(i, j, rng.choice((1, -1))))
    return p


def test_the_torsion_free_route_replays_no_row_operation(monkeypatch):
    forms = [presentation([[0]], (2,)), _e8_h_00((4, 6)), _slid(_e8_h_00((4, 6)), 0)]
    pairs = [
        (forms[0], presentation([[0]], (6,))),
        (forms[2], forms[1]),
        (forms[2], _slid(_e8_h_00((4, 8)), 1)),
    ]
    reports = [invariants_report(p) for p in forms]

    def refuse(self, idx):
        raise AssertionError("replayed U or U^-1")

    monkeypatch.setattr(SmithDecomposition, "uinv_columns", refuse)
    monkeypatch.setattr(SmithDecomposition, "u_rows", refuse)
    assert [invariants_report(p) for p in forms] == reports
    assert [(r.free_rank, r.torsion_factors, r.chern_free_gcd, r.radical_slopes) for r in reports] == [
        (1, (), 2, (1,)),
        (2, (), 2, (2, 3)),
        (2, (), 2, (2, 3)),
    ]
    assert [(v.status, v.reason) for v in (yc_equivalent(*pair) for pair in pairs)] == [
        (INEQUIVALENT, "free decoration orbits differ: gcd 2 vs 6"),
        (EQUIVALENT, "free first homology of rank 2 with matching decoration gcd 2"),
        (INEQUIVALENT, "free decoration orbits differ: gcd 2 vs 4"),
    ]
    for run in (invariants_report, lambda p: yc_equivalent(p, p)):
        with pytest.raises(AssertionError, match="replayed"):
            run(presentation(MIXED, (2, 0)))


def test_only_the_mixed_sweep_replays_the_free_generators(monkeypatch):
    # mixed reports, the radical-blind route and a pair whose free
    # decoration gcds differ read only the slopes, so they build no free
    # covector, free U row or duality matrix; the sweep does
    forms = [presentation(MIXED, (2, 0)), presentation(SWEEP_PAIR[0], SWEEP_PAIR[1]), presentation(SWEEP_PAIR[2], SWEEP_PAIR[3])]
    reports = [invariants_report(p) for p in forms]

    def refuse(self):
        raise AssertionError("replayed a free Smith generator")

    monkeypatch.setattr(DiscriminantData, "cok_free_covectors", property(refuse))
    monkeypatch.setattr(DiscriminantData, "u_free_rows", property(refuse))
    assert [invariants_report(p) for p in forms] == reports
    assert [(v.status, v.reason) for v in (
        yc_equivalent(presentation(MIXED, (2, 0)), presentation(MIXED, (4, 0))),
        yc_equivalent(presentation(BLIND_PAIR[0], BLIND_PAIR[1]), presentation(BLIND_PAIR[2], BLIND_PAIR[3])),
    )] == [
        (INEQUIVALENT, "free decoration orbits differ: gcd 2 vs 4"),
        (INEQUIVALENT, "Gauss sums of the torsion parts differ"),
    ]
    with pytest.raises(AssertionError, match="free Smith generator"):
        yc_equivalent(forms[1], forms[2])


# The pairing oracle shares the torsion-map search with the sweep's
# radical-blind branch but keeps its own reason strings.
PINNED_PAIRING = [
    ([[2]], (0,), (0,), {}, EQUIVALENT, "torsion map ((1,),) matches the decorations and the Gauss sums agree"),
    ([[2]], (0,), (2,), {}, INEQUIVALENT, "Gauss sums differ"),
    ([[4]], (0,), (2,), {}, INEQUIVALENT, "no pairing-preserving map matches the decoration classes"),
    ([[3, 0], [0, 3]], (1, 1), (1, 1), {"budget": 1}, UNKNOWN, "budget ran out while sweeping torsion maps"),
]


@pytest.mark.parametrize("m, c1, c2, kwargs, status, reason", PINNED_PAIRING)
def test_pairing_verdicts_are_pinned(m, c1, c2, kwargs, status, reason):
    v = yc_equivalent_by_pairing(presentation(m, c1), presentation(m, c2), **kwargs)
    assert (v.status, v.reason, v.witness) == (status, reason, None)


# Each side's discriminant data, decoration coordinates and slopes are
# computed once per decision and passed down, and the slope check still
# runs on both sides.  The free coordinates are computed only where the
# sweep reads them, so not on the radical-blind route.
SWEEP_PAIR = ([[9, 0, 0], [0, 0, 0], [0, 0, 0]], (1, 2, 4), SCRAMBLED, (9, 5, 6))
BLIND_PAIR = (MIXED, (0, 0), MIXED, (0, 2))


@pytest.mark.parametrize("m1, c1, m2, c2", [SWEEP_PAIR, BLIND_PAIR])
def test_each_side_is_computed_once(monkeypatch, m1, c1, m2, c2):
    calls = {}
    for name in ("discriminant", "_chern_coordinates", "_radical_slope"):
        original = getattr(classify_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(classify_module, name, counted)
    yc_equivalent(presentation(m1, c1), presentation(m2, c2))
    # two decorations of one matrix, as in BLIND_PAIR, share its discriminant data
    expected = {"discriminant": 1 if m1 == m2 else 2, "_chern_coordinates": 2, "_radical_slope": 2}
    if (m1, c1, m2, c2) == BLIND_PAIR:
        del expected["_chern_coordinates"]
    assert calls == expected


@pytest.mark.parametrize("m1, c1, m2, c2", [SWEEP_PAIR, BLIND_PAIR])
def test_a_mixed_decision_builds_one_value_table(monkeypatch, m1, c1, m2, c2):
    # side 1 is read from its generator values, so only side 2 is tabulated
    original = classify_module.torsion_table
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(classify_module, "torsion_table", counted)
    yc_equivalent(presentation(m1, c1), presentation(m2, c2))
    assert len(calls) == 1


def _on_one_form(m, c1, c2):
    return m, c1, m, c2


# Steps that the mixed sweep charged before its leaves stopped testing
# bijectivity, which a nondegenerate pairing implies: charges are made per
# candidate, not per leaf, so they stay.
@pytest.mark.parametrize(
    "pair, budget, status, spent",
    [
        (SWEEP_PAIR, DEFAULT_SEARCH_BUDGET, EQUIVALENT, 92),
        (BLIND_PAIR, DEFAULT_SEARCH_BUDGET, INEQUIVALENT, 2),
        (_on_one_form(*BUDGET_PAIRS[0]), DEFAULT_SEARCH_BUDGET, UNKNOWN, 531_470),
        (_on_one_form(*BUDGET_PAIRS[0]), 531_470, EQUIVALENT, 531_470),
        (_on_one_form(*BUDGET_PAIRS[1]), DEFAULT_SEARCH_BUDGET, UNKNOWN, 1_048_594),
    ],
    ids=["sweep", "blind", "z27-z4", "z27-z4-edge", "z16-z5"],
)
def test_mixed_sweeps_spend_the_pinned_budget(monkeypatch, pair, budget, status, spent):
    budgets = []

    class Recorded(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(classify_module, "_Budget", Recorded)
    m1, c1, m2, c2 = pair
    v = yc_equivalent(presentation(m1, c1), presentation(m2, c2), budget=budget)
    assert (v.status, [b.spent for b in budgets]) == (status, [spent])


def _sweep_with_corrupted_duality(monkeypatch, corrupted_matrix):
    """SWEEP_PAIR decided with a wrong duality matrix W on the side with this matrix."""
    m1, c1, m2, c2 = SWEEP_PAIR
    original = classify_module.discriminant

    def corrupt(matrix):
        data = original(matrix)
        if matrix == intmatrix(corrupted_matrix):
            data = _corrupted(data, duality_matrix=IntMatrix([[2, 0], [0, 2]]))
        return data

    monkeypatch.setattr(classify_module, "discriminant", corrupt)
    return yc_equivalent(presentation(m1, c1), presentation(m2, c2))


def test_sweep_checks_the_first_sides_duality_identity(monkeypatch):
    # a report reads no duality matrix, so the identity is checked where the mixed sweep reads it
    with pytest.raises(RuntimeError, match="duality identity"):
        _sweep_with_corrupted_duality(monkeypatch, SWEEP_PAIR[0])


def test_sweep_checks_the_second_sides_duality_identity(monkeypatch):
    with pytest.raises(RuntimeError, match="duality identity"):
        _sweep_with_corrupted_duality(monkeypatch, SWEEP_PAIR[2])


# The characteristic parity of a decoration is checked once per side, in
# _side, and the internal route reads the unchecked lattice helpers; the
# public evaluators keep their own check.
FINITE_PAIR = ([[5]], (1,), [[5]], (3,))
FREE_PAIR = ([[0]], (2,), [[0, 0], [0, 1]], (4, 1))


@pytest.mark.parametrize("m1, c1, m2, c2", [SWEEP_PAIR, BLIND_PAIR, FINITE_PAIR, FREE_PAIR])
def test_each_decoration_is_checked_once(monkeypatch, m1, c1, m2, c2):
    p1, p2 = presentation(m1, c1), presentation(m2, c2)
    calls = Counter()
    original = lattice_module.is_characteristic

    def counted(*args):
        calls["parity"] += 1
        return original(*args)

    monkeypatch.setattr(lattice_module, "is_characteristic", counted)
    yc_equivalent(p1, p2)
    assert calls["parity"] == 2
    calls.clear()
    invariants_report(p1)
    assert calls["parity"] == 1
    data = discriminant(intmatrix(m1))
    bad = (c1[0] + 1,) + tuple(c1[1:])
    for public in (chern_coordinates, radical_slope, phi_generators, phi_table, classify_module._side):
        with pytest.raises(CharacteristicError):
            public(data, bad)


# --- the phase lookup against the cyclotomic sweep --------------------------
#
# The mixed sweep and the torsion-map route decide Gauss-sum agreement by
# gamma(q + b(., t)) = e(-q(t)) gamma(q): one integer congruence per
# comparison.  The route they replace, which built and compared exact
# cyclotomic Gauss sums for every candidate, is kept below verbatim as the
# oracle; patched into the module, it must give the same status, reason
# and witness at every budget.


def _oracle_torsion_map_verdict(
    side1: _Side,
    side2: _Side,
    cap: int,
    budget: _Budget,
    reasons: tuple[str, str, str],
) -> EquivalenceVerdict:
    """Match decoration classes by a pairing-preserving torsion map, then compare Gauss sums.

    Sound when the Gauss sums do not depend on the section, i.e. when
    the decorations are blind to the radical.  reasons holds the prose
    for: no matching map, equivalence (formatted with the map), and a
    Gauss sum mismatch.
    """
    data1, data2 = side1.data, side2.data
    factors = data1.torsion_factors
    modulus = data1.value_modulus
    values1 = side1.table(cap)
    values2 = side2.table(cap)
    group = FiniteAbelianGroup(factors)
    link1, link2 = data1.linking, data2.linking
    no_map, equivalent, gauss_differ = reasons
    elements = list(group.elements())
    k = len(factors)
    for images in _isometries(factors, modulus, link1, link2, range(k), [elements] * k, budget.charge):
        if GroupIso(group, group, images).apply(side1.tors) == side2.tors:
            break
    else:
        if budget.exhausted:
            return EquivalenceVerdict(UNKNOWN, "budget ran out while sweeping torsion maps")
        return EquivalenceVerdict(INEQUIVALENT, no_map)
    if cyclo_from_residues(Counter(values1), modulus) == cyclo_from_residues(Counter(values2), modulus):
        return EquivalenceVerdict(EQUIVALENT, equivalent.format(images))
    return EquivalenceVerdict(INEQUIVALENT, gauss_differ)


def _oracle_mixed_verdict(
    side1: _Side, side2: _Side, cap: int, budget: _Budget, *, truncating_walk: bool = False
) -> EquivalenceVerdict:
    """Sweep candidate maps when both free rank and torsion are present.

    A candidate consists of a pairing-preserving torsion map d, a
    coupling of the free part into torsion, and a section shift; the
    coupling enters the Gauss comparison only through its contraction
    mu against the slope covector, and the section shift only through
    a character chi ranging over the subgroup the slopes generate.
    For each candidate the sum on one side is re-expressed over the
    matched section and compared exactly with the other side.  The
    coupling rows are walked one by one; truncating_walk charges them
    one step each, as the sweep once did, instead of all at once.

    Every table holds residues in units of 1/M, M the value modulus,
    as do data.linking and data.eval_free_lift; tables are indexed by
    element position in itertools.product order.
    """
    data1, data2 = side1.data, side2.data
    g = math.gcd(*_integral_slopes(data1, side1.chern, side1.free))
    # side 2's slopes enter nowhere, but its duality check must run
    _integral_slopes(data2, side2.chern, side2.free)
    if g == 0:
        # decoration is blind to the radical: the Gauss sums are section
        # independent and the candidate map only has to match the
        # torsion decoration classes
        return _oracle_torsion_map_verdict(side1, side2, cap, budget, _MIXED_BLIND_REASONS)

    factors = data1.torsion_factors
    modulus = data1.value_modulus
    q1 = side1.table(cap)
    q2 = side2.table(cap)
    group = FiniteAbelianGroup(factors)
    elements = list(group.elements())
    free1 = side1.free
    b = data1.free_rank
    link1, link2 = data1.linking, data2.linking
    # the slope covector W^-T slopes is free/2, since _integral_slopes
    # checked 2 slopes = W^T free and discriminant checked W unimodular
    ell1 = tuple(f // 2 for f in free1)
    ell2 = tuple(f // 2 for f in side2.free)

    def contraction(data: DiscriminantData, ell: tuple[int, ...]) -> list[int]:
        # ell against the free-covector evaluations: one angle per torsion generator
        return [sum(e * row[i] for e, row in zip(ell, data.eval_free_lift)) % modulus for i in range(len(factors))]

    # side-1 angles against the stored section, slope-corrected; the
    # candidate-dependent remainder is subtracted per sweep step
    base1 = [(q + p) % modulus for q, p in zip(q1, _linear_table(contraction(data1, ell1), factors, modulus))]
    row2 = contraction(data2, ell2)

    char_axes = [range(0, d, math.gcd(g, d)) for d in factors]
    chi_cache: dict[tuple[int, ...], list[int]] = {}
    gamma2_cache: dict[tuple[int, ...], CyclotomicSum] = {}

    def chi_of(avec: tuple[int, ...]) -> list[int]:
        if avec not in chi_cache:
            chi_cache[avec] = _linear_table([a * (modulus // d) for a, d in zip(avec, factors)], factors, modulus)
        return chi_cache[avec]

    def gamma2_of(avec: tuple[int, ...]) -> CyclotomicSum:
        if avec not in gamma2_cache:
            shifted = Counter((x - c) % modulus for x, c in zip(q2, chi_of(avec)))
            gamma2_cache[avec] = cyclo_from_residues(shifted, modulus)
        return gamma2_cache[avec]

    mu_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def mu_choices(d_l: int, v_l: int) -> tuple[int, ...]:
        # contractions of an admissible coupling row against the slope
        # covector; the row itself is never needed beyond this value.  The
        # rows are charged at once; a truncating walk stops at the first
        # refused step and keeps only the rows it counted
        key = (d_l, v_l)
        if key not in mu_cache:
            if truncating_walk:
                walk = budget
            else:
                budget.charge(d_l**b)
                walk = _Budget(d_l**b)
            mu_cache[key] = _walked_contractions(free1, ell1, d_l, walk)[v_l]
        return mu_cache[key]

    k = len(factors)
    for images in _isometries(factors, modulus, link1, link2, range(k), [elements] * k, budget.charge):
        mapped = GroupIso(group, group, images).apply(side1.tors)
        v = tuple((t - s) % d for t, s, d in zip(side2.tors, mapped, factors))
        if any(vl % math.gcd(g, dl) for vl, dl in zip(v, factors)):
            continue
        axes = [mu_choices(dl, vl) for dl, vl in zip(factors, v)]
        if any(not axis for axis in axes):
            continue
        dmap = _image_positions(factors, images)
        for mu in itertools.product(*axes):
            # side-2 slope correction plus the pairing with the coupling, linear in u
            row = [(r + sum(ml * link2[l][i] for l, ml in enumerate(mu))) % modulus for i, r in enumerate(row2)]
            drop2 = _linear_table(row, factors, modulus)
            angles = [0] * len(elements)
            for w, u in enumerate(dmap):
                angles[u] = base1[w] - drop2[u]
            for avec in itertools.product(*char_axes):
                if not budget.charge(len(elements)):
                    return EquivalenceVerdict(
                        UNKNOWN, "budget ran out while comparing Gauss sums over matched sections"
                    )
                shifted = Counter((a - c) % modulus for a, c in zip(angles, chi_of(avec)))
                gamma1 = cyclo_from_residues(shifted, modulus)
                if gamma1 == gamma2_of(avec):
                    return EquivalenceVerdict(
                        EQUIVALENT,
                        f"torsion map {images} with coupling contraction {mu} and section character {avec} matches the Gauss sums",
                    )
    if budget.exhausted:
        return EquivalenceVerdict(UNKNOWN, "budget ran out before the sweep finished")
    return EquivalenceVerdict(
        INEQUIVALENT,
        "no pairing-preserving map, coupling, and section shift reproduce the Gauss sums",
    )


# --- coupling contractions against the row walk ---------------------------
#
# _coupling_contractions reads the contractions off 2x = v (mod d), the sweep's
# free part being 2 ell.  The walk over the coupling rows is kept here as the
# oracle, on that domain, one walk serving every v.


def _walked_contractions(free, ell, d, budget):
    """For every v, the sorted ell.rho mod d over the rows rho with free.rho = v that the walk counts."""
    out = {}
    for rho in itertools.product(range(d), repeat=len(free)):
        if not budget.charge():
            break
        out.setdefault(sum(f * r for f, r in zip(free, rho)) % d, set()).add(sum(e * r for e, r in zip(ell, rho)) % d)
    return {v: tuple(sorted(out.get(v, ()))) for v in range(d)}


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 30), st.lists(st.integers(-60, 60), min_size=1, max_size=5))
@example(30, [0, -1, 1, 0, -1])
@example(27, [1, 2, 2])
@example(9, [3, 0, 6])
@example(10, [2, 1])
@example(8, [0, 0])
def test_coupling_contractions_match_the_row_walk(d, ell):
    # the walk may visit at most 20,000 rows in one example
    while d ** len(ell) > 20_000:
        ell = ell[:-1]
    walked = _walked_contractions([2 * e for e in ell], ell, d, _Budget(d ** len(ell)))
    assert {v: classify_module._coupling_contractions(ell, d, v) for v in range(d)} == walked


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5000), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8), st.integers(0, 10**6))
def test_coupling_contractions_at_full_budget_follow_the_closed_form(d, ell, v):
    # with free = 2 ell the pairs (free.rho, ell.rho) are (2x, x) for x in
    # the multiples of gcd(ell, d), so no walk is needed to know the set;
    # d^b here is far past what the row walk above can visit
    v %= d
    got = classify_module._coupling_contractions(ell, d, v)
    step = math.gcd(d, *ell)
    assert got == tuple(x for x in range(0, d, step) if (2 * x - v) % d == 0)
    assert len(got) <= 2 and all((2 * x - v) % d == 0 and x % step == 0 for x in got)


def _verdicts(decide, p1, p2):
    out = []
    for budget in (1, 5, 50, classify_module.DEFAULT_SEARCH_BUDGET):
        v = decide(p1, p2, budget=budget)
        out.append((v.status, v.reason, v.witness))
    return out


def _oracle_verdicts(decide, p1, p2):
    with mock.patch.object(classify_module, "_mixed_verdict", _oracle_mixed_verdict), mock.patch.object(
        classify_module, "_torsion_map_verdict", _oracle_torsion_map_verdict
    ):
        return _verdicts(decide, p1, p2)


def _slid_mixed_pair(pick):
    """Two decorations of [A] + 0_b, each moved by its own handle slides; pick(lo, hi) draws an integer."""
    k, b = pick(1, 2), pick(1, 2)
    n = k + b
    m = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = pick(-4, 4)
    c1 = [m[i][i] + 2 * pick(-3, 3) for i in range(n)]
    if pick(0, 4) == 0:
        # vanishing free part: the radical-blind branch
        c1 = [x if i < k else 0 for i, x in enumerate(c1)]
    c2 = c1 if pick(0, 1) else [m[i][i] + 2 * pick(-3, 3) for i in range(n)]
    out = []
    for c in (c1, c2):
        p = presentation(m, c)
        for _ in range(pick(0, 8)):
            i = pick(0, n - 1)
            j = (i + pick(1, n - 1)) % n
            p = apply_move(p, HandleSlide(i, j, 2 * pick(0, 1) - 1))
        out.append(p)
    return tuple(out)


def _contraction_is_nonzero(p):
    # the slope correction of the sweep, f/2 against the free-covector evaluations
    data = discriminant(p.matrix)
    free, _ = chern_coordinates(data, p.chern)
    rows = [sum(f // 2 * row[i] for f, row in zip(free, data.eval_free_lift)) for i in range(len(data.torsion_factors))]
    return any(r % data.value_modulus for r in rows)


@st.composite
def slid_mixed_pairs(draw):
    p1, p2 = _slid_mixed_pair(lambda lo, hi: draw(st.integers(lo, hi)))
    assume(2 <= discriminant(p1.matrix).torsion_order <= 64)
    return p1.matrix.data, p1.chern, p2.matrix.data, p2.chern


@settings(max_examples=60, deadline=None)
@given(slid_mixed_pairs())
@example((TWISTED_A, (1, -4, -2, 5), TWISTED_A, (3, 4, 2, -1)))
@example((TWISTED_B, (5, 4, -4, 3), TWISTED_B, (1, -2, 4, 3)))
@example((TWO_GENERATORS, (2, -2, -4, -2), TWO_GENERATORS, (0, -4, -2, -4)))
@example((MIXED, (4, 0), MIXED, (4, 2)))
def test_phase_lookup_matches_the_cyclotomic_sweep(pair):
    m1, c1, m2, c2 = pair
    p1, p2 = presentation(m1, c1), presentation(m2, c2)
    assert _verdicts(yc_equivalent, p1, p2) == _oracle_verdicts(yc_equivalent, p1, p2)


def test_phase_lookup_matches_the_sweep_on_seeded_twisted_pairs():
    # slides of [A] + 0_b give free covectors that pair nontrivially with
    # the torsion lifts on some pairs; the floor keeps those in the corpus
    rng = random.Random(20261018)
    twisted = swept = 0
    while swept < 240:
        p1, p2 = _slid_mixed_pair(rng.randint)
        data1, data2 = discriminant(p1.matrix), discriminant(p2.matrix)
        if not 2 <= data1.torsion_order <= 64:
            continue
        free1, _ = chern_coordinates(data1, p1.chern)
        free2, _ = chern_coordinates(data2, p2.chern)
        if math.gcd(*free1) == 0 or math.gcd(*free1) != math.gcd(*free2):
            continue
        swept += 1
        twisted += _contraction_is_nonzero(p1) or _contraction_is_nonzero(p2)
        assert _verdicts(yc_equivalent, p1, p2) == _oracle_verdicts(yc_equivalent, p1, p2), (p1, p2)
    assert twisted >= 20, twisted


# Charging the coupling rows at once, where the sweep once walked them one
# step each and kept the rows it counted, moves no status or witness: a
# refused charge exhausts the budget either way, and the sweep charges each
# section character before it tests it.  Only the unknown reason may move,
# when the cut walk left a coupling axis empty that the full set fills.
_CUT_BUDGETS = (0, 1, 2, 3, 5, 7, 10, 20, 50, 200, 1_000, classify_module.DEFAULT_SEARCH_BUDGET)
_SWEEP_RAN_OUT = "budget ran out before the sweep finished"


def test_one_step_coupling_charge_keeps_the_truncating_walks_verdicts():
    rng = random.Random(20261019)
    truncating = functools.partial(_oracle_mixed_verdict, truncating_walk=True)
    swept = moved = 0
    while swept < 100:
        p1, p2 = _slid_mixed_pair(rng.randint)
        data1, data2 = discriminant(p1.matrix), discriminant(p2.matrix)
        if not 2 <= data1.torsion_order <= 64:
            continue
        free1, _ = chern_coordinates(data1, p1.chern)
        free2, _ = chern_coordinates(data2, p2.chern)
        if math.gcd(*free1) != math.gcd(*free2):
            continue
        swept += 1
        for budget in _CUT_BUDGETS:
            new = yc_equivalent(p1, p2, budget=budget)
            with mock.patch.object(classify_module, "_mixed_verdict", truncating), mock.patch.object(
                classify_module, "_torsion_map_verdict", _oracle_torsion_map_verdict
            ):
                old = yc_equivalent(p1, p2, budget=budget)
            assert (new.status, new.witness) == (old.status, old.witness), (p1, p2, budget)
            if new.reason != old.reason:
                assert (old.reason, new.reason) == (_SWEEP_RAN_OUT, _SECTIONS_RAN_OUT), (p1, p2, budget)
                assert budget < classify_module.DEFAULT_SEARCH_BUDGET
                moved += 1
    assert moved >= 50, moved


def _shifted_table(data, chern, s):
    """phi_table of the decoration plus the character b(., s), s given by coordinates."""
    factors, modulus = data.torsion_factors, data.value_modulus
    values = phi_table(data, chern)
    # b(g_j, s) on each generator, then b(., s) on every element
    row = [sum(x * data.linking[j][i] for i, x in enumerate(s)) % modulus for j in range(len(factors))]
    return [(v + w) % modulus for v, w in zip(values, _linear_table(row, factors, modulus))]


def test_phase_lookup_matches_the_sweep_on_shifted_refinements():
    # q2 + b2(., s) refines the same pairing as q2 but need not come from
    # a decoration, so matches land on arbitrary phases q2(t)
    rng = random.Random(20261020)
    swept = 0
    while swept < 120:
        p1, p2 = _slid_mixed_pair(rng.randint)
        data1, data2 = discriminant(p1.matrix), discriminant(p2.matrix)
        if not 2 <= data1.torsion_order <= 64:
            continue
        side1, side2 = classify_module._side(data1, p1.chern), classify_module._side(data2, p2.chern)
        if math.gcd(*side1.free) == 0 or math.gcd(*side1.free) != math.gcd(*side2.free):
            continue
        swept += 1
        s = [rng.randrange(d) for d in data2.torsion_factors]
        table = _shifted_table(data2, p2.chern, s)
        for budget in (5, 50, classify_module.DEFAULT_SEARCH_BUDGET):
            verdicts = [
                decide(side1, dataclasses.replace(side2, _table=table), DEFAULT_ORDER_CAP, _Budget(budget))
                for decide in (classify_module._mixed_verdict, _oracle_mixed_verdict)
            ]
            assert verdicts[0] == verdicts[1], (p1, p2, s)


def test_torsion_map_route_matches_the_oracle_on_shifted_refinements():
    rng = random.Random(20261021)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        if not 2 <= abs(determinant(intmatrix(rows))) <= 60:
            continue
        done += 1
        c1, c2 = rng.choice(canonical_chern_vectors(rows)), rng.choice(canonical_chern_vectors(rows))
        p2, _ = random_walk(presentation(rows, c2), rng.randint(0, 6), seed=rng.randint(0, 10**6))
        data1, data2 = discriminant(intmatrix(rows)), discriminant(p2.matrix)
        s = [rng.randrange(d) for d in data2.torsion_factors]
        side2 = dataclasses.replace(classify_module._side(data2, p2.chern), _table=_shifted_table(data2, p2.chern, s))
        verdicts = [
            decide(classify_module._side(data1, c1), side2, DEFAULT_ORDER_CAP, _Budget(10**6), classify_module._PAIRING_REASONS)
            for decide in (classify_module._torsion_map_verdict, _oracle_torsion_map_verdict)
        ]
        assert verdicts[0] == verdicts[1], (rows, c1, p2, s)


def test_pairing_route_matches_the_cyclotomic_oracle():
    rng = random.Random(20261019)
    pool = _random_finite_presentations(rng, 12)
    pool.append(presentation([[1]], (1,)))
    pool.append(presentation([[-1]], (1,)))
    pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i:]]
    for a, b in pairs:
        assert _verdicts(yc_equivalent_by_pairing, a, b) == _oracle_verdicts(yc_equivalent_by_pairing, a, b), (a, b)


@settings(max_examples=60, deadline=None)
@given(decorated_symmetric_forms(), st.integers(0, 10**6))
@example(([[2]], (0,)), 1)
@example((TWO_GENERATORS, (2, -2, -4, -2)), 11)
def test_gauss_sum_of_a_shifted_function(form, index):
    # gamma(q + b(., t)) = e(-q(t)) gamma(q) for every torsion element t
    m, chern = form
    data = discriminant(IntMatrix(m))
    assume(data.torsion_order <= 400)
    modulus = data.value_modulus
    q = phi_table(data, chern)
    t = index % len(q)
    shifted = _shifted_table(data, chern, list(FiniteAbelianGroup(data.torsion_factors).elements())[t])
    gamma = cyclo_from_residues(Counter(q), modulus)
    phase = CyclotomicSum.root_of_unity(QmodZ(Fraction(-q[t], modulus)))
    assert cyclo_equals(cyclo_from_residues(Counter(shifted), modulus), phase * gamma)


@pytest.mark.parametrize(
    "decide, m1, c1, m2, c2",
    [
        (yc_equivalent_by_pairing, [[2]], (0,), [[2]], (2,)),
        (yc_equivalent, *BLIND_PAIR),
        (yc_equivalent, *SWEEP_PAIR),
    ],
)
def test_degenerate_linking_is_refused(monkeypatch, decide, m1, c1, m2, c2):
    # a zero pairing has every element in its radical; the phase lookup
    # needs every character to be b(., t) for exactly one t
    original = classify_module.discriminant

    def degenerate(matrix):
        data = original(matrix)
        return dataclasses.replace(data, linking=tuple((0,) * len(row) for row in data.linking))

    monkeypatch.setattr(classify_module, "discriminant", degenerate)
    with pytest.raises(RuntimeError, match="degenerate"):
        decide(presentation(m1, c1), presentation(m2, c2))
