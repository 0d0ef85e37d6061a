import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadlink.exact import QmodZ, cyclo_abs_squared, cyclo_from_angles
from quadlink.lattice import discriminant, phi_eval
import quadlink.quadfun as quadfun_module
from quadlink.quadfun import (
    DEFAULT_ORDER_CAP,
    FiniteAbelianGroup,
    OrderCapExceeded,
    QuadraticFunction,
    bilinear_of,
    defect_of,
    gauss_sum,
    invariant_fingerprint,
    is_isomorphic,
    radical_compatible,
    table_fingerprint,
    _defect_character,
    _generator_isomorphism,
    _image_positions,
    _isometries,
    _nondegenerate,
    _quadratic_table,
)
from quadlink.classify import EQUIVALENT, INEQUIVALENT, _character_positions, canonical_chern_vectors, yc_equivalent
from quadlink.presentation import presentation
from quadlink.zlinalg import determinant, intmatrix


def table_from_matrix(rows, chern):
    """Finite quadratic function of a nondegenerate decorated form."""
    data = discriminant(intmatrix(rows))
    assert data.free_rank == 0
    data.require_characteristic(chern)
    group = FiniteAbelianGroup(data.torsion_factors)
    return QuadraticFunction.from_callable(
        group, lambda a: phi_eval(data, chern, data.torsion_lift(a))
    )


def oracle_isomorphic(q1, q2):
    """Exhaustive reference decision with no pruning at all.

    Every order-respecting generator-image tuple is tried, each one is
    expanded to the full map, and the full map is tested for bijectivity
    and pointwise agreement.  Exponential, so only for tiny groups.
    """
    g1, g2 = q1.group, q2.group
    if g1.invariant_factors != g2.invariant_factors:
        return False
    k = len(g1.invariant_factors)
    domain = list(g1.elements())
    for images in itertools.product(g2.elements(), repeat=k):
        if any(
            g2.scale(d, m) != g2.zero() for d, m in zip(g1.invariant_factors, images)
        ):
            continue
        def psi(x):
            acc = g2.zero()
            for a, m in zip(x, images):
                acc = g2.add(acc, g2.scale(a, m))
            return acc
        image_set = {psi(x) for x in domain}
        if len(image_set) != g2.order:
            continue
        if all(q2(psi(x)) == q1(x) for x in domain):
            return True
    return False


# decorated nondegenerate forms spanning cyclic and 2-generator torsion
ORACLE_FORMS = [
    ([[2]], (2,)),
    ([[2]], (0,)),
    ([[-2]], (0,)),
    ([[3]], (3,)),
    ([[3]], (1,)),
    ([[5]], (5,)),
    ([[5]], (1,)),
    ([[2, 1], [1, 2]], (2, 2)),
    ([[2, 0], [0, 2]], (2, 2)),
    ([[2, 0], [0, 2]], (0, 2)),
    ([[2, 0], [0, 4]], (2, 4)),
    ([[0, 2], [2, 0]], (0, 0)),
    ([[0, 2], [2, 0]], (2, 0)),
    ([[4]], (2,)),
    ([[-4]], (0,)),
]


class TestGroup:
    def test_order_and_enumeration(self):
        g = FiniteAbelianGroup((2, 6))
        assert g.order == 12
        elements = list(g.elements())
        assert len(elements) == 12
        assert len(set(elements)) == 12
        assert elements[0] == (0, 0)

    def test_arithmetic(self):
        g = FiniteAbelianGroup((2, 6))
        assert g.add((1, 5), (1, 2)) == (0, 1)
        assert g.neg((1, 2)) == (1, 4)
        assert g.scale(4, (1, 5)) == (0, 2)

    def test_element_order(self):
        g = FiniteAbelianGroup((2, 6))
        assert g.element_order((0, 0)) == 1
        assert g.element_order((1, 0)) == 2
        assert g.element_order((0, 2)) == 3
        assert g.element_order((1, 1)) == 6

    def test_trivial_group(self):
        g = FiniteAbelianGroup(())
        assert g.order == 1
        assert list(g.elements()) == [()]

    def test_bad_factors_rejected(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((2, 3))


class TestConstruction:
    def test_nonzero_at_origin_rejected(self):
        g = FiniteAbelianGroup((2,))
        with pytest.raises(ValueError, match="vanish"):
            QuadraticFunction(g, {(0,): QmodZ(Fraction(1, 2)), (1,): QmodZ(0)})

    def test_non_quadratic_table_rejected(self):
        g = FiniteAbelianGroup((5,))
        table = {(x,): QmodZ(Fraction(x, 5)) for x in range(5)}
        table[(2,)] = QmodZ(0)
        with pytest.raises(ValueError, match="bilinear"):
            QuadraticFunction(g, table)

    def test_linear_function_is_quadratic(self):
        # homomorphisms have identically zero polarization
        g = FiniteAbelianGroup((5,))
        q = QuadraticFunction(g, {(x,): QmodZ(Fraction(2 * x, 5)) for x in range(5)})
        assert bilinear_of(q, (1,), (3,)) == QmodZ(0)

    def test_order_cap(self):
        g = FiniteAbelianGroup((3, 9),)
        with pytest.raises(OrderCapExceeded):
            QuadraticFunction.from_callable(g, lambda a: QmodZ(0), cap=20)
        assert DEFAULT_ORDER_CAP == 10_000

    def test_large_group_sampled_check(self):
        # a large table passes the complete check from generator data
        rows = [[301]]
        q = table_from_matrix(rows, (301,))
        assert q.group.order == 301

    def test_large_non_quadratic_table_rejected(self):
        # x^2/600 on Z/300 with one value moved by 1/600: every generator
        # condition holds, only the rebuilt table tells the difference
        g = FiniteAbelianGroup((300,))
        table = {(x,): QmodZ(Fraction(x * x, 600)) for x in range(300)}
        QuadraticFunction(g, table)
        table[(7,)] = QmodZ(Fraction(50, 600))
        with pytest.raises(ValueError, match="bilinear"):
            QuadraticFunction(g, table)

    def test_bad_slope_denominator_rejected(self):
        g = FiniteAbelianGroup(())
        with pytest.raises(ValueError, match="denominator"):
            QuadraticFunction(g, {(): QmodZ(0)}, radical_slopes=(Fraction(1, 3),))

    def test_immutable(self):
        q = table_from_matrix([[3]], (3,))
        with pytest.raises(AttributeError):
            q.values = {}


def brute_force_is_quadratic(group, values):
    """q(0) = 0 and a vanishing third difference at every triple: the definition."""
    elements = list(group.elements())
    index = {x: i for i, x in enumerate(elements)}
    modulus = math.lcm(1, *(values[x].denominator for x in elements))
    r = [values[x].numerator * (modulus // values[x].denominator) for x in elements]
    add = [[index[group.add(x, y)] for y in elements] for x in elements]
    if r[index[group.zero()]]:
        return False
    for x in range(len(elements)):
        ax = add[x]
        for y in range(len(elements)):
            xy, ay = ax[y], add[y]
            for z in range(len(elements)):
                if (r[add[xy][z]] - r[xy] - r[ax[z]] - r[ay[z]] + r[x] + r[y] + r[z]) % modulus:
                    return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_check_agrees_with_the_definition(data):
    n = data.draw(st.integers(1, 3))
    entries = data.draw(st.lists(st.integers(-6, 6), min_size=n * n, max_size=n * n))
    rows = [[entries[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    order = abs(determinant(intmatrix(rows)))
    assume(2 <= order <= 64)
    chern = [rows[i][i] % 2 + 2 * data.draw(st.integers(-2, 2)) for i in range(n)]
    q = table_from_matrix(rows, chern)
    values = dict(q.values)
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(list(q.group.elements())))
        values[x] = values[x] + QmodZ(Fraction(data.draw(st.integers(1, 7)), data.draw(st.sampled_from((2, 4, 8, 2 * order)))))
    try:
        QuadraticFunction(q.group, values)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == brute_force_is_quadratic(q.group, values)


class TestEvaluation:
    def test_projective_space_values(self):
        q = table_from_matrix([[2]], (2,))
        assert q((0,)) == QmodZ(0)
        assert q((1,)) == QmodZ(Fraction(3, 4))
        q2 = table_from_matrix([[2]], (0,))
        assert q2((1,)) == QmodZ(Fraction(1, 4))

    def test_polarization_equals_linking(self):
        data = discriminant(intmatrix([[9]]))
        q = table_from_matrix([[9]], (9,))
        for a in range(9):
            for b in range(9):
                assert bilinear_of(q, (a,), (b,)) == QmodZ(Fraction(a * b, 9))
        # 1/9 in units of 1/value_modulus
        assert (data.value_modulus, data.linking[0][0]) == (18, 2)

    def test_defect_is_homomorphism(self):
        q = table_from_matrix([[2, 0], [0, 4]], (2, 4))
        g = q.group
        for x in g.elements():
            for y in g.elements():
                assert defect_of(q, g.add(x, y)) == defect_of(q, x) + defect_of(q, y)

    def test_homogeneous_iff_even_decoration_in_image(self):
        # c = diag + 2Bh decorations give q(-x) = q(x) pointwise
        q = table_from_matrix([[0, 2], [2, 0]], (0, 0))
        g = q.group
        assert all(defect_of(q, x) == QmodZ(0) for x in g.elements())


class TestGaussSums:
    def test_projective_space_sum(self):
        q = table_from_matrix([[2]], (2,))
        # values 0 and 3/4: 1 + exp(-pi i/2) = 1 - i
        expected = cyclo_from_angles([Fraction(0), Fraction(3, 4)])
        assert gauss_sum(q) == expected

    def test_absolute_square_is_group_order(self):
        for rows, chern in ORACLE_FORMS:
            q = table_from_matrix(rows, chern)
            assert cyclo_abs_squared(gauss_sum(q)) == Fraction(q.group.order)

    def test_multiplicative_under_orthogonal_sum(self):
        qa = table_from_matrix([[3]], (3,))
        qb = table_from_matrix([[5]], (1,))
        qc = table_from_matrix([[3, 0], [0, 5]], (3, 1))
        assert gauss_sum(qc) == gauss_sum(qa) * gauss_sum(qb)


class TestFingerprint:
    def test_isomorphic_pair_same_fingerprint(self):
        g = FiniteAbelianGroup((5,))
        q1 = QuadraticFunction(g, {(x,): QmodZ(Fraction(x * x, 5)) for x in range(5)})
        q2 = QuadraticFunction(g, {(x,): QmodZ(Fraction(4 * x * x, 5)) for x in range(5)})
        assert invariant_fingerprint(q1) == invariant_fingerprint(q2)
        assert is_isomorphic(q1, q2) is not None

    def test_non_residue_scaling_changes_gauss(self):
        g = FiniteAbelianGroup((5,))
        q1 = QuadraticFunction(g, {(x,): QmodZ(Fraction(x * x, 5)) for x in range(5)})
        q2 = QuadraticFunction(g, {(x,): QmodZ(Fraction(2 * x * x, 5)) for x in range(5)})
        f1, f2 = invariant_fingerprint(q1), invariant_fingerprint(q2)
        assert f1.gauss != f2.gauss
        assert f1 != f2
        assert is_isomorphic(q1, q2) is None

    def test_fingerprint_hashable(self):
        q = table_from_matrix([[3]], (3,))
        assert len({invariant_fingerprint(q), invariant_fingerprint(q)}) == 1

    def test_table_fingerprint_refuses_residues_outside_the_modulus(self):
        # q(x) = 3x^2/4 on Z/2, given as a table from outside the library;
        # the value multiset is the table sorted, and the Gauss sum refuses
        # what no residue multiset may hold
        assert table_fingerprint((2,), 4, [3, 0], [3], [[2]], ()).value_multiset == (0, 3)
        for bad in ([0, 4], [-1, 3], [7, 0], [-4, 8]):
            with pytest.raises(ValueError, match="must lie in"):
                table_fingerprint((2,), 4, bad, [3], [[2]], ())

    def test_radical_data_recorded(self):
        g = FiniteAbelianGroup(())
        q = QuadraticFunction(
            g, {(): QmodZ(0)}, radical_slopes=(Fraction(3), Fraction(-6))
        )
        fp = invariant_fingerprint(q)
        assert fp.radical_rank == 2
        assert fp.radical_gcd == 6


class TestRadicalCompatibility:
    def test_rank_mismatch(self):
        g = FiniteAbelianGroup(())
        q1 = QuadraticFunction(g, {(): QmodZ(0)}, radical_slopes=(Fraction(1),))
        q2 = QuadraticFunction(g, {(): QmodZ(0)})
        assert not radical_compatible(q1, q2)

    def test_gcd_decides(self):
        g = FiniteAbelianGroup(())
        mk = lambda *slopes: QuadraticFunction(g, {(): QmodZ(0)}, radical_slopes=slopes)
        assert radical_compatible(mk(Fraction(2), Fraction(3)), mk(Fraction(1), Fraction(0)))
        assert not radical_compatible(mk(Fraction(2), Fraction(4)), mk(Fraction(1), Fraction(0)))
        assert radical_compatible(mk(Fraction(-3), Fraction(0)), mk(Fraction(3), Fraction(6)))

    def test_half_integer_slopes(self):
        # only sign flips are available in rank 1, so 1/2 and 3/2 split
        g = FiniteAbelianGroup(())
        mk = lambda s: QuadraticFunction(g, {(): QmodZ(0)}, radical_slopes=(s,))
        assert radical_compatible(mk(Fraction(1, 2)), mk(Fraction(-1, 2)))
        assert not radical_compatible(mk(Fraction(1, 2)), mk(Fraction(3, 2)))


class TestIsomorphism:
    def test_matches_oracle_on_all_pairs(self):
        qs = [table_from_matrix(rows, chern) for rows, chern in ORACLE_FORMS]
        for i, qa in enumerate(qs):
            for qb in qs[i:]:
                fast = is_isomorphic(qa, qb)
                slow = oracle_isomorphic(qa, qb)
                assert (fast is not None) == slow

    def test_witness_is_pointwise_correct(self):
        for rows, chern in ORACLE_FORMS:
            q = table_from_matrix(rows, chern)
            iso = is_isomorphic(q, q)
            assert iso is not None
            for x in q.group.elements():
                assert q(iso.apply(x)) == q(x)

    def test_symmetric_decision(self):
        q1 = table_from_matrix([[2, 0], [0, 4]], (2, 4))
        q2 = table_from_matrix([[2, 0], [0, 4]], (0, 0))
        assert (is_isomorphic(q1, q2) is None) == (is_isomorphic(q2, q1) is None)

    def test_distinct_decorations_on_same_form(self):
        # the four decorated classes of the diagonal (2, 2) form
        variants = [(2, 2), (0, 2), (2, 0), (0, 0)]
        qs = [table_from_matrix([[2, 0], [0, 2]], c) for c in variants]
        assert is_isomorphic(qs[1], qs[2]) is not None
        assert is_isomorphic(qs[0], qs[3]) is None
        assert is_isomorphic(qs[0], qs[1]) is None

    def test_opposite_forms_conjugate(self):
        q_plus = table_from_matrix([[3]], (3,))
        q_minus = table_from_matrix([[-3]], (-3,))
        assert gauss_sum(q_plus).conjugate() == gauss_sum(q_minus)
        assert is_isomorphic(q_plus, q_minus) is None

    def test_mirror_pair_that_is_isomorphic(self):
        # x -> 2x carries one onto the other: values 2/5 and 3/5 trade places
        q_plus = table_from_matrix([[5]], (5,))
        q_minus = table_from_matrix([[-5]], (-5,))
        assert is_isomorphic(q_plus, q_minus) is not None
        assert oracle_isomorphic(q_plus, q_minus)

    def test_trivial_groups(self):
        g = FiniteAbelianGroup(())
        q = QuadraticFunction(g, {(): QmodZ(0)})
        iso = is_isomorphic(q, q)
        assert iso is not None and iso.images == ()

    def test_tables_over_different_denominators(self):
        # q1 = x/2 and q2 = x/4 on Z/2: both quadratic, with different values
        g = FiniteAbelianGroup((2,))
        q1 = QuadraticFunction(g, {(x,): QmodZ(Fraction(x, 2)) for x in range(2)})
        q2 = QuadraticFunction(g, {(x,): QmodZ(Fraction(x, 4)) for x in range(2)})
        assert is_isomorphic(q1, q2) is None
        assert is_isomorphic(q2, q1) is None
        assert is_isomorphic(q2, q2).images == ((1,),)

    def test_slope_gate(self):
        g = FiniteAbelianGroup(())
        q1 = QuadraticFunction(g, {(): QmodZ(0)}, radical_slopes=(Fraction(1),))
        q2 = QuadraticFunction(g, {(): QmodZ(0)}, radical_slopes=(Fraction(2),))
        assert is_isomorphic(q1, q2) is None


@st.composite
def decorated_forms(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = draw(st.integers(min_value=-4, max_value=4))
    rows = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    from quadlink.zlinalg import determinant

    m = intmatrix(rows)
    det = determinant(m)
    if det == 0 or abs(det) > 40:
        # degenerate or oversized draw: fall back to a small diagonal form
        rows = [[i + 2 if i == j else 0 for j in range(n)] for i in range(n)]
        m = intmatrix(rows)
    shift = draw(st.lists(st.integers(min_value=-1, max_value=1), min_size=n, max_size=n))
    bh = m.matvec(shift)
    chern = tuple(m[i][i] + 2 * bh[i] for i in range(n))
    return rows, chern


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(decorated_forms())
    def test_polarization_bilinear_and_symmetric(self, form):
        rows, chern = form
        q = table_from_matrix(rows, chern)
        g = q.group
        elements = list(g.elements())[:8]
        for x in elements:
            for y in elements:
                assert bilinear_of(q, x, y) == bilinear_of(q, y, x)
                for z in elements:
                    assert bilinear_of(q, g.add(x, z), y) == bilinear_of(
                        q, x, y
                    ) + bilinear_of(q, z, y)

    @settings(max_examples=40, deadline=None)
    @given(decorated_forms())
    def test_gauss_modulus_from_order(self, form):
        rows, chern = form
        q = table_from_matrix(rows, chern)
        assert cyclo_abs_squared(gauss_sum(q)) == Fraction(q.group.order)

    @settings(max_examples=25, deadline=None)
    @given(decorated_forms())
    def test_self_isomorphic(self, form):
        rows, chern = form
        q = table_from_matrix(rows, chern)
        assert is_isomorphic(q, q) is not None

    @settings(max_examples=40, deadline=None)
    @given(decorated_forms())
    def test_histogram_route_matches_sorting(self, form):
        rows, chern = form
        q = table_from_matrix(rows, chern)
        fp = invariant_fingerprint(q)
        m = fp.value_modulus

        def in_units(angle):
            # the residue r with r/m = angle
            assert m % angle.denominator == 0
            return angle.numerator * (m // angle.denominator)

        assert fp.value_multiset == tuple(in_units(v) for v in sorted(q.values.values()))
        assert fp.defect_multiset == tuple(in_units(d) for d in sorted(defect_of(q, x) for x in q.group.elements()))
        reference = gauss_sum(q).canonical()
        assert (fp.gauss.modulus, fp.gauss.coeffs) == (reference.modulus, reference.coeffs)


@st.composite
def decorated_pairs(draw):
    """Two decorations of one small nondegenerate form, with at most two torsion generators."""
    n = draw(st.integers(min_value=1, max_value=2))
    entries = {(i, j): draw(st.integers(min_value=-4, max_value=4)) for i in range(n) for j in range(i, n)}
    rows = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    m = intmatrix(rows)
    det = determinant(m)
    assume(det != 0 and abs(det) <= 16)
    decorations = canonical_chern_vectors(m)
    return rows, draw(st.sampled_from(decorations)), draw(st.sampled_from(decorations))


@settings(max_examples=60, deadline=None)
@given(decorated_pairs())
def test_finite_regime_matches_the_oracle(pair):
    rows, c1, c2 = pair
    verdict = yc_equivalent(presentation(rows, c1), presentation(rows, c2))
    expected = oracle_isomorphic(table_from_matrix(rows, c1), table_from_matrix(rows, c2))
    assert verdict.status == (EQUIVALENT if expected else INEQUIVALENT)


# --- the value table recurrence ------------------------------------------------
#
# _quadratic_table fills q(t g_i) by running sums of q(g_i) + t b(g_i, g_i);
# the oracles are the closed form t q + C(t, 2) b and the table built
# from it, one t at a time, as before.


def _quadratic_table_by_listcomp(factors, modulus, q_gen, b_gen):
    """_quadratic_table as it was, each q(t g_i) by the closed form t q + C(t, 2) b."""
    values = [0]
    for i, d in enumerate(factors):
        q, b = q_gen[i], b_gen[i][i]
        steps = [(t * q + t * (t - 1) // 2 * b) % modulus for t in range(d)]
        pairing = [0]
        for j in range(i):
            pairing = [(x + t * b_gen[j][i]) % modulus for x in pairing for t in range(factors[j])]
        values = [(v + s + t * p) % modulus for v, p in zip(values, pairing) for t, s in enumerate(steps)]
    return values


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_quadratic_table_matches_the_closed_form(data):
    if data.draw(st.booleans()):
        factors = [data.draw(st.integers(1, 4096))]
    else:
        factors = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    modulus = data.draw(st.sampled_from((1, 2, 24, 8192))) * data.draw(st.sampled_from((1, 3)))
    residue = st.one_of(st.sampled_from((0, 1, modulus - 1, modulus // 2)), st.integers(0, modulus - 1))
    q_gen = [data.draw(residue) for _ in factors]
    b_gen = [[data.draw(residue) for _ in factors] for _ in factors]
    values = _quadratic_table(factors, modulus, q_gen, b_gen)
    assert values == _quadratic_table_by_listcomp(factors, modulus, q_gen, b_gen)
    # q(t g_0) = t q(g_0) + C(t, 2) b(g_0, g_0) along the first coordinate
    stride = math.prod(factors[1:])
    q, b = q_gen[0], b_gen[0][0]
    assert values[::stride] == [(t * q + t * (t - 1) // 2 * b) % modulus for t in range(factors[0])]


def test_quadratic_table_handles_trivial_factors_and_zero_pairings():
    assert _quadratic_table([1], 8, [3], [[5]]) == [0]
    assert _quadratic_table([4], 8, [3], [[0]]) == [0, 3, 6, 1]
    assert _quadratic_table([1, 3], 8, [3, 1], [[5, 2], [2, 0]]) == [0, 1, 2]


# --- leaf checks of the isometry search ------------------------------------------
#
# A leaf of _isometries is a homomorphism carrying b2 to b1, so it is
# bijective when b1 is nondegenerate, and a leaf that also matches q on
# the generators matches it everywhere.  The oracles: the brute-force
# nondegeneracy test of classify._character_positions (distinct
# character keys), the search with every leaf tested for bijectivity,
# and the whole-table check of every returned witness.


def _pairing(draw, factors):
    """link[i][j] = M b(g_i, g_j) for a random symmetric pairing on Z/d_1 + ... + Z/d_k, M = 2 d_k."""
    modulus = 2 * factors[-1]
    k = len(factors)
    link = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(factors[i], factors[j])
            link[i][j] = link[j][i] = modulus // g * draw(st.integers(0, g - 1))
    return link


@st.composite
def generator_pairings(draw, max_order=144):
    """(factors, M, link): a symmetric pairing on a chain Z/d_1 + ... + Z/d_k, as _pairing, often degenerate."""
    factors = [draw(st.sampled_from((2, 3, 4, 5, 6, 8, 9)))]
    for _ in range(draw(st.integers(0, 2))):
        step = draw(st.sampled_from((1, 1, 2, 3)))
        if math.prod(factors) * factors[-1] * step <= max_order:
            factors.append(factors[-1] * step)
    return factors, 2 * factors[-1], _pairing(draw, factors)


def _refinement(draw, factors, modulus, link):
    """q on the generators of a quadratic function with polarization link: d q(g) + C(d, 2) b(g, g) = 0."""
    return [
        modulus // (2 * d) * (2 * draw(st.integers(0, d - 1)) + (link[i][i] * d // modulus % 2 if d % 2 == 0 else 0))
        for i, d in enumerate(factors)
    ]


def _is_degenerate_by_characters(factors, modulus, link):
    try:
        _character_positions(factors, modulus, link)
    except RuntimeError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(generator_pairings(max_order=2000))
@example(([3, 3], 6, [[2, 0], [0, 0]]))
@example(([2, 4], 8, [[0, 4], [4, 2]]))
@example(([9, 27], 54, [[6, 6], [6, 2]]))
def test_nondegeneracy_by_socle_rank_matches_distinct_characters(pairing):
    factors, modulus, link = pairing
    assert _nondegenerate(factors, modulus, link) == (not _is_degenerate_by_characters(factors, modulus, link))


def test_nondegeneracy_of_empty_and_non_pairing_data():
    assert _nondegenerate([], 2, [])
    # 3 b(g, g) = 1/2 is no pairing on Z/3
    assert not _nondegenerate([3], 6, [[1]])


def test_a_degenerate_pairing_keeps_the_leaf_check():
    # q = 0 and b = 0 on Z/2: the zero map is the first leaf that matches
    # q and b on the generator, and only the bijectivity test rejects it
    assert not _nondegenerate([2], 4, [[0]])
    assert _generator_isomorphism([2], 4, [0], [[0]], [0], [[0]], [0, 0]) == ((1,),)


def test_is_isomorphic_refuses_an_unchecked_table_that_is_not_quadratic():
    g = FiniteAbelianGroup((5,))

    def table(residues):
        return {(x,): QmodZ(Fraction(r, 5)) for x, r in enumerate(residues)}

    with pytest.raises(ValueError):
        QuadraticFunction(g, table([0, 0, 0, 0, 1]))
    q1 = QuadraticFunction(g, table([0, 0, 0, 0, 1]), check=False)
    q2 = QuadraticFunction(g, table([0, 0, 0, 1, 0]), check=False)
    # the identity matches q and b on the generator, and only the
    # pointwise check sees that it misses q at 3 and 4
    assert _generator_isomorphism([5], 5, [0], [[0]], [0], [[0]], [0, 0, 0, 1, 0]) == ((1,),)
    with pytest.raises(ValueError, match="needs quadratic functions"):
        is_isomorphic(q1, q2)


def _every_leaf_checked():
    """Force the bijectivity test at every leaf, as the search did before nondegeneracy was decided."""
    return mock.patch.object(quadfun_module, "_nondegenerate", return_value=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nondegenerate_searches_yield_the_leaves_of_the_checked_search(data):
    factors, modulus, link1 = data.draw(generator_pairings(max_order=64))
    assume(_nondegenerate(factors, modulus, link1))
    link2 = link1 if data.draw(st.booleans()) else _pairing(data.draw, factors)
    elements = list(itertools.product(*(range(d) for d in factors)))
    k = len(factors)
    order = data.draw(st.permutations(range(k)))
    args = (factors, modulus, link1, link2, order, [elements] * k, lambda: True)
    leaves = list(itertools.islice(_isometries(*args), 500))
    with _every_leaf_checked():
        assert leaves == list(itertools.islice(_isometries(*args), 500))


def _checked_isomorphism(factors, modulus, q1, b1, values1, q2, b2, values2):
    """_generator_isomorphism with every leaf tested for bijectivity and every found map checked on the whole table."""
    if math.gcd(modulus, *_defect_character(modulus, q1, b1)) != math.gcd(modulus, *_defect_character(modulus, q2, b2)):
        return None
    elements = list(itertools.product(*(range(d) for d in factors)))
    candidates = [[m for m, v in zip(elements, values2) if v == want] for want in q1]
    if not all(candidates):
        return None
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    with _every_leaf_checked():
        for images in _isometries(factors, modulus, b1, b2, order, candidates, lambda: True):
            if all(values2[u] == v for u, v in zip(_image_positions(factors, images), values1)):
                return images
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generator_isomorphism_returns_the_witness_of_the_checked_search(data):
    factors, modulus, link1 = data.draw(generator_pairings(max_order=48))
    link2 = link1 if data.draw(st.booleans()) else _pairing(data.draw, factors)
    q1 = _refinement(data.draw, factors, modulus, link1)
    q2 = _refinement(data.draw, factors, modulus, link2)
    values1 = _quadratic_table(factors, modulus, q1, link1)
    values2 = _quadratic_table(factors, modulus, q2, link2)
    if sorted(values1) != sorted(values2):
        # the search's callers compare value histograms first
        return
    images = _generator_isomorphism(factors, modulus, q1, link1, q2, link2, values2)
    assert images == _checked_isomorphism(factors, modulus, q1, link1, values1, q2, link2, values2)
    if images is not None:
        positions = _image_positions(factors, images)
        assert sorted(positions) == list(range(len(values1)))
        assert [values2[u] for u in positions] == values1
