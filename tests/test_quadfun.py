import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlink.exact import QmodZ, cyclo_abs_squared, cyclo_from_angles
from quadlink.lattice import discriminant, phi_eval
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
)
from quadlink.zlinalg import intmatrix


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
        # past the complete-check threshold construction must still work
        rows = [[301]]
        q = table_from_matrix(rows, (301,))
        assert q.group.order == 301

    def test_bad_slope_denominator_rejected(self):
        g = FiniteAbelianGroup(())
        with pytest.raises(ValueError, match="denominator"):
            QuadraticFunction(g, {(): QmodZ(0)}, radical_slopes=(Fraction(1, 3),))

    def test_immutable(self):
        q = table_from_matrix([[3]], (3,))
        with pytest.raises(AttributeError):
            q.values = {}


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
        assert data.linking[0][0] == QmodZ(Fraction(1, 9))

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
        assert fp.value_multiset == tuple(sorted(q.values.values()))
        assert fp.defect_multiset == tuple(sorted(defect_of(q, x) for x in q.group.elements()))
        reference = gauss_sum(q).canonical()
        assert (fp.gauss.modulus, fp.gauss.coeffs) == (reference.modulus, reference.coeffs)
