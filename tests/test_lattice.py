import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadlink.exact import QmodZ
from quadlink.lattice import (
    CharacteristicError,
    DualLatticeError,
    chern_coordinates,
    discriminant,
    evaluation_pairing,
    is_characteristic,
    linking_pairing,
    phi_eval,
    phi_table,
    radical_slope,
    wu_classes,
)
from quadlink.zlinalg import IntMatrix
import quadlink.lattice as lattice_module


def symmetric_matrices(max_dim=4, max_entry=4):
    def build(entries_and_n):
        n, entries = entries_and_n
        it = iter(entries)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        return IntMatrix(m)

    return st.integers(1, max_dim).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(-max_entry, max_entry),
                min_size=n * (n + 1) // 2,
                max_size=n * (n + 1) // 2,
            ),
        ).map(build)
    )


def characteristic_vectors(m, draw_ints):
    return tuple(m[i][i] + 2 * t for i, t in enumerate(draw_ints))


def dual_vector(data, torsion_coords, kernel_fracs, integer_shift):
    n = data.size
    acc = [Fraction(0)] * n
    for a, g in zip(torsion_coords, data.lifts):
        for k in range(n):
            acc[k] += a * g[k]
    for r, kv in zip(kernel_fracs, data.kernel):
        for k in range(n):
            acc[k] += r * kv[k]
    for k in range(n):
        acc[k] += integer_shift[k]
    return tuple(acc)


# ---------------------------------------------------------------------------
# frozen small cases


def test_projective_space_form():
    data = discriminant(IntMatrix([[2]]))
    assert data.free_rank == 0
    assert data.torsion_factors == (2,)
    assert data.lifts == ((Fraction(1, 2),),)
    g = data.lifts[0]
    assert phi_eval(data, (0,), g) == QmodZ(Fraction(1, 4))
    assert phi_eval(data, (2,), g) == QmodZ(Fraction(3, 4))
    assert linking_pairing(data, g, g) == QmodZ(Fraction(1, 2))


def test_order_nine_cyclic_form():
    # values computed by brute force from the defining formula
    # q(x) = x^2/18 - x/2 for c = (9); the polarization b(1,1) then has
    # to agree with the linking value 1/9
    data = discriminant(IntMatrix([[9]]))
    assert data.torsion_factors == (9,)
    g = data.lifts[0]

    def q(x):
        return phi_eval(data, (9,), tuple(x * gi for gi in g))

    assert q(0) == QmodZ(0)
    assert q(1) == QmodZ(Fraction(5, 9))
    assert q(2) == QmodZ(Fraction(2, 9))
    assert q(2) - q(1) - q(1) == QmodZ(Fraction(1, 9))
    assert linking_pairing(data, g, g) == QmodZ(Fraction(1, 9))


def test_defect_against_evaluation():
    data = discriminant(IntMatrix([[9]]))
    g = data.lifts[0]
    d = phi_eval(data, (1,), g) - phi_eval(data, (1,), tuple(-x for x in g))
    assert d == QmodZ(Fraction(8, 9))
    assert d == -evaluation_pairing((1,), g)


def test_free_rank_one_slopes():
    data = discriminant(IntMatrix([[0]]))
    assert data.free_rank == 1
    assert data.torsion_factors == ()
    assert data.kernel == ((1,),)
    assert radical_slope(data, (0,)) == (Fraction(0),)
    assert radical_slope(data, (2,)) == (Fraction(1),)
    assert radical_slope(data, (-4,)) == (Fraction(-2),)


def test_mixed_form_internals():
    data = discriminant(IntMatrix([[0, 0], [0, 2]]))
    assert data.free_rank == 1
    assert data.torsion_factors == (2,)
    assert data.lifts == ((Fraction(0), Fraction(1, 2)),)
    assert data.kernel == ((1, 0),)
    assert data.linking == ((QmodZ(Fraction(1, 2)),),)
    assert data.duality_matrix == IntMatrix([[1]])
    assert data.eval_free_lift == ((QmodZ(0),),)
    assert chern_coordinates(data, (2, 0)) == ((2,), (0,))
    assert chern_coordinates(data, (2, 2)) == ((2,), (0,))


def test_empty_form():
    data = discriminant(IntMatrix((), cols=0))
    assert data.free_rank == 0 and data.torsion_factors == ()
    assert phi_eval(data, (), ()) == QmodZ(0)
    assert wu_classes(IntMatrix((), cols=0)) == ((),)


def test_wu_classes_frozen():
    assert wu_classes(IntMatrix([[2]])) == ((0,), (1,))
    assert wu_classes(IntMatrix([[0]])) == ((0,), (1,))
    assert wu_classes(IntMatrix([[3]])) == ((1,),)
    assert len(wu_classes(IntMatrix.zero(3, 3))) == 8


def test_validation_errors():
    with pytest.raises(ValueError):
        discriminant(IntMatrix([[0, 1], [2, 0]]))
    data = discriminant(IntMatrix([[2]]))
    with pytest.raises(CharacteristicError):
        phi_eval(data, (1,), (Fraction(1, 2),))
    with pytest.raises(DualLatticeError):
        phi_eval(data, (0,), (Fraction(1, 3),))
    assert is_characteristic(IntMatrix([[2]]), (4,))
    assert not is_characteristic(IntMatrix([[2]]), (3,))


# ---------------------------------------------------------------------------
# properties on random symmetric forms


@settings(max_examples=100)
@given(symmetric_matrices(), st.data())
def test_quadratic_relation_and_defect(m, data_strategy):
    data = discriminant(m)
    n_tors = len(data.torsion_factors)
    b1 = data.free_rank
    ints = st.integers(-3, 3)
    fracs = st.fractions(max_denominator=5)
    c = characteristic_vectors(m, data_strategy.draw(st.lists(ints, min_size=m.rows, max_size=m.rows)))
    draw_vec = lambda: dual_vector(
        data,
        data_strategy.draw(st.lists(ints, min_size=n_tors, max_size=n_tors)),
        data_strategy.draw(st.lists(fracs, min_size=b1, max_size=b1)),
        data_strategy.draw(st.lists(ints, min_size=m.rows, max_size=m.rows)),
    )
    x, y = draw_vec(), draw_vec()
    # polarization: the pairing is the bilinear form of the quadratic function
    assert phi_eval(data, c, tuple(a + b for a, b in zip(x, y))) - phi_eval(data, c, x) - phi_eval(
        data, c, y
    ) == linking_pairing(data, x, y)
    # homogeneity defect is minus the evaluation against c
    assert phi_eval(data, c, x) - phi_eval(data, c, tuple(-a for a in x)) == -evaluation_pairing(c, x)


@settings(max_examples=100)
@given(symmetric_matrices(), st.data())
def test_phi_well_defined_on_classes(m, data_strategy):
    data = discriminant(m)
    ints = st.integers(-3, 3)
    c = characteristic_vectors(m, data_strategy.draw(st.lists(ints, min_size=m.rows, max_size=m.rows)))
    n_tors = len(data.torsion_factors)
    x = dual_vector(
        data,
        data_strategy.draw(st.lists(ints, min_size=n_tors, max_size=n_tors)),
        data_strategy.draw(
            st.lists(st.fractions(max_denominator=4), min_size=data.free_rank, max_size=data.free_rank)
        ),
        [0] * m.rows,
    )
    shift = data_strategy.draw(st.lists(ints, min_size=m.rows, max_size=m.rows))
    # moving x by the integer lattice does not change phi
    assert phi_eval(data, c, tuple(a + s for a, s in zip(x, shift))) == phi_eval(data, c, x)
    # moving c by 2 B h does not change phi, the chern coordinates, or the slopes
    h = data_strategy.draw(st.lists(ints, min_size=m.rows, max_size=m.rows))
    bh = m.matvec(h)
    c2 = tuple(ci + 2 * b for ci, b in zip(c, bh))
    assert phi_eval(data, c2, x) == phi_eval(data, c, x)
    assert chern_coordinates(data, c2) == chern_coordinates(data, c)
    # c2(k) = c(k) + 2 h^T B k = c(k) on the kernel, so slopes are class data
    assert radical_slope(data, c2) == radical_slope(data, c)


@settings(max_examples=80)
@given(symmetric_matrices(max_dim=3, max_entry=3))
def test_lift_orders_and_linking_nondegenerate(m):
    data = discriminant(m)
    for d, g in zip(data.torsion_factors, data.lifts):
        assert all((d * x).denominator == 1 for x in g)
        assert any((d // p * x).denominator != 1 for p in set(_prime_factors(d)) for x in g)
    # torsion linking pairing is nondegenerate on the stored lifts
    factors = data.torsion_factors
    if 0 < data.torsion_order <= 60:
        for coords in itertools.product(*[range(d) for d in factors]):
            if any(coords):
                assert any(
                    sum((a * data.linking[i][j] for i, a in enumerate(coords)), QmodZ(0)) != QmodZ(0)
                    for j in range(len(factors))
                ), f"{coords} pairs trivially with every lift"


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@settings(max_examples=80)
@given(symmetric_matrices(max_dim=3, max_entry=3))
def test_wu_classes_give_homogeneous_functions(m):
    data = discriminant(m)
    wus = wu_classes(m)
    assert len(wus) & (len(wus) - 1) == 0  # a power of two
    for w in wus:
        c = m.matvec(w)
        assert is_characteristic(m, c)
        assert all(s == 0 for s in radical_slope(data, c))
        for g in data.lifts:
            defect = phi_eval(data, c, g) - phi_eval(data, c, tuple(-x for x in g))
            assert defect == QmodZ(0)


def test_slopes_are_integers_for_characteristic_vectors():
    data = discriminant(IntMatrix([[0, 3], [3, 0]]))
    assert data.free_rank == 0  # nondegenerate, no slopes
    data = discriminant(IntMatrix.zero(2, 2))
    for c in [(0, 0), (2, 0), (0, -2), (4, 6)]:
        for s in radical_slope(data, c):
            assert s.denominator == 1


def test_pointwise_embedding_of_chern_classes_cyclic():
    # distinct classes of characteristic vectors give distinct functions
    data = discriminant(IntMatrix([[9]]))
    g = data.lifts[0]
    tables = []
    for u in range(9):
        c = (9 + 2 * u,)
        tables.append(tuple(phi_eval(data, c, tuple(x * gi for gi in g)) for x in range(9)))
    for a, b in itertools.combinations(range(9), 2):
        assert tables[a] != tables[b]


def test_pointwise_embedding_degenerate_via_slopes():
    data = discriminant(IntMatrix([[0]]))
    assert radical_slope(data, (0,)) != radical_slope(data, (2,))


# ---------------------------------------------------------------------------
# integer value tables against the defining formula


def test_order_nine_cyclic_table():
    # the brute-force values of test_order_nine_cyclic_form, in units of 1/18
    data = discriminant(IntMatrix([[9]]))
    assert data.value_modulus == 18
    values, defects = phi_table(data, (9,))
    assert values[:3] == [0, 10, 4]
    # delta(x) = -9x/9 = 0 mod 1: c = 9 is a multiple of the order
    assert defects == [0] * 9
    assert phi_table(data, (1,))[1][1] == 16  # 8/9, see test_defect_against_evaluation


def test_table_of_the_trivial_group():
    assert phi_table(discriminant(IntMatrix([[1]])), (1,)) == ([0], [0])
    assert phi_table(discriminant(IntMatrix([[0]])), (2,)) == ([0], [0])


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(max_dim=6, max_entry=3), st.data())
def test_phi_table_matches_phi_eval(m, data_strategy):
    data = discriminant(m)
    assume(data.torsion_order <= 400)
    c = characteristic_vectors(
        m, data_strategy.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
    )
    values, defects = phi_table(data, c)
    modulus = data.value_modulus
    factors = data.torsion_factors
    elements = list(itertools.product(*(range(d) for d in factors)))
    assert len(values) == len(defects) == len(elements)
    for w, v, d in zip(elements, values, defects):
        assert 0 <= v < modulus and 0 <= d < modulus
        phi = phi_eval(data, c, data.torsion_lift(w))
        minus = tuple(-a % f for a, f in zip(w, factors))
        assert QmodZ(Fraction(v, modulus)) == phi
        assert QmodZ(Fraction(d, modulus)) == phi - phi_eval(data, c, data.torsion_lift(minus))


def test_phi_table_checks_duality_per_generator():
    data = discriminant(IntMatrix([[0, 0], [0, 6]]))
    assert data.torsion_factors == (6,)
    bad_covector = dataclasses.replace(data, cok_tors_covectors=((0, 2),))
    with pytest.raises(DualLatticeError):
        phi_table(bad_covector, (0, 0))
    bad_lift = dataclasses.replace(data, lifts=((Fraction(0), Fraction(1, 12)),))
    with pytest.raises(DualLatticeError):
        phi_table(bad_lift, (0, 0))
    with pytest.raises(CharacteristicError):
        phi_table(data, (0, 1))


def _corrupt_smith(monkeypatch, **fields):
    original = lattice_module.smith_normal_form
    monkeypatch.setattr(
        lattice_module, "smith_normal_form", lambda m: dataclasses.replace(original(m), **fields)
    )


def test_discriminant_checks_unimodular_duality(monkeypatch):
    _corrupt_smith(monkeypatch, uinv=IntMatrix([[2]]))
    with pytest.raises(RuntimeError, match="unimodular"):
        discriminant(IntMatrix([[0]]))


def test_discriminant_checks_torsion_order(monkeypatch):
    _corrupt_smith(monkeypatch, d=IntMatrix([[3]]))
    with pytest.raises(RuntimeError, match="torsion order"):
        discriminant(IntMatrix([[5]]))
