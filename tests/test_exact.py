import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadlink.exact import (
    CyclotomicSum,
    QmodZ,
    cyclo_abs_squared,
    cyclo_equals,
    cyclo_from_angles,
    cyclo_from_residues,
    cyclotomic_polynomial,
    qmodz_reduce,
    residue_multiset,
)
from quadlink.exact import _reduce_mod_cyclotomic

# ---------------------------------------------------------------------------
# independent oracle: cyclotomic polynomials by recursive long division over Q


def _poly_div_exact(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    assert not any(num), "division was not exact"
    return out


_oracle_memo = {}


def oracle_cyclotomic(n):
    if n in _oracle_memo:
        return _oracle_memo[n]
    if n == 1:
        poly = [Fraction(-1), Fraction(1)]
    else:
        poly = [Fraction(0)] * (n + 1)
        poly[0], poly[n] = Fraction(-1), Fraction(1)
        for d in range(1, n):
            if n % d == 0:
                poly = _poly_div_exact(poly, oracle_cyclotomic(d))
    _oracle_memo[n] = poly
    return poly


def test_cyclotomic_matches_division_oracle():
    for n in range(1, 121):
        got = cyclotomic_polynomial(n)
        want = oracle_cyclotomic(n)
        assert [Fraction(c) for c in got] == want, f"Phi_{n} mismatch"


def test_cyclotomic_small_frozen_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_105_has_coefficient_minus_two():
    # first modulus whose cyclotomic polynomial has a coefficient outside {-1,0,1}
    assert cyclotomic_polynomial(105)[7] == -2


def test_cyclotomic_product_over_divisors():
    for n in (1, 2, 6, 12, 30, 36, 49):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [Fraction(0)] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        want = [Fraction(0)] * (n + 1)
        want[0], want[n] = Fraction(-1), Fraction(1)
        assert prod == want


# ---------------------------------------------------------------------------
# QmodZ

# small denominators keep the lcm moduli of the derived cyclotomic sums tame
rationals = st.fractions(max_denominator=9)


@given(rationals)
def test_qmodz_canonical_range(x):
    q = qmodz_reduce(x)
    assert 0 <= q.value < 1
    assert (q.value - x).denominator == 1


@given(rationals, rationals)
def test_qmodz_addition_well_defined(x, y):
    assert QmodZ(x) + QmodZ(y) == QmodZ(x + y)
    assert QmodZ(x) - QmodZ(y) == QmodZ(x - y)


@given(rationals)
def test_qmodz_negation_inverse(x):
    q = QmodZ(x)
    assert q + (-q) == QmodZ(0)


@given(rationals, st.integers(min_value=-20, max_value=20))
def test_qmodz_scalar_multiple(x, k):
    assert k * QmodZ(x) == QmodZ(k * x)


def test_qmodz_order():
    assert QmodZ(Fraction(3, 9)).order() == 3
    assert QmodZ(0).order() == 1
    assert QmodZ(Fraction(5, 8)).order() == 8


def test_qmodz_immutable_and_hashable():
    q = QmodZ(Fraction(1, 4))
    with pytest.raises(AttributeError):
        q.value = Fraction(1, 2)
    assert len({QmodZ(Fraction(1, 4)), QmodZ(Fraction(5, 4))}) == 1


# ---------------------------------------------------------------------------
# CyclotomicSum

angle_lists = st.lists(rationals, max_size=6)


def test_one_plus_i():
    g = cyclo_from_angles([Fraction(0), Fraction(1, 4)])
    assert g.modulus == 4
    assert g.coeffs == (1, 1, 0, 0)
    assert cyclo_abs_squared(g) == 2
    approx = g.approx()
    assert abs(approx - (1 + 1j)) < 1e-12


def test_equality_across_moduli():
    # zeta_3 written at modulus 6 (index 2) and at modulus 3 (index 1)
    a = CyclotomicSum(6, (0, 0, 1, 0, 0, 0))
    b = cyclo_from_angles([Fraction(1, 3)])
    assert cyclo_equals(a, b)
    assert a == b
    assert hash(a) == hash(b)


def test_full_root_sum_vanishes():
    for n in range(2, 13):
        s = cyclo_from_angles([Fraction(j, n) for j in range(n)])
        assert s.is_zero()
        assert s == CyclotomicSum.zero()


def test_minus_one_as_nontrivial_sum():
    # zeta_3 + zeta_3^2 = -1
    s = cyclo_from_angles([Fraction(1, 3), Fraction(2, 3)])
    assert s == CyclotomicSum.integer(-1)
    assert s.as_rational() == -1


def test_abs_squared_irrational_raises():
    v = cyclo_from_angles([Fraction(0), Fraction(1, 8)])  # |1+zeta_8|^2 = 2+sqrt(2)
    with pytest.raises(ValueError):
        cyclo_abs_squared(v)


def test_conjugate_of_gauss_like_sum():
    g = cyclo_from_angles([Fraction(0), Fraction(1, 4)])
    assert g.conjugate() == cyclo_from_angles([Fraction(0), Fraction(3, 4)])
    assert (g * g.conjugate()).as_rational() == 2


def test_canonical_shrinks_modulus():
    s = cyclo_from_angles([Fraction(1, 2), Fraction(1, 2)])  # -2
    c = s.canonical()
    assert c.modulus == 1 and c.coeffs == (-2,)
    z = (cyclo_from_angles([Fraction(1, 5)]) - cyclo_from_angles([Fraction(1, 5)])).canonical()
    assert z.modulus == 1 and z.coeffs == (0,)


def test_canonical_preserves_value():
    vals = [
        cyclo_from_angles([Fraction(1, 6), Fraction(5, 6)]),
        cyclo_from_angles([Fraction(1, 8), Fraction(1, 2), Fraction(3, 4)]),
        CyclotomicSum(12, (3, 0, -1, 0, 0, 0, 2, 0, 0, 0, 0, 1)),
    ]
    for v in vals:
        assert cyclo_equals(v, v.canonical())


@given(angle_lists, angle_lists)
def test_from_angles_additivity(xs, ys):
    assert cyclo_from_angles(xs) + cyclo_from_angles(ys) == cyclo_from_angles(xs + ys)


@given(angle_lists)
def test_conjugate_negates_angles(xs):
    assert cyclo_from_angles(xs).conjugate() == cyclo_from_angles([-x for x in xs])


@given(rationals, rationals)
def test_roots_multiply_by_angle_addition(x, y):
    rx = CyclotomicSum.root_of_unity(QmodZ(x))
    ry = CyclotomicSum.root_of_unity(QmodZ(y))
    assert rx * ry == CyclotomicSum.root_of_unity(QmodZ(x + y))


@given(angle_lists, st.integers(min_value=2, max_value=4))
def test_normalized_trace_is_value_invariant(xs, k):
    v = cyclo_from_angles(xs)
    m = k * v.modulus
    rescaled = CyclotomicSum(m, [v.coeffs[j // k] if j % k == 0 else 0 for j in range(m)])
    assert v.normalized_trace() == rescaled.normalized_trace()
    assert v.normalized_trace() == v.canonical().normalized_trace()
    assert hash(v) == hash(rescaled)


def test_approx_is_display_only_float():
    v = cyclo_from_angles([Fraction(1, 3)])
    assert isinstance(v.approx(), complex)


def _dense_reduce(coeffs, n):
    """Long division by Phi_n touching every coefficient, the reference for the sparse loop."""
    f = cyclotomic_polynomial(n)
    df = len(f) - 1
    r = list(coeffs)
    for k in range(len(r) - 1, df - 1, -1):
        c = r[k]
        if c:
            r[k] = 0
            base = k - df
            for i in range(df):
                r[base + i] -= c * f[i]
    del r[df:]
    return r


def test_sparse_reduction_matches_dense_division():
    rng = random.Random(20020701)
    for n in range(1, 401):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        assert _reduce_mod_cyclotomic(coeffs, n) == _dense_reduce(coeffs, n), n


@given(st.integers(min_value=1, max_value=60).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), min_size=1, max_size=30))
))
def test_residue_histograms_match_angle_lists(modulus_and_residues):
    modulus, residues = modulus_and_residues
    histogram = Counter(residues)
    angles = [QmodZ(Fraction(r, modulus)) for r in residues]
    assert residue_multiset(histogram, modulus) == tuple(sorted(angles))
    direct = cyclo_from_angles(angles)
    via_histogram = cyclo_from_residues(histogram, modulus)
    assert (via_histogram.modulus, via_histogram.coeffs) == (direct.modulus, direct.coeffs)
