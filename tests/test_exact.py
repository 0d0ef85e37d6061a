import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from quadlink.exact import _prime_factors, _reduce_mod_cyclotomic, _totient

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


@given(st.integers(-60, 60), st.integers(1, 30), st.integers(-5, 5), st.integers(1, 6))
def test_qmodz_immutable_and_hashable(num, den, shift, scale):
    q = QmodZ(Fraction(num, den))
    with pytest.raises(AttributeError):
        q.value = Fraction(1, 2)
    assert len({QmodZ(Fraction(1, 4)), QmodZ(Fraction(5, 4))}) == 1
    # an integer shift, written as one unreduced fraction, is the same value
    same = QmodZ(Fraction((num + shift * den) * scale, den * scale))
    assert same == q and hash(same) == hash(q)


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
    """Long division by Phi_n touching every coefficient."""
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


def _sparse_reduce(coeffs, n):
    """Long division by Phi_n touching only its nonzero coefficients."""
    f = cyclotomic_polynomial(n)
    df = len(f) - 1
    terms = [(i, fi) for i, fi in enumerate(f[:df]) if fi]
    r = list(coeffs)
    for k in range(len(r) - 1, df - 1, -1):
        c = r[k]
        if c:
            r[k] = 0
            base = k - df
            for i, fi in terms:
                r[base + i] -= c * fi
    del r[df:]
    return r


def test_sparse_reduction_matches_dense_division():
    rng = random.Random(20020701)
    for n in range(1, 401):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        want = _dense_reduce(coeffs, n)
        assert _sparse_reduce(coeffs, n) == want, n
        assert _reduce_mod_cyclotomic(coeffs, n) == want, n


def _length(n, where, offset):
    phi = _totient(n)
    return {"below": max(0, phi - offset), "phi": phi, "n": n, "above": n + offset}[where]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 1200),
    st.sampled_from(["below", "phi", "n", "above"]),
    st.integers(1, 40),
    st.randoms(use_true_random=False),
)
def test_binomial_reduction_matches_long_division(n, where, offset, rng):
    coeffs = [rng.randint(-5, 5) for _ in range(_length(n, where, offset))]
    got = _reduce_mod_cyclotomic(coeffs, n)
    assert got == _sparse_reduce(coeffs, n)
    assert len(got) == min(len(coeffs), _totient(n))


@pytest.mark.parametrize("n", [1, 2, 6006, 7996, 8188, 8190, 8192])
def test_binomial_reduction_at_large_moduli(n):
    # 6006 and 8190 have five prime factors, 7996 = 4 * 1999 a long dense
    # Phi_n, 8188 = 4 * 23 * 89, 8192 a prime power; lengths run past n
    rng = random.Random(n)
    for length in (_totient(n) + 1, n + 3):
        coeffs = [rng.randint(-3, 3) for _ in range(length)]
        assert _reduce_mod_cyclotomic(coeffs, n) == _sparse_reduce(coeffs, n), (n, length)


def in_units(angle: QmodZ, modulus: int) -> int:
    """The residue r with r/modulus = angle; the denominator of angle divides modulus."""
    assert modulus % angle.denominator == 0, (angle, modulus)
    return angle.numerator * (modulus // angle.denominator)


@given(st.integers(min_value=1, max_value=60).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), min_size=1, max_size=30))
))
def test_residue_histograms_match_angle_lists(modulus_and_residues):
    modulus, residues = modulus_and_residues
    histogram = Counter(residues)
    angles = [QmodZ(Fraction(r, modulus)) for r in residues]
    multiset = residue_multiset(histogram, modulus)
    # the rational angles sorted, then written in units of 1/modulus
    assert multiset == tuple(in_units(a, modulus) for a in sorted(angles))
    assert all(type(r) is int for r in multiset)
    direct = cyclo_from_angles(angles)
    via_histogram = cyclo_from_residues(histogram, modulus)
    assert (via_histogram.modulus, via_histogram.coeffs) == (direct.modulus, direct.coeffs)


def test_residue_multiset_refuses_residues_outside_the_modulus():
    assert residue_multiset({}, 5) == ()
    assert residue_multiset({0: 2, 4: 1}, 5) == tuple(in_units(a, 5) for a in (QmodZ(0), QmodZ(0), QmodZ(Fraction(4, 5))))
    for bad, modulus in (({5: 1}, 5), ({-1: 1, 2: 1}, 5), ({0: 1, 7: 3}, 5), ({0: 1, 8192: 2}, 8192), ({-8192: 1}, 8192)):
        with pytest.raises(ValueError, match="must lie in"):
            residue_multiset(bad, modulus)


def test_cyclo_from_residues_refuses_residues_outside_the_modulus():
    # a negative residue once wrapped to the end of the coefficient list,
    # and residues at or above the modulus ran past it
    for bad in ({-1: 1}, {5: 1}, {7: 1}, {0: 2, 5: 1}):
        with pytest.raises(ValueError, match="must lie in"):
            cyclo_from_residues(bad, 5)
    assert cyclo_from_residues({}, 5) == cyclo_from_residues({0: 0}, 5)
    assert cyclo_from_residues({4: 1}, 5) == cyclo_from_angles([QmodZ(Fraction(4, 5))])


# The constructions residue_multiset, cyclo_from_residues and canonical()
# ran before the latter two built their result without coercing its
# coefficients through int() a second time: a loop of list extensions,
# and the public constructor.  _canonical_coercing also reduces modulo
# Phi_n on every pass of its support-gcd loop, where canonical() reduces
# once.
def _residue_multiset_by_loop(histogram, modulus):
    residues = sorted(histogram)
    if residues and (residues[0] < 0 or residues[-1] >= modulus):
        raise ValueError(f"residues must lie in [0, {modulus}), got {residues[0]}..{residues[-1]}")
    out = []
    for r in residues:
        out += [r] * histogram[r]
    return tuple(out)


def _cyclo_from_residues_coercing(histogram, modulus):
    g = math.gcd(modulus, *histogram)
    coeffs = [0] * (modulus // g)
    for r, count in histogram.items():
        coeffs[r // g] += count
    return CyclotomicSum(modulus // g, coeffs)


def _canonical_coercing(s):
    n = s.modulus
    coeffs = list(s.coeffs)
    while True:
        coeffs = _reduce_mod_cyclotomic(coeffs, n)
        coeffs += [0] * (n - len(coeffs))
        support = [j for j, c in enumerate(coeffs) if c]
        if support == []:
            return CyclotomicSum(1, (0,))
        g = math.gcd(n, *support)
        if g == 1:
            return CyclotomicSum(n, coeffs)
        n //= g
        coeffs = [coeffs[j * g] for j in range(n)]


def _same_sum(got, want):
    assert (got.modulus, got.coeffs) == (want.modulus, want.coeffs)
    assert all(type(c) is int for c in got.coeffs)
    assert got == want and hash(got) == hash(want)


@st.composite
def residue_histograms(draw):
    """(histogram, modulus): residues on a multiple of a divisor of the modulus, with gaps between them."""
    modulus = draw(st.one_of(st.integers(1, 64), st.integers(1, 8192), st.sampled_from((6006, 7996, 8190, 8192))))
    step = draw(st.sampled_from([d for d in range(1, min(modulus, 64) + 1) if modulus % d == 0]))
    residues = draw(st.lists(st.integers(0, (modulus - 1) // step), max_size=30, unique=True))
    counts = draw(st.lists(st.integers(0, 6), min_size=len(residues), max_size=len(residues)))
    return {k * step: count for k, count in zip(residues, counts)}, modulus


@settings(max_examples=80, deadline=None)
@given(residue_histograms())
def test_residue_constructions_match_the_coercing_ones(histogram_and_modulus):
    histogram, modulus = histogram_and_modulus
    assert residue_multiset(histogram, modulus) == _residue_multiset_by_loop(histogram, modulus)
    got, want = cyclo_from_residues(histogram, modulus), _cyclo_from_residues_coercing(histogram, modulus)
    _same_sum(got, want)
    _same_sum(got.canonical(), _canonical_coercing(want))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 120).flatmap(
        lambda n: st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=n, max_size=n).map(
            lambda cs: CyclotomicSum(len(cs), cs)
        )
    )
)
def test_canonical_matches_the_coercing_one(s):
    _same_sum(s.canonical(), _canonical_coercing(s))


MODULI_BY_DISTINCT_PRIMES = {
    w: [n for n in range(2, 2400) if len(_prime_factors(n)) == w] for w in (1, 2, 3, 4)
}


@st.composite
def sums_over_moduli_with_few_primes(draw):
    """(sum, vanishing part): a sparse sum over a modulus with 1 to 4 distinct primes, plus a sum of zero.

    The sum sits on the multiples of a divisor of the modulus, so the
    support gcd is often above 1; the vanishing part adds z^r times the
    p-th roots of unity for primes p | n, which reduction must remove.
    """
    n = draw(st.sampled_from(MODULI_BY_DISTINCT_PRIMES[draw(st.integers(1, 4))]))
    step = draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
    coeffs = [0] * n
    for j in draw(st.lists(st.integers(0, n // step - 1), max_size=20)):
        coeffs[j * step] += draw(st.sampled_from((1, -1, 2, -3)))
    zero = [0] * n
    for p in draw(st.lists(st.sampled_from(_prime_factors(n)), max_size=3)):
        r, t = draw(st.integers(0, n // p - 1)), draw(st.sampled_from((1, -1, 2)))
        for k in range(p):
            zero[r + k * (n // p)] += t
    return CyclotomicSum(n, coeffs), CyclotomicSum(n, zero)


@settings(max_examples=150, deadline=None)
@given(sums_over_moduli_with_few_primes())
def test_one_reduction_canonicalizes_over_moduli_with_few_primes(sums):
    s, zero = sums
    assert zero.is_zero()
    want = _canonical_coercing(s)
    _same_sum(s.canonical(), want)
    _same_sum((s + zero).canonical(), want)
