"""Reference routes that the library does not take, kept as test oracles.

The library decides and reports on integer residues only.  This module
keeps the rational layer they are tested against:

  * the defining formulas of the discriminant data, evaluated on rational
    vectors: phi_eval, linking_pairing and evaluation_pairing, the rational
    lifts g_i = V_i / d_i of the torsion generators (lifts, torsion_lift)
    and the dual-lattice test (dual_contains, require_dual);
  * the checked public forms of the library's radical slopes and cokernel
    coordinates (radical_slope, chern_coordinates);
  * functions of a QuadraticFunction given by its QmodZ values: bilinear_of,
    defect_of, gauss_sum, radical_compatible, invariant_fingerprint and
    is_isomorphic, with checked_isometry, the search-then-check-the-whole-
    table loop that the library's witnesses are compared with;
  * Q/Z angles as QmodZ: qmodz_reduce, cyclo_from_angles, and
    residue_multiset, the expansion of a residue histogram;
  * the second decision route on finite homology, yc_equivalent_by_pairing,
    which matches decoration classes by a pairing-preserving torsion map and
    then compares Gauss sums.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import quadlink.classify as classify
from quadlink.classify import DEFAULT_SEARCH_BUDGET, EquivalenceVerdict
from quadlink.exact import CyclotomicSum, QmodZ, RationalLike, cyclo_from_residues
from quadlink.lattice import DiscriminantData, DualLatticeError, _chern_coordinates, _radical_slope
from quadlink.presentation import DecoratedPresentation
from quadlink.quadfun import (
    DEFAULT_ORDER_CAP,
    Element,
    Fingerprint,
    GroupIso,
    OrderCapExceeded,
    QuadraticFunction,
    _generator_data,
    _generator_isomorphism,
    _image_positions,
    _isometries,
    _radical_gcd,
    _residue_tables,
    table_fingerprint,
)

# --- exact -----------------------------------------------------------------


def qmodz_reduce(value: RationalLike) -> QmodZ:
    """Reduce a rational to its canonical representative mod 1."""
    return QmodZ(value)


def cyclo_from_angles(angles: Iterable[Union[QmodZ, RationalLike]]) -> CyclotomicSum:
    """Sum of exp(2*pi*i*a) over the multiset of rational angles a."""
    reduced = [a if isinstance(a, QmodZ) else QmodZ(a) for a in angles]
    n = math.lcm(1, *(a.denominator for a in reduced)) if reduced else 1
    coeffs = [0] * n
    for a in reduced:
        coeffs[a.numerator * (n // a.denominator)] += 1
    return CyclotomicSum(n, coeffs)


def residue_multiset(histogram: Mapping[int, int], modulus: int) -> tuple[int, ...]:
    """The sorted multiset of residues r standing for r/modulus, r taken histogram[r] times.

    Residues must lie in [0, modulus); then ascending residue is
    ascending angle r/modulus, and two multisets over one modulus are
    equal exactly when the angles they stand for are.
    """
    residues = sorted(histogram)
    if residues and (residues[0] < 0 or residues[-1] >= modulus):
        raise ValueError(f"residues must lie in [0, {modulus}), got {residues[0]}..{residues[-1]}")
    counts = map(histogram.__getitem__, residues)
    return tuple(itertools.chain.from_iterable(map(itertools.repeat, residues, counts)))


# --- lattice ---------------------------------------------------------------

RationalVector = tuple[Fraction, ...]


def _frac_vec(v: Sequence) -> RationalVector:
    return tuple(Fraction(x) for x in v)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), start=Fraction(0))


def lifts(data: DiscriminantData) -> tuple[RationalVector, ...]:
    """The rational lifts g_i = V_i / d_i of the torsion generators."""
    return tuple(tuple(Fraction(x, d) for x in v) for d, v in zip(data.torsion_factors, data.torsion_columns))


def dual_contains(data: DiscriminantData, x: Sequence) -> bool:
    xs = _frac_vec(x)
    if len(xs) != data.size:
        raise DualLatticeError(f"vector length {len(xs)} does not match a {data.size}-component form")
    return all(_dot(row, xs).denominator == 1 for row in data.matrix.data)


def require_dual(data: DiscriminantData, x: Sequence) -> RationalVector:
    xs = _frac_vec(x)
    if not dual_contains(data, xs):
        raise DualLatticeError(f"{list(xs)} is not in the dual lattice: B x is not integral")
    return xs


def torsion_lift(data: DiscriminantData, coords: Sequence[int]) -> RationalVector:
    """The stored rational lift of the torsion element with these coordinates."""
    if len(coords) != len(data.torsion_factors):
        raise ValueError("coordinate length does not match the torsion rank")
    n = data.size
    acc = [Fraction(0)] * n
    for a, g in zip(coords, lifts(data)):
        for k in range(n):
            acc[k] += a * g[k]
    return tuple(acc)


def phi_eval(data: DiscriminantData, c: Sequence[int], x: Sequence) -> QmodZ:
    """(x^T B x - c^T x) / 2 mod 1 on a dual vector x, for characteristic c."""
    cs = data.require_characteristic(c)
    xs = require_dual(data, x)
    bx = [_dot(row, xs) for row in data.matrix.data]
    return QmodZ((_dot(xs, bx) - _dot(cs, xs)) / 2)


def linking_pairing(data: DiscriminantData, x: Sequence, y: Sequence) -> QmodZ:
    """x^T B y mod 1 on dual vectors; descends to the discriminant group."""
    xs = require_dual(data, x)
    ys = require_dual(data, y)
    by = [_dot(row, ys) for row in data.matrix.data]
    return QmodZ(_dot(xs, by))


def evaluation_pairing(alpha: Sequence[int], x: Sequence) -> QmodZ:
    """alpha(x) mod 1 for an integer covector alpha and a dual vector x."""
    if len(alpha) != len(x):
        raise ValueError("covector and vector lengths differ")
    return QmodZ(_dot([int(a) for a in alpha], _frac_vec(x)))


def radical_slope(data: DiscriminantData, c: Sequence[int]) -> tuple[int, ...]:
    """The integer slopes c(k_j)/2 of phi_c on the stored kernel basis.

    These determine the radical restriction; note that the evaluation of
    phi_c on a radical element k_j (x) [r] is -(slope) * r, with the
    minus sign forced by the defining formula (B - c)/2.
    """
    return _radical_slope(data, data.require_characteristic(c))


def chern_coordinates(data: DiscriminantData, c: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinates of the class of c in coker(B): (free part, torsion part).

    The free part is an integer vector over the free Smith generators
    and the torsion part is reduced mod the invariant factors.  Both are
    unchanged when c moves by 2 B h, so they are invariants of the
    characteristic class of c.
    """
    return _chern_coordinates(data, data.require_characteristic(c))


# --- quadfun ---------------------------------------------------------------


def bilinear_of(q: QuadraticFunction, x: Element, y: Element) -> QmodZ:
    """The polarization b_q(x, y) = q(x+y) - q(x) - q(y)."""
    g = q.group
    return q(g.add(x, y)) - q(x) - q(y)


def defect_of(q: QuadraticFunction, x: Element) -> QmodZ:
    """The homogeneity defect d_q(x) = q(x) - q(-x); a homomorphism in x."""
    return q(x) - q(q.group.neg(x))


def gauss_sum(q: QuadraticFunction) -> CyclotomicSum:
    """Sum of exp(2 pi i q(x)) over the (finite) group, exactly.

    Radical slope data does not enter: the table is the finite part and
    the sum is taken over it, matching the use of one stored section.
    """
    modulus, (residues,) = _residue_tables(q)
    return cyclo_from_residues(Counter(residues), modulus)


def radical_compatible(q1: QuadraticFunction, q2: QuadraticFunction) -> bool:
    """Slope data matches up to sign and unimodular change of radical basis.

    An integer linear functional on Z^b is carried to another by GL(b,Z)
    exactly when the gcds of the coefficient vectors agree, so rank and
    gcd of the doubled slopes decide.
    """
    return len(q1.radical_slopes) == len(q2.radical_slopes) and _radical_gcd(
        q1.radical_slopes
    ) == _radical_gcd(q2.radical_slopes)


def invariant_fingerprint(q: QuadraticFunction) -> Fingerprint:
    """The fingerprint of a function given by its rational values, over the lcm of their denominators."""
    factors = q.group.invariant_factors
    modulus, (residues,) = _residue_tables(q)
    return table_fingerprint(factors, modulus, residues, *_generator_data(factors, modulus, residues), q.radical_slopes)


def is_isomorphic(q1: QuadraticFunction, q2: QuadraticFunction) -> GroupIso | None:
    """An isomorphism Psi with q2(Psi(x)) = q1(x) for all x, or None.

    The search is exhaustive over order-compatible generator images, so
    None is a definite negative for the finite parts; radical slope data
    is compared by rank and gcd first.  The search's witness matches q
    everywhere only on quadratic tables, so it is checked once on the
    whole table: a table built with check=False that is not quadratic
    raises ValueError here.
    """
    factors = q1.group.invariant_factors
    if factors != q2.group.invariant_factors or not radical_compatible(q1, q2):
        return None
    modulus, (values1, values2) = _residue_tables(q1, q2)
    if Counter(values1) != Counter(values2):
        return None
    data1, data2 = (_generator_data(factors, modulus, values) for values in (values1, values2))
    images = _generator_isomorphism(factors, modulus, *data1, *data2, values2)
    if images is None:
        return None
    if any(values2[u] != v for u, v in zip(_image_positions(factors, images), values1)):
        raise ValueError("is_isomorphic needs quadratic functions: a map matching q on the generators misses it elsewhere")
    return GroupIso(q1.group, q2.group, images)


def checked_isometry(
    factors: Sequence[int],
    modulus: int,
    q1: Sequence[int],
    b1: Sequence[Sequence[int]],
    values1: Sequence[int],
    b2: Sequence[Sequence[int]],
    values2: Sequence[int],
) -> tuple[Element, ...] | None:
    """Generator images of the first isometry carrying b2 to b1 that carries values2 to values1 on the whole table, or None.

    The candidates and the search order are those of the library's
    search (quadfun._generator_isomorphism), but every leaf is checked
    pointwise on the whole value table, so the argument that a match on
    the generators extends to every element is not taken on trust.
    Bijectivity of a leaf is left to _isometries; patching
    quadfun._nondegenerate to return False makes it test every leaf.
    All data are residues in units of 1/modulus, tables in
    itertools.product order.
    """
    elements = list(itertools.product(*(range(d) for d in factors)))
    candidates = [[m for m, v in zip(elements, values2) if v == want] for want in q1]
    if not all(candidates):
        return None
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    for images in _isometries(factors, modulus, b1, b2, order, candidates, lambda: True):
        if all(values2[u] == v for u, v in zip(_image_positions(factors, images), values1)):
            return images
    return None


# --- classify --------------------------------------------------------------

_PAIRING_REASONS = (
    "no pairing-preserving map matches the decoration classes",
    "torsion map {} matches the decorations and the Gauss sums agree",
    "Gauss sums differ",
)


def yc_equivalent_by_pairing(
    p1: DecoratedPresentation,
    p2: DecoratedPresentation,
    *,
    cap: int = DEFAULT_ORDER_CAP,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> EquivalenceVerdict:
    """Decide equivalence of finite-homology presentations the long way.

    Instead of searching for an isomorphism of the quadratic functions
    directly, look for a pairing-preserving torsion map matching the
    decoration classes and then compare the two Gauss sums, by the
    phase of one at the point where the functions differ by a
    character.  Both routes decide the same relation; keeping them
    separate lets tests confront one with the other.

    The classify internals are looked up on the module at each call, so
    a test that patches one of them patches this route too.
    """
    d1 = classify.discriminant(p1.matrix)
    d2 = classify.discriminant(p2.matrix)
    if d1.free_rank or d2.free_rank:
        raise ValueError("the pairing route applies to finite first homology only")
    if d1.torsion_factors != d2.torsion_factors:
        return EquivalenceVerdict(
            classify.INEQUIVALENT,
            f"torsion invariant factors differ: {d1.torsion_factors} vs {d2.torsion_factors}",
        )
    if d1.torsion_order > cap:
        raise OrderCapExceeded(d1.torsion_order, cap)
    side1, side2 = classify._side(d1, p1.chern), classify._side(d2, p2.chern)
    return classify._torsion_map_verdict(side1, side2, classify._Budget(budget), _PAIRING_REASONS)
