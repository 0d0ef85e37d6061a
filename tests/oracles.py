"""Reference routes that the library does not take, kept as test oracles.

The library decides and reports on integer residues only.  This module
keeps the rational layer they are tested against:

  * the defining formulas of the discriminant data, evaluated on rational
    vectors: phi_eval, linking_pairing and evaluation_pairing, the rational
    lifts g_i = V_i / d_i of the torsion generators (lifts, torsion_lift)
    and the dual-lattice test (dual_contains, require_dual);
  * the checked public forms of the library's radical slopes and cokernel
    coordinates (radical_slope, chern_coordinates), the free cokernel
    coordinates recomputed from the Smith decomposition, which the library
    never replays (u_free_rows, cok_free_covectors, duality_matrix,
    eval_free_lift);
  * the isometry search that tests element order and self-pairing at every
    visit and bijectivity at each leaf of a degenerate pairing,
    reference_isometries and reference_generator_isomorphism, with
    image_positions; the library lists admissible candidates once and
    needs a nondegenerate pairing;
  * functions of a QuadraticFunction given by its QmodZ values: bilinear_of,
    defect_of, gauss_sum, radical_compatible, invariant_fingerprint and
    is_isomorphic, with checked_isometry, the search-then-check-the-whole-
    table loop that the library's witnesses are compared with;
  * Q/Z angles as QmodZ: qmodz_reduce, cyclo_from_angles, and
    residue_multiset, the expansion of a residue histogram;
  * the second decision route on finite homology, yc_equivalent_by_pairing,
    which matches decoration classes by a pairing-preserving torsion map and
    then compares Gauss sums;
  * the search per allowed translate, translate_isometry_by_translates and
    finite_isomorphism_by_translates, which the library's one search per
    p-part with one congruence per generator replaced;
  * the mixed regime's sweep, yc_equivalent_by_sweep: a budgeted search
    over torsion maps, couplings of the free part into torsion and section
    shifts, which the library's translate criterion replaced and is
    differentially tested against.  A budgeted route can answer UNKNOWN,
    which the library's EquivalenceVerdict does not accept, so the oracle
    routes return their own OracleVerdict;
  * reference_smith, the Smith elimination that rebuilds every row in every
    round of a column phase, whose log smith_normal_form must reproduce;
  * the two lens counts by enumeration: reference_lens_yc_count walks the
    orbits of Z/p under multiplication by the square roots of unity, which
    lens_yc_count counts by Burnside's lemma, and reference_lens_diffeo_count
    lists the p fixed-point triples that lens_diffeo_count counts in one
    pass.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

import quadlink.classify as classify
from quadlink.classify import EQUIVALENT, INEQUIVALENT
from quadlink.exact import CyclotomicSum, QmodZ, RationalLike, cyclo_from_residues
from quadlink.lattice import DiscriminantData, DualLatticeError, _int_dot, _radical_slope, _torsion_coordinates
from quadlink.presentation import DecoratedPresentation
from quadlink.quadfun import (
    DEFAULT_ORDER_CAP,
    Element,
    FiniteAbelianGroup,
    Fingerprint,
    GroupIso,
    OrderCapExceeded,
    QuadraticFunction,
    _defect_character,
    _generator_data,
    _linear_table,
    _nondegenerate,
    _quadratic_table,
    _radical_gcd,
    _residue_tables,
    table_fingerprint,
)
from quadlink.zlinalg import ADD, NEGATE, SWAP, IntMatrix, SmithDecomposition, determinant, intmatrix, smith_normal_form

# --- zlinalg ---------------------------------------------------------------
#
# The Smith elimination that rebuilds every row in every round of a column
# phase: the library's smith_normal_form must log exactly what
# reference_smith logs.


def _reference_pivot(a: list[list[int]]) -> tuple[int, int] | None:
    """The first entry of least nonzero |value| in row-major order of the block a.

    This is the pivot at a fresh index.  A unit is that minimum, so the
    first unit of the first row holding one is the same pivot, found by
    membership tests; only a block without a unit is scanned entry by entry.
    """
    for i, row in enumerate(a):
        if 1 in row or -1 in row:
            return i, min(row.index(y) for y in (1, -1) if y in row)
    sizes = [min(map(abs, filter(None, row)), default=0) for row in a]
    x = min(filter(None, sizes), default=0)
    if not x:
        return None
    i = sizes.index(x)
    return i, list(map(abs, a[i])).index(x)


def reference_smith(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with deterministic pivoting, pivot column first.

    At a fresh index t the pivot is the entry of smallest nonzero absolute
    value in the remaining block, ties broken by lowest row index then
    lowest column index (_pivot).  The pivot p clears its column before
    its row (Cohen, GTM 138, Algorithm 2.4.14; Havas, Majewski and
    Matthews, Exp. Math. 7, 1998).  Column phase: each row below t loses
    q times row t, with the centred quotient q = (x + p // 2) // p, so
    remainders lie in [-(p // 2), p - p // 2); while one is left, the
    least |remainder| (first row on ties) is swapped in as the pivot and
    the phase repeats, until column t is (p, 0, ..., 0).  Row phase: each
    entry of row t is reduced the same way by a column addition, which
    changes that entry alone as column t is zero below p; if a remainder
    is left, the least (first column on ties) is swapped into column t
    and the column phase starts again.  If p does not divide the
    remaining block, the first offending row is added to row t and the
    pivot is chosen afresh.  Determinism matters because the
    discriminant construction freezes a section out of V's columns and
    every downstream Gauss sum refers to it.

    Only the matrix is eliminated; each operation is logged (see
    SmithDecomposition).  Rows and columns before t are finished, so only
    the block of rows and columns t, t + 1, ... is kept, each finished
    row and column dropped from it in place; the pivots are the diagonal.
    """
    m = intmatrix(m)
    a = [list(row) for row in m.data]  # the active block: rows and columns t, t + 1, ...
    row_ops: list[tuple[str, int, int, int]] = []
    col_ops: list[tuple[str, int, int, int]] = []
    pivots: list[int] = []

    while (piv := _reference_pivot(a)) is not None:
        t = len(pivots)
        pi, pj = piv
        while True:
            if pj:
                for row in a:
                    row[0], row[pj] = row[pj], row[0]
                col_ops.append((SWAP, t, t + pj, 0))
            if pi:
                a[0], a[pi] = a[pi], a[0]
                row_ops.append((SWAP, t, t + pi, 0))
            pivot_row = a[0]
            if pivot_row[0] < 0:
                a[0] = pivot_row = [-x for x in pivot_row]
                row_ops.append((NEGATE, t, t, 0))
            p = best = pivot_row[0]
            h = p // 2
            pi = pj = 0
            for i in range(1, len(a)):  # column phase
                x = a[i][0]
                if x:
                    q = (x + h) // p
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], pivot_row)]
                        row_ops.append((ADD, t + i, t, -q))
                        x -= q * p
                    if x and abs(x) < best:
                        best, pi = abs(x), i
            if pi:
                continue
            for j in range(1, len(pivot_row)):  # row phase: col j += q col t changes pivot_row[j] alone
                x = pivot_row[j]
                if x:
                    q = (x + h) // p
                    if q:
                        pivot_row[j] = x = x - q * p
                        col_ops.append((ADD, t + j, t, -q))
                    if x and abs(x) < best:
                        best, pj = abs(x), j
            if not pj:
                break
        # pivot must divide the remaining block for the invariant-factor chain
        if p != 1:
            offender = next((i for i in range(1, len(a)) if any(x % p for x in a[i][1:])), None)
            if offender is not None:
                a[0] = [y + z for y, z in zip(pivot_row, a[offender])]
                row_ops.append((ADD, t, t + offender, 1))
                continue
        pivots.append(p)
        del a[0]
        for row in a:
            del row[0]

    diag = tuple(pivots) + (0,) * (min(m.rows, m.cols) - len(pivots))
    return SmithDecomposition(matrix=m, diag=diag, row_ops=tuple(row_ops), col_ops=tuple(col_ops))


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
    characteristic class of c.  The free part replays the free rows of U
    (u_free_rows), which no library route reads.
    """
    cs = data.require_characteristic(c)
    return tuple(_int_dot(row, cs) for row in u_free_rows(data)), _torsion_coordinates(data, cs)


def u_free_rows(data: DiscriminantData) -> tuple[tuple[int, ...], ...]:
    """The rows of the Smith transform U at the free indices."""
    snf = smith_normal_form(data.matrix)
    return snf.u_rows(free_indices(snf))


def cok_free_covectors(data: DiscriminantData) -> tuple[tuple[int, ...], ...]:
    """The columns of U^-1 at the free indices: covectors of the free Smith generators of coker(B)."""
    snf = smith_normal_form(data.matrix)
    return snf.uinv_columns(free_indices(snf))


def free_indices(snf: SmithDecomposition) -> list[int]:
    """The Smith indices of the free generators of coker(B): those of the zero invariant factors."""
    return [i for i, d in enumerate(snf.diag) if d == 0]


def duality_matrix(data: DiscriminantData) -> IntMatrix:
    """The pairing matrix between the free covectors and the kernel basis, checked to be unimodular."""
    w = IntMatrix([[_int_dot(fm, kj) for kj in data.kernel] for fm in cok_free_covectors(data)], cols=data.free_rank)
    if abs(determinant(w)) != 1:
        raise RuntimeError("free covectors and kernel basis must pair unimodularly")
    return w


def eval_free_lift(data: DiscriminantData) -> tuple[tuple[int, ...], ...]:
    """eval_free_lift[m][i] is the m-th free covector on g_i, in the unit 1/data.value_modulus of data.linking."""
    # B g_i = U'_i puts g_i = V_i / d_i in the dual lattice, so the
    # evaluation is an integer dot product over d_i
    m = data.value_modulus
    columns = tuple(zip(data.torsion_factors, data.torsion_columns))
    return tuple(tuple(m // d * _int_dot(fm, v) % m for d, v in columns) for fm in cok_free_covectors(data))


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


# The isometry search as the library ran it before admissible candidates
# were listed up front: element order and self-pairing are tested at every
# visit of a candidate, nondegeneracy of b1 is decided once per search, and
# a degenerate b1 leaves bijectivity to a test at each leaf.  On
# nondegenerate data the library's quadfun._generator_isomorphism must
# return the first leaf of reference_generator_isomorphism; the sweeps
# drive reference_isometries with Charged candidates.


def image_positions(factors: Sequence[int], images: Sequence[Sequence[int]]) -> list[int]:
    """Position of Psi(w) in itertools.product order for every w, in that order; Psi(g_i) = images[i]."""
    positions = [0] * math.prod(factors)
    for j, d in enumerate(factors):
        stride = math.prod(factors[j + 1 :])
        for t, c in enumerate(_linear_table([m[j] for m in images], factors, d)):
            positions[t] += c * stride
    return positions


def reference_isometries(
    factors: Sequence[int], modulus: int, link1: Sequence[Sequence[int]], link2: Sequence[Sequence[int]],
    order: Sequence[int], candidates: Sequence[Iterable[Element]],
) -> Iterator[tuple[Element, ...]]:
    """Yield the generator images of each automorphism, built from the candidates, that carries link1 to link2.

    link1 and link2 hold b(g_i, g_j) on the two sides in units of
    1/modulus.  Depth-first over the generators in the given order,
    pruned by element order and by the pairing against the partial map,
    so every leaf is a homomorphism Psi with b2(Psi x, Psi y) = b1(x, y).
    When b1 is nondegenerate (decided once per search), Psi x = 0 gives
    b1(x, .) = 0, hence x = 0: every leaf is bijective.  Otherwise a leaf
    counts when its image table shows it bijective.  candidates[i] is
    iterated afresh at each visit of generator i.
    """
    k = len(factors)
    injective = _nondegenerate(factors, modulus, link1)
    cache: dict[tuple, int] = {}

    def pair(x: Element, y: Element) -> int:
        key = (x, y) if x <= y else (y, x)
        if key not in cache:
            a, b = key
            terms = (ai * bj * link2[i][j] for i, ai in enumerate(a) if ai for j, bj in enumerate(b) if bj)
            cache[key] = sum(terms) % modulus
        return cache[key]

    images: list[Element] = [()] * k

    def extend(depth: int) -> Iterator[tuple[Element, ...]]:
        if depth == k:
            if injective or len(set(image_positions(factors, images))) == math.prod(factors):
                yield tuple(images)
            return
        i = order[depth]
        for m in candidates[i]:
            if any((factors[i] * ml) % dl for ml, dl in zip(m, factors)):
                continue
            if pair(m, m) != link1[i][i]:
                continue
            if any(pair(m, images[j]) != link1[i][j] for j in order[:depth]):
                continue
            images[i] = m
            yield from extend(depth + 1)

    yield from extend(0)


def reference_generator_isomorphism(
    factors: Sequence[int],
    modulus: int,
    q1: Sequence[int],
    b1: Sequence[Sequence[int]],
    q2: Sequence[int],
    b2: Sequence[Sequence[int]],
    values2: Sequence[int],
    steps: Sequence[int],
) -> tuple[Element, ...] | None:
    """Generator images of an isometry Psi carrying b2 to b1 with q2(Psi g_i) = q1(g_i) mod steps[i], or None.

    Each side is given by q and b on the generators, side 2 also by its
    value table, as residues in units of 1/modulus, the table in
    itertools.product order; each step divides modulus.  The search is
    exhaustive, so None is a definite negative.  Its first leaf is
    returned unchecked: it carries b2 to b1, so chi = q2 o Psi - q1 is a
    character, as q2(Psi(x + y)) = q2(Psi x) + q2(Psi y) + b1(x, y), and
    reference_isometries has made sure it is bijective; with every step
    modulus, chi = 0.  The defect q(x) - q(-x) is a character, that of
    q2 o Psi = q1 + chi is the defect of q1 plus 2 chi, and 2 chi(g_i) is
    a multiple of 2 steps[i]: so the gcd of modulus, the 2 steps[i] and
    the defect on the generators is the same on both sides.
    """
    doubled = [2 * s for s in steps]
    if math.gcd(modulus, *_defect_character(modulus, q1, b1), *doubled) != math.gcd(modulus, *_defect_character(modulus, q2, b2), *doubled):
        return None
    elements = list(itertools.product(*(range(d) for d in factors)))
    candidates = [[m for m, v in zip(elements, values2) if (v - want) % s == 0] for want, s in zip(q1, steps)]
    if not all(candidates):
        return None
    # largest order first; enumeration order of candidates fixes determinism
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    return next(reference_isometries(factors, modulus, b1, b2, order, candidates), None)


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
    images = reference_generator_isomorphism(factors, modulus, *data1, *data2, values2, [modulus] * len(factors))
    if images is None:
        return None
    if any(values2[u] != v for u, v in zip(image_positions(factors, images), values1)):
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

    The candidates and the search order are those of the reference
    search (reference_generator_isomorphism), but every leaf is checked
    pointwise on the whole value table, so the argument that a match on
    the generators extends to every element is not taken on trust.
    Bijectivity of a leaf is left to reference_isometries; patching
    this module's _nondegenerate to return False makes it test every leaf.
    All data are residues in units of 1/modulus, tables in
    itertools.product order.
    """
    elements = list(itertools.product(*(range(d) for d in factors)))
    candidates = [[m for m, v in zip(elements, values2) if v == want] for want in q1]
    if not all(candidates):
        return None
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    for images in reference_isometries(factors, modulus, b1, b2, order, candidates):
        if all(values2[u] == v for u, v in zip(image_positions(factors, images), values1)):
            return images
    return None


# --- classify --------------------------------------------------------------
#
# The library searches each rank >= 2 p-part once, with the congruences
# q2(Psi h_i) = q1(h_i) mod M / k_i standing for every allowed translate.
# The route it replaced searched the translates one at a time.


def translate_isometry_by_translates(factors: Sequence[int], modulus: int, g: int, side1: tuple, side2: tuple) -> tuple | None:
    """On one p-part, the first allowed translate of q1 that an isometry carries q2 to: (x, the translate, Psi), or None.

    Each side is (q, b, value table, value histogram), q and b on the
    generators h_i of orders d_i.  The translates are q1 + b1(., t) for
    t = sum x_i h_i with x_i a multiple of gcd(g, d_i), in
    itertools.product order of x; the translate is given on the h_i.
    q1 + b1(., t) is x -> q1(x + t) - q1(t), so its histogram is that of
    q1 shifted by -q1(t), and only a translate whose histogram is hist2
    is searched, for an isomorphism.  With g = 0 only t = 0 is allowed.
    """
    q1, b1, values1, hist1 = side1
    q2, b2, values2, hist2 = side2
    strides = [math.prod(factors[i + 1 :]) for i in range(len(factors))]
    fits: dict[int, bool] = {}  # per value c = q1(t), whether hist1 shifted by -c is hist2
    for x in itertools.product(*(range(0, d, math.gcd(g, d)) for d in factors)):
        c = values1[_int_dot(x, strides)]
        if c not in fits:
            fits[c] = all(hist2[(v - c) % modulus] == n for v, n in hist1.items())
        if fits[c]:
            shifted = tuple((q + _int_dot(x, row)) % modulus for q, row in zip(q1, b1))
            y = reference_generator_isomorphism(factors, modulus, shifted, b1, q2, b2, values2, [modulus] * len(factors))
            if y is not None:
                return x, shifted, y
    return None


def translate_by_scan(factors: Sequence[int], modulus: int, g: int, b1: Sequence[Sequence[int]], chi: Sequence[int]) -> tuple[int, ...] | None:
    """The coordinates x of the t = sum x_i h_i in gT_p with b1(h_i, t) = chi_i, or None, by a scan of gT_p in itertools.product order.

    The reference for classify._translate, which reads x in closed form
    on a cyclic part.
    """
    grid = itertools.product(*(range(0, d, math.gcd(g, d)) for d in factors))
    return next((x for x in grid if [_int_dot(x, row) % modulus for row in b1] == list(chi)), None)


def finite_isomorphism_by_translates(side1: classify._Side, side2: classify._Side, g: int) -> bool:
    """Whether some isometry Psi and t in gT give q2 o Psi = q1 + b1(., t), searched p-part by p-part and translate by translate.

    Cyclic p-parts are searched too, on their tables, with no closed form.
    """
    data1, data2 = side1.data, side2.data
    modulus = data1.value_modulus
    for part in classify._primary_parts(data1.torsion_factors):
        sides = []
        for side, data in ((side1, data1), (side2, data2)):
            q, b = part.quadratic(modulus, side.q_gen, data.linking), part.pairing(modulus, data.linking)
            values = _quadratic_table(part.factors, modulus, q, b)
            sides.append((q, b, values, Counter(values)))
        if translate_isometry_by_translates(part.factors, modulus, g, *sides) is None:
            return False
    return True


DEFAULT_SEARCH_BUDGET = 250_000
UNKNOWN = "unknown"


@dataclass(frozen=True)
class OracleVerdict:
    """A verdict of an oracle route: EQUIVALENT, INEQUIVALENT or, once its budget runs out, UNKNOWN.

    A test compares it with a library EquivalenceVerdict by (status,
    reason, witness).
    """

    status: str
    reason: str
    witness: GroupIso | None = None


class Budget:
    """Step counter shared across the stages of one swept decision.

    charge(cost) adds cost to spent and reports whether spent is still
    within limit; once it is not, exhausted stays set and every later
    charge is refused.  The sweep charges one step per torsion map
    tried, d^b in one charge for the coupling rows of (Z/d)^b at each
    new (d, v) pair, and |G| per section character: a deterministic
    work measure.  No row is built: the contractions solve 2x = v
    (mod d) (see coupling_contractions).
    """

    __slots__ = ("limit", "spent", "exhausted")

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.spent = 0
        self.exhausted = False

    def charge(self, cost: int = 1) -> bool:
        self.spent += cost
        if self.spent > self.limit:
            self.exhausted = True
        return not self.exhausted


class Charged:
    """Candidates that charge a budget: one step per item, before it is yielded, iterated afresh each time.

    As the candidates of reference_isometries they charge one step per
    candidate tried, and a refused charge ends that visit of the
    generator; every later visit is refused at once, since the budget
    stays exhausted, so the search unwinds with no verdict.
    """

    __slots__ = ("items", "budget")

    def __init__(self, items: Sequence, budget: Budget) -> None:
        self.items = items
        self.budget = budget

    def __iter__(self):
        for item in self.items:
            if not self.budget.charge():
                return
            yield item


def character_positions(factors: Sequence[int], modulus: int, link: Sequence[Sequence[int]]) -> dict[tuple, int]:
    """Position of every torsion element t, keyed by (b(g_i, t))_i in units of 1/modulus, b given by link.

    Raises unless the keys differ, i.e. unless b is nondegenerate.
    """
    columns = [_linear_table(row, factors, modulus) for row in link]
    positions = {key: pos for pos, key in enumerate(zip(*columns))} if columns else {(): 0}
    if len(positions) != math.prod(factors):
        raise RuntimeError(f"the linking pairing on {tuple(factors)} is degenerate")
    return positions


def torsion_map_verdict(
    side1: classify._Side,
    side2: classify._Side,
    budget: Budget,
    reasons: tuple[str, str, str],
) -> OracleVerdict:
    """Match decoration classes by a pairing-preserving torsion map, then compare Gauss sums.

    Sound when the Gauss sums do not depend on the section, i.e. when
    the decorations are blind to the radical.  For the matching map
    Psi, q1 - q2 o Psi is a character b1(., t1), so
    gamma(q1) = e(-q2(Psi t1)) gamma(q2) and the sums agree exactly
    when q2(Psi t1) = 0.  reasons holds the prose for: no matching map,
    equivalence (formatted with the map), and a Gauss sum mismatch.
    """
    data1, data2 = side1.data, side2.data
    factors = data1.torsion_factors
    modulus = data1.value_modulus
    values2 = side2.table
    characters = character_positions(factors, modulus, data1.linking)
    group = FiniteAbelianGroup(factors)
    link1, link2 = data1.linking, data2.linking
    no_map, equivalent, gauss_differ = reasons
    elements = list(group.elements())
    k = len(factors)
    for images in reference_isometries(factors, modulus, link1, link2, range(k), [Charged(elements, budget)] * k):
        if GroupIso(group, group, images).apply(side1.tors) == side2.tors:
            break
    else:
        if budget.exhausted:
            return OracleVerdict(UNKNOWN, "budget ran out while sweeping torsion maps")
        return OracleVerdict(INEQUIVALENT, no_map)
    dmap = image_positions(factors, images)
    # positions of the generators g_i in itertools.product order
    gens = [math.prod(factors[i + 1 :]) for i in range(k)]
    t1 = characters[tuple((q - values2[dmap[p]]) % modulus for q, p in zip(side1.q_gen, gens))]
    if values2[dmap[t1]] == 0:
        return OracleVerdict(EQUIVALENT, equivalent.format(images))
    return OracleVerdict(INEQUIVALENT, gauss_differ)


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
) -> OracleVerdict:
    """Decide equivalence of finite-homology presentations the long way.

    Instead of searching for an isomorphism of the quadratic functions
    directly, look for a pairing-preserving torsion map matching the
    decoration classes and then compare the two Gauss sums, by the
    phase of one at the point where the functions differ by a
    character.  Both routes decide the same relation; keeping them
    separate lets tests confront one with the other.

    The internals are looked up on the modules at each call, so a test
    that patches one of them, in classify or here, patches this route
    too.
    """
    d1 = classify.discriminant(p1.matrix)
    d2 = classify.discriminant(p2.matrix)
    if d1.free_rank or d2.free_rank:
        raise ValueError("the pairing route applies to finite first homology only")
    if d1.torsion_factors != d2.torsion_factors:
        return OracleVerdict(
            INEQUIVALENT,
            f"torsion invariant factors differ: {d1.torsion_factors} vs {d2.torsion_factors}",
        )
    if d1.torsion_order > cap:
        raise OrderCapExceeded(d1.torsion_order, cap)
    side1, side2 = classify._side(d1, p1.chern), classify._side(d2, p2.chern)
    return torsion_map_verdict(side1, side2, Budget(budget), _PAIRING_REASONS)


def check_duality(data: DiscriminantData, slopes: Sequence[int], free: Sequence[int]) -> None:
    """Raise unless twice the slopes equal the free cokernel coordinates of c contracted against the duality matrix."""
    w = duality_matrix(data)
    for j in range(len(slopes)):
        if 2 * slopes[j] != sum(w[m][j] * free[m] for m in range(data.free_rank)):
            raise RuntimeError(f"slope {j} breaks the duality identity with the free decoration part")


def free_part(side: classify._Side) -> tuple[int, ...]:
    """The free cokernel coordinates of a side's decoration, checked against its slopes by the duality identity."""
    free = chern_coordinates(side.data, side.chern)[0]
    check_duality(side.data, side.slopes, free)
    return free


def coupling_contractions(ell: Sequence[int], d: int, v: int) -> tuple[int, ...]:
    """The sorted values x = ell.rho mod d over the coupling rows rho of (Z/d)^b with 2x = v (mod d).

    The sweep's free part is 2 ell, so a row is admissible exactly when
    its contraction x solves 2x = v; the rows contract to the multiples
    of gcd(d, ell), so x ranges over the at most two solutions among
    them, and no row is built.
    """
    return tuple(x for x in range(0, d, math.gcd(d, *ell)) if (2 * x - v) % d == 0)


MIXED_BLIND_REASONS = (
    "no pairing-preserving map matches the torsion decoration classes",
    "vanishing free decoration part; torsion map {} matches the decorations and the Gauss sums agree",
    "Gauss sums of the torsion parts differ",
)


def mixed_verdict(side1: classify._Side, side2: classify._Side, budget: Budget) -> OracleVerdict:
    """Sweep candidate maps when both free rank and torsion are present.

    A candidate consists of a pairing-preserving torsion map Psi, a
    coupling of the free part into torsion, and a section shift; the
    coupling enters the Gauss comparison only through its contraction
    mu against the slope covector, and the section shift only through
    a character chi ranging over the subgroup the slopes generate.
    For each candidate, side 1's function over the matched section is
    q2 + b2(., t), t = Psi(t1) read off the character b1(., t1) by
    which it differs from q2 o Psi; the Gauss sums shifted by chi agree
    exactly when q2(t) = chi(t).

    Every table holds residues in units of 1/M, M the value modulus,
    as do data.linking and eval_free_lift; tables are indexed by
    element position in itertools.product order.
    """
    data1, data2 = side1.data, side2.data
    g = math.gcd(*side1.slopes)
    if g == 0:
        # decoration is blind to the radical: the Gauss sums are section
        # independent and the candidate map only has to match the
        # torsion decoration classes
        return torsion_map_verdict(side1, side2, budget, MIXED_BLIND_REASONS)

    factors = data1.torsion_factors
    modulus = data1.value_modulus
    q2 = side2.table
    characters = character_positions(factors, modulus, data1.linking)
    group = FiniteAbelianGroup(factors)
    elements = list(group.elements())
    gens = [math.prod(factors[i + 1 :]) for i in range(len(factors))]
    link1, link2 = data1.linking, data2.linking
    # the slope covector W^-T slopes is free/2, since free_part checked
    # 2 slopes = W^T free and W is unimodular
    ell1 = tuple(f // 2 for f in free_part(side1))
    ell2 = tuple(f // 2 for f in free_part(side2))

    def contraction(data: DiscriminantData, ell: tuple[int, ...]) -> list[int]:
        # ell against the free-covector evaluations: one angle per torsion generator
        lift = eval_free_lift(data)
        return [sum(e * row[i] for e, row in zip(ell, lift)) % modulus for i in range(len(factors))]

    # side-1 angles on the generators against the stored section, slope-corrected;
    # the candidate-dependent remainder is subtracted per sweep step
    base1 = [(q + r) % modulus for q, r in zip(side1.q_gen, contraction(data1, ell1))]
    row2 = contraction(data2, ell2)

    char_axes = [range(0, d, math.gcd(g, d)) for d in factors]
    mu_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def mu_choices(d_l: int, v_l: int) -> tuple[int, ...]:
        # contractions of an admissible coupling row against the slope
        # covector, the only use of the row.  The first call per key
        # charges the d_l^b coupling rows of (Z/d_l)^b in one charge, as
        # the sweep below charges |G| per section character: a deterministic
        # work measure, though no row is built.  A refused charge leaves
        # the budget exhausted, so the sweep answers unknown at its next
        # charge, and the contractions are returned whole either way
        key = (d_l, v_l)
        if key not in mu_cache:
            budget.charge(d_l ** len(ell1))
            mu_cache[key] = coupling_contractions(ell1, d_l, v_l)
        return mu_cache[key]

    k = len(factors)
    for images in reference_isometries(factors, modulus, link1, link2, range(k), [Charged(elements, budget)] * k):
        mapped = GroupIso(group, group, images).apply(side1.tors)
        v = tuple((t - s) % d for t, s, d in zip(side2.tors, mapped, factors))
        if any(vl % math.gcd(g, dl) for vl, dl in zip(v, factors)):
            continue
        axes = [mu_choices(dl, vl) for dl, vl in zip(factors, v)]
        if any(not axis for axis in axes):
            continue
        dmap = image_positions(factors, images)
        q2_gen = [q2[dmap[p]] for p in gens]
        for mu in itertools.product(*axes):
            # side-2 slope correction plus the pairing with the coupling, linear in u
            row = [(r + sum(ml * link2[l][i] for l, ml in enumerate(mu))) % modulus for i, r in enumerate(row2)]
            # the character b1(., t1) by which side 1 differs from q2 o Psi, on the generators
            char1 = tuple((a - _int_dot(row, img) - q) % modulus for a, img, q in zip(base1, images, q2_gen))
            t = dmap[characters[char1]]
            phase, coords = q2[t], elements[t]
            for avec in itertools.product(*char_axes):
                if not budget.charge(len(elements)):
                    return OracleVerdict(
                        UNKNOWN, "budget ran out while comparing Gauss sums over matched sections"
                    )
                if (phase - sum(a * x * (modulus // d) for a, x, d in zip(avec, coords, factors))) % modulus == 0:
                    return OracleVerdict(
                        EQUIVALENT,
                        f"torsion map {images} with coupling contraction {mu} and section character {avec} matches the Gauss sums",
                    )
    if budget.exhausted:
        return OracleVerdict(UNKNOWN, "budget ran out before the sweep finished")
    return OracleVerdict(
        INEQUIVALENT,
        "no pairing-preserving map, coupling, and section shift reproduce the Gauss sums",
    )


def yc_equivalent_by_sweep(
    p1: DecoratedPresentation,
    p2: DecoratedPresentation,
    *,
    cap: int = DEFAULT_ORDER_CAP,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> OracleVerdict:
    """yc_equivalent with the mixed regime decided by the budgeted sweep, unknown when the budget runs out.

    A pair outside the mixed regime, or told apart by free rank, torsion
    factors or free gcd, gets the library's verdict.  mixed_verdict and
    torsion_map_verdict are looked up here at each call, so a test that
    patches them patches this route too.
    """
    side1, side2 = classify._sides(p1, p2)
    d1, d2 = side1.data, side2.data
    same = (d1.free_rank, d1.torsion_factors, side1.free_gcd) == (d2.free_rank, d2.torsion_factors, side2.free_gcd)
    if not (same and d1.free_rank and d1.torsion_factors):
        v = classify._decide(side1, side2, cap)
        return OracleVerdict(v.status, v.reason, v.witness)
    if d1.torsion_order > cap:
        raise OrderCapExceeded(d1.torsion_order, cap)
    return mixed_verdict(side1, side2, Budget(budget))


def reference_lens_yc_count(p: int) -> int:
    """Orbits of Z/p, p >= 2, under multiplication by the square roots of unity, walked one by one."""
    roots = [r for r in range(p) if (r * r) % p == 1]
    seen: set[int] = set()
    count = 0
    for i in range(p):
        if i in seen:
            continue
        count += 1
        seen.update((r * i) % p for r in roots)
    return count


def reference_lens_diffeo_count(p: int, q1: int, q2: int) -> int:
    """lens_diffeo_count from the list of all p fixed-point triples, on p >= 2 and invertible q1, q2."""
    q1, q2 = q1 % p, q2 % p
    if (q1 * q1 - q2 * q2) % p or q1 == q2 or (q1 + q2) % p == 0:
        return p // 2 + 1
    ratio = q2 * pow(q1, -1, p) % p
    triples = [(i, (q1 + q2 - i) % p, ratio * i % p) for i in range(p)]
    scattered = sum(1 for t in triples if len(set(t)) == 3)
    collapsed = sum(1 for t in triples if len(set(t)) == 1)
    total = Fraction(p, 2) - Fraction(scattered, 4) + Fraction(collapsed, 2)
    if total.denominator != 1:
        raise RuntimeError(f"orbit count {total} is not an integer")
    return int(total)
