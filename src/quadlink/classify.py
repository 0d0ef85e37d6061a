"""Equivalence of decorated surgery presentations.

Two presentations describe the same decorated manifold, up to the
calculus moves together with the extra borromean twist, exactly when
their quadratic functions phi_c on the discriminant group G are
isomorphic: the quadratic function is the complete degree-0 invariant
(Deloup-Massuyeau, arXiv math/0207188).  This module turns that
criterion into verdicts.

G is D + T: the radical D = ker(B) (x) Q/Z is divisible, and T, the
torsion of coker(B), is finite.  Three regimes apply:

* finite first homology (D = 0): the finite quadratic function is a
  complete invariant.  Parts of coprime order pair to zero, so it is
  the orthogonal sum of its p-primary parts, and two functions are
  isomorphic exactly when their p-parts are, for every prime p (Wall,
  Topology 2, 1963; Kawauchi-Kojima, Math. Ann. 253, 1980).  On a
  cyclic p-part every automorphism is multiplication by a unit, so a
  closed form over the units settles it with no value table and no
  search (quadfun._cyclic_isometries); on the other p-parts an
  exhaustive isomorphism search on the integer value tables does;
* free first homology (T = 0): the gcd of the decoration vector is a
  complete invariant (the unimodular orbit of an integer vector is its
  gcd).  coker(B) is then Hom(ker B, Z), so that gcd is 2 gcd(c(k_j)/2)
  over a kernel basis k_j: the regime reads only the kernel, checked to
  satisfy B k_j = 0, and the slopes, checked to be integral;
* mixed: the finite regime on translates, by the criterion below.  Like
  the free regime it replays no free row of U and no free column of
  U^-1.

The mixed criterion.  Write q for phi_c, and take two sides with equal
free ranks, equal torsion factors and slope gcds g = gcd(c(k_j)/2).
Then q1 and q2 are isomorphic exactly when some isometry Psi of the
torsion linking pairings and some t in gT give q2 o Psi = q1 + b1(., t)
on T, each q_i read on the stored section.  Proof:

1. D lies in the radical of the pairing, since (r k)^T B y = 0 for k
   in ker B, and q(r k) = -r c(k)/2, so q on D is the homomorphism
   l: k_j (x) r -> -r s_j with slopes s_j = c(k_j)/2, and
   q(d + x) = q(d) + q(x) for d in D.
2. An isomorphism F: G1 -> G2 maps D1 onto D2, the largest divisible
   subgroup, and induces an isomorphism Psi of T1 = G1/D1 onto T2.  Fix
   sections s_i: T_i -> G_i; then F(d + s1 x) = A d + h(x) + s2(Psi x)
   with A: D1 -> D2 an isomorphism and h in Hom(T1, D2), and every such
   triple (A, h, Psi) is an isomorphism.  By 1,
   q2(F(d + s1 x)) = l2(A d) + l2(h(x)) + q2(s2(Psi x)), so F carries q2
   to q1 exactly when l2 o A = l1 and q2 o s2 o Psi = q1 o s1 - l2 o h.
3. Some A gives l2 o A = l1 exactly when the slope gcds agree, which is
   the free gcd test of the free regime.
4. h is sum_j k_j (x) h_j with characters h_j of T1, free to choose, so
   -l2 o h = sum_j s_j h_j runs over the characters g chi.  The pairing
   b1 on T1 is nondegenerate, so every character is b1(., t) for
   exactly one t, and g b1(., t) = b1(., g t).  The allowed differences
   are the b1(., t) with t in gT1; the polarizations then force Psi to
   be an isometry of the linking pairings.
5. The stored section.  The lifts g_i = V_i / d_i have d_i g_i = V_i in
   Z^n, so x -> sum x_i g_i is a homomorphism s: T -> G that splits the
   projection, and _Side.q_gen holds q(s(g_i)) (lattice.phi_generators).
   Another section is s + h with h in Hom(T, D), and
   q o (s + h) = q o s + l o h is q o s plus an allowed translate, by 4.
   So q_gen on the stored section is q restricted to any section up to
   an allowed translate, and the criterion may read q_gen.

With g = 0 only t = 0 is allowed, which is the finite regime's
question.  b is orthogonal across primes and gT is the sum of the gT_p,
so the search splits by p-part, and t in gT_p is one congruence per
generator: one search per p-part (_finite_isomorphism).  So a census
keys each decoration by g and by its orbit under O(b_p) x gT_p at each
prime p, on finite and degenerate forms alike, and decides no pair
(yc_classes).

No linear algebra is done twice.  A census holds |det| from its
decoration count and passes it on (lattice._discriminant), so the Smith
diagonal is checked against it with no second determinant.  A decision
whose first side comes out unimodular takes |det B2| first, the Bareiss
check discriminant(B2) would run anyway: |det| = 1 means G is trivial,
so a unimodular form needs no Smith elimination.  Against a singular
second side that determinant is 0, and the Smith route follows it.

The order cap bounds |G| and is checked once per public entry point,
by _decide after the verdicts that read no torsion element; nothing
below them takes it.  Every verdict is definite: each regime ends in a
finite, exhaustive computation, so no search is cut short.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .exact import CyclotomicSum, _prime_factors
from .lattice import (
    DiscriminantData,
    _discriminant,
    _int_dot,
    _phi_columns,
    _phi_generators,
    _radical_slope,
    _torsion_coordinates,
    discriminant,
    self_linking_table,
    torsion_table,
)
from .presentation import DecoratedPresentation, presentation
from .quadfun import (
    DEFAULT_ORDER_CAP,
    FiniteAbelianGroup,
    GroupIso,
    OrderCapExceeded,
    _cyclic_isometries,
    _generator_isomorphism,
    _nondegenerate,
    _quadratic_table,
    table_fingerprint,
)
from .zlinalg import IntMatrix, determinant, intmatrix

EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str
    reason: str
    witness: GroupIso | None = None

    def __post_init__(self) -> None:
        if self.status not in (EQUIVALENT, INEQUIVALENT):
            raise ValueError(f"unrecognized verdict status {self.status!r}")


@dataclass
class _Side:
    """One presentation's data for a decision, checked and computed once; q_gen, its value table and tors on first use.

    free_gcd reads the slopes.  The entry points check the order cap
    before any side is tabulated; nothing here does.
    """

    data: DiscriminantData
    chern: tuple[int, ...]
    slopes: tuple[int, ...]

    @cached_property
    def q_gen(self) -> list[int]:
        """phi_c on the torsion generators (lattice.phi_generators): with data.linking, q on the stored section."""
        return _phi_generators(self.data, self.chern)

    @property
    def free_gcd(self) -> int:
        """gcd of the free cokernel coordinates of c: coker(B)/torsion is Hom(ker B, Z), on which c is 2 slopes."""
        return 2 * math.gcd(*self.slopes)

    @cached_property
    def table(self) -> list[int]:
        """phi_table of the decoration, one entry per torsion element."""
        return torsion_table(self.data, self.q_gen)

    @cached_property
    def tors(self) -> tuple[int, ...]:
        """The torsion coordinates of the decoration's class in coker(B), which only reports read."""
        return _torsion_coordinates(self.data, self.chern)


def _side(data: DiscriminantData, c: Sequence[int]) -> _Side:
    """A side's data, after the one characteristic parity check of its decoration, which raises also under -O."""
    cs = data.require_characteristic(c)
    return _Side(data, cs, _radical_slope(data, cs))


@dataclass(frozen=True)
class InvariantReport:
    """Everything the tool can say about one decorated presentation.

    chern_torsion and radical_slopes are stored in the computed Smith
    basis and move with it; stable_profile() keeps only the fields
    that survive a change of presentation.  value_multiset,
    defect_multiset and linking_diagonal are sorted int residues r,
    each standing for r/value_modulus and repeated as often as it
    occurs, so each has |G| entries: the value table and the
    self-linking table sorted once, and the defect multiset from its
    closed form.  value_modulus is twice the last torsion factor (2
    without torsion).  These fields cover every field of
    quadfun.table_fingerprint, so no fingerprint is kept.
    """

    free_rank: int
    torsion_factors: tuple[int, ...]
    chern_free_gcd: int
    chern_torsion: tuple[int, ...]
    radical_slopes: tuple[int, ...]
    value_modulus: int
    value_multiset: tuple[int, ...]
    defect_multiset: tuple[int, ...]
    linking_diagonal: tuple[int, ...]
    gauss: CyclotomicSum

    def stable_profile(self) -> tuple:
        """The move-invariant part of the report.

        Value and defect tables depend on the stored section exactly
        when the free decoration part is nonzero, so they and the
        Gauss sum join the profile only when that part vanishes.
        Profiles are equal only with equal torsion factors, hence one
        value modulus, so equal residues are equal values in Q/Z.
        """
        base = (self.free_rank, self.torsion_factors, self.chern_free_gcd, self.linking_diagonal)
        if self.chern_free_gcd:
            return base
        return base + (self.value_multiset, self.defect_multiset, self.gauss)


def invariants_report(p: DecoratedPresentation, *, cap: int = DEFAULT_ORDER_CAP) -> InvariantReport:
    """Assemble the discriminant invariants of one decorated presentation; no QmodZ is made."""
    return _report(_side(discriminant(p.matrix, cap=cap), p.chern), cap)


def _report(side: _Side, cap: int) -> InvariantReport:
    """invariants_report of a side, whose data may serve a decision too; a torsion part above the cap raises."""
    data = side.data
    if data.torsion_order > cap:
        raise OrderCapExceeded(data.torsion_order, cap)
    modulus = data.value_modulus
    fp = table_fingerprint(data.torsion_factors, modulus, side.table, side.q_gen, data.linking, side.slopes)
    diag = tuple(sorted(self_linking_table(data)))
    return InvariantReport(
        free_rank=data.free_rank,
        torsion_factors=data.torsion_factors,
        chern_free_gcd=side.free_gcd,
        chern_torsion=side.tors,
        radical_slopes=side.slopes,
        value_modulus=modulus,
        value_multiset=fp.value_multiset,
        defect_multiset=fp.defect_multiset,
        linking_diagonal=diag,
        gauss=fp.gauss,
    )


def yc_equivalent(
    p1: DecoratedPresentation,
    p2: DecoratedPresentation,
    *,
    cap: int = DEFAULT_ORDER_CAP,
) -> EquivalenceVerdict:
    """Decide whether two decorated presentations are move equivalent.

    Definite in every regime: the mixed regime is the finite regime on
    translates (see the module docstring).
    """
    return _decide(*_sides(p1, p2), cap)


def _sides(p1: DecoratedPresentation, p2: DecoratedPresentation, cap: int | None = None) -> tuple[_Side, _Side]:
    """The two sides of a decision, one discriminant per distinct matrix; with a cap, a larger torsion part raises first.

    When side 1 is unimodular, |det B2| comes first: it is the Bareiss
    check that discriminant(B2) would run anyway, and with |det B2| = 1
    side 2 needs no Smith elimination either.
    """
    data1 = discriminant(p1.matrix, cap=cap)
    if p2.matrix == p1.matrix:  # two decorations of one manifold share its discriminant data
        data2 = data1
    elif data1.free_rank or data1.torsion_factors:
        data2 = discriminant(p2.matrix, cap=cap)
    else:
        data2 = _discriminant(p2.matrix, abs(determinant(p2.matrix)), cap=cap)
    return _side(data1, p1.chern), _side(data2, p2.chern)


def _decide(side1: _Side, side2: _Side, cap: int) -> EquivalenceVerdict:
    """The verdict of yc_equivalent on each side's data, computed once by the caller; the cap follows the verdicts that read no torsion element."""
    d1, d2 = side1.data, side2.data
    if d1.free_rank != d2.free_rank:
        return EquivalenceVerdict(
            INEQUIVALENT, f"free ranks differ: {d1.free_rank} vs {d2.free_rank}"
        )
    if d1.torsion_factors != d2.torsion_factors:
        return EquivalenceVerdict(
            INEQUIVALENT,
            f"torsion invariant factors differ: {d1.torsion_factors} vs {d2.torsion_factors}",
        )
    g1, g2 = side1.free_gcd, side2.free_gcd
    if g1 != g2:
        return EquivalenceVerdict(
            INEQUIVALENT, f"free decoration orbits differ: gcd {g1} vs {g2}"
        )
    if not d1.torsion_factors and d1.free_rank:
        return EquivalenceVerdict(
            EQUIVALENT,
            f"free first homology of rank {d1.free_rank} with matching decoration gcd {g1}",
        )
    if d1.torsion_order > cap:
        raise OrderCapExceeded(d1.torsion_order, cap)
    g = g1 // 2  # 0 on finite homology, the gcd of no slopes: only t = 0 is allowed
    found = _finite_isomorphism(side1, side2, g)
    if found is None:
        reason = f"no isometry of the linking pairings carries q2 to q1 + b1(., t) with t in {g}T"
        return EquivalenceVerdict(INEQUIVALENT, reason if d1.free_rank else "no isomorphism carries one finite quadratic function to the other")
    iso, t = found
    reason = f"an isometry of the linking pairings carries q2 to q1 + b1(., t) with t = {t} in {g}T"
    return EquivalenceVerdict(EQUIVALENT, reason if d1.free_rank else "the finite quadratic functions are isomorphic", witness=iso)


@dataclass(frozen=True)
class _Primary:
    """The p-primary part of Z/d_1 + ... + Z/d_k, generated by h_i = scales[i] g_i for the i in indices.

    With d_i = p^v_i s_i and p coprime to s_i, the h_i with v_i > 0
    have orders factors[i] = p^v_i and split G_p into cyclic summands;
    the scales are the s_i.
    """

    indices: tuple[int, ...]
    scales: tuple[int, ...]
    factors: tuple[int, ...]

    def pairing(self, modulus: int, link: Sequence[Sequence[int]]) -> list[list[int]]:
        """b(h_i, h_j) = s_i s_j b(g_i, g_j) from b on the g_i, residues mod modulus."""
        gens = list(zip(self.indices, self.scales))
        return [[s * t * link[i][j] % modulus for j, t in gens] for i, s in gens]

    def nondegenerate_pairing(self, modulus: int, link: Sequence[Sequence[int]]) -> list[list[int]]:
        """pairing, raising RuntimeError (also under -O) unless nondegenerate; on a cyclic part, b(h, h) = r M / p^v with r a unit."""
        b = self.pairing(modulus, link)
        if not (math.gcd(b[0][0], modulus) * self.factors[0] == modulus if len(b) == 1 else _nondegenerate(self.factors, modulus, b)):
            raise RuntimeError(f"the linking pairing on the p-part {self.factors} is degenerate")
        return b

    def quadratic(self, modulus: int, q_gen: Sequence[int], link: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """q(h_i) = s_i q(g_i) + C(s_i, 2) b(g_i, g_i) from q and b on the g_i, residues mod modulus."""
        return tuple(column[0] for column in self.quadratic_columns(modulus, [[q] for q in q_gen], link))

    def quadratic_columns(self, modulus: int, q_columns: Sequence[Sequence[int]], link: Sequence[Sequence[int]]) -> list[list[int]]:
        """quadratic for many q, with no call per q: q_columns[i] lists q(g_i), and column j of the result q(h_j)."""
        gens = zip(self.indices, self.scales)
        return [[(s * q + s * (s - 1) // 2 * link[i][i]) % modulus for q in q_columns[i]] for i, s in gens]


def _primary_parts(factors: Sequence[int]) -> list[_Primary]:
    """The primary parts of the group with these invariant factors, one per prime dividing the last, ascending."""
    parts = []
    for p in _prime_factors(factors[-1] if factors else 1):
        # v_p(d) <= log2(d) < d.bit_length(), so the gcd is the p-part of d
        powers = [math.gcd(d, p ** d.bit_length()) for d in factors]
        indices = tuple(i for i, power in enumerate(powers) if power > 1)
        parts.append(_Primary(indices, tuple(factors[i] // powers[i] for i in indices), tuple(powers[i] for i in indices)))
    return parts


def _steps(factors: Sequence[int], modulus: int, g: int) -> list[int]:
    """M / k_i = M gcd(g, d_i) / d_i per generator h_i of order d_i: chi(h_i) = 0 mod M / k_i for all i says chi = 0 on T[g]."""
    return [modulus * math.gcd(g, d) // d for d in factors]


def _pull_back(modulus: int, b: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """q -> q o Psi on the generators h_i, Psi(h_i) = y_i, for q with polarization b: sum_j y_ij q(h_j) + q_0(y_i).

    q_0(t) = sum_j C(t_j, 2) b(h_j, h_j) + sum_{j<m} t_j t_m b(h_j, h_m)
    does not depend on q and is computed once.
    """
    shift = [sum(t * (t - 1) // 2 * b[j][j] + t * _int_dot(yi[j + 1 :], b[j][j + 1 :]) for j, t in enumerate(yi)) for yi in y]
    return lambda q: tuple((c + _int_dot(yi, q)) % modulus for c, yi in zip(shift, y))


def _finite_isomorphism(side1: _Side, side2: _Side, g: int) -> tuple[GroupIso, tuple[int, ...]] | None:
    """An isometry Psi of the linking pairings and a t in gT with q2 o Psi = q1 + b1(., t) on T, or None.

    g is the slope gcd of the sides, 0 in the finite regime, where only
    t = 0 is allowed and Psi is an isomorphism of the finite quadratic
    functions.  Summands of coprime order pair to zero under b, so q is
    the orthogonal sum of its p-primary parts q_p, any homomorphism
    keeps the p-parts, and the question splits into one per p-part
    (Wall 1963), on the generators h_i of order d_i = p^v_i of _Primary.
    For an isometry Psi, chi = q2 o Psi - q1 is a character, b1(., t) for
    exactly one t, as b1 is nondegenerate (_Primary.nondegenerate_pairing
    decides it once per p-part).  t lies in gT_p exactly when chi
    vanishes on (gT_p)^perp = T_p[g], which the k_i h_i generate,
    k_i = d_i / gcd(g, d_i): when q2(Psi h_i) = q1(h_i) mod M / k_i
    (_steps).  So one search covers every translate.  With g = 0 it asks
    q2 o Psi = q1; if p does not divide g, only for an isometry of b.

    A cyclic p-part is decided in closed form: Psi_p(h) = u h for the
    least unit u listed by quadfun._cyclic_isometries with
    q2(u h) = q1(h) mod M / k, with g = 0 the witness the search would
    return, with no table built.  The other p-parts are searched once
    each on their p-tables, sum_p |G_p| elements instead of |G|
    (_translate_isometry), after every cyclic part has passed.  On both,
    with g != 0, t is read off chi, itself read off Psi by _pull_back:
    in closed form on a cyclic part, by a scan of gT_p otherwise
    (_translate).  The witness is assembled by the Chinese remainder
    theorem: the p-component of g_i is (s_i^-1 mod p^v_i) h_i, so
    Psi(g_i) = sum_p (s_i^-1 mod p^v_i) Psi_p(h_i), and t has coordinate
    sum_p x_i s_i on g_i.
    """
    data1, data2 = side1.data, side2.data
    factors = data1.torsion_factors
    modulus = data1.value_modulus
    images = [[0] * len(factors) for _ in factors]
    t = [0] * len(factors)
    for part in sorted(_primary_parts(factors), key=lambda part: len(part.factors) > 1):
        q1, b1 = part.quadratic(modulus, side1.q_gen, data1.linking), part.nondegenerate_pairing(modulus, data1.linking)
        q2, b2 = part.quadratic(modulus, side2.q_gen, data2.linking), part.pairing(modulus, data2.linking)
        if len(part.factors) == 1:
            (order,), ((a1,), (a2,)), (((beta1,),), ((beta2,),)) = part.factors, (q1, q2), (b1, b2)
            (step,) = _steps(part.factors, modulus, g)
            units = _cyclic_isometries(order, modulus, beta1, beta2)
            y = next((((u,),) for u in units if (u * a2 + u * (u - 1) // 2 * beta2 - a1) % step == 0), None)
        else:
            values1 = _quadratic_table(part.factors, modulus, q1, b1)
            values2 = _quadratic_table(part.factors, modulus, q2, b2)
            y = _translate_isometry(part.factors, modulus, g, (q1, b1, values1, Counter(values1)), (q2, b2, values2, Counter(values2)))
        if y is None:
            return None
        x = (0,) * len(y)  # with g = 0 the search asked q2 o Psi = q1, so t = 0
        if g:
            chi = [(v - a) % modulus for v, a in zip(_pull_back(modulus, b2, y)(q2), q1)]
            x = _translate(part.factors, modulus, g, b1, chi)
            if x is None:
                raise RuntimeError(f"the character {tuple(chi)} is no b1(., t) with t in {g}T")
        for i, s, order, yi, xi in zip(part.indices, part.scales, part.factors, y, x):
            u = pow(s, -1, order)
            for j, sj, yij in zip(part.indices, part.scales, yi):
                images[i][j] = (images[i][j] + u * sj * yij) % factors[j]
            t[i] = (t[i] + xi * s) % factors[i]
    group = FiniteAbelianGroup(factors)
    return GroupIso(group, group, tuple(map(tuple, images))), tuple(t)


def _translate(factors: Sequence[int], modulus: int, g: int, b1: Sequence[Sequence[int]], chi: Sequence[int]) -> tuple[int, ...] | None:
    """The coordinates x of the t = sum x_i h_i in gT_p with b1(h_i, t) = chi_i on one p-part, or None.

    b1 is nondegenerate, so at most one t in T_p fits.  On a cyclic part
    of order p^v, b1(h, h) = r M / p^v with r a unit mod p^v, so
    x = (chi / (M / p^v)) r^-1 mod p^v is read in closed form, and t lies
    in gT_p when gcd(g, p^v) divides x.  The other parts scan gT_p.
    """
    if len(factors) == 1:
        (order,), ((beta,),), (c,) = factors, b1, chi
        unit = modulus // order
        x = c // unit * pow(beta // unit, -1, order) % order
        return (x,) if c % unit == 0 and x % math.gcd(g, order) == 0 else None
    grid = itertools.product(*(range(0, d, math.gcd(g, d)) for d in factors))
    return next((x for x in grid if [_int_dot(x, row) % modulus for row in b1] == chi), None)


def _translate_isometry(factors: Sequence[int], modulus: int, g: int, side1: tuple, side2: tuple) -> tuple[tuple[int, ...], ...] | None:
    """On one p-part, the first leaf Psi of one search with q2 o Psi = q1 + b1(., t) for some t in gT_p, or None.

    Each side is (q, b, value table, value histogram), q and b on the
    generators h_i of orders d_i; the congruences mod M / k_i stand for
    every t (_finite_isomorphism).  q1 + b1(., t) is
    x -> q1(x + t) - q1(t), whose histogram is hist1 shifted by -q1(t):
    unless some t = sum x_i h_i with gcd(g, d_i) | x_i shifts it to
    hist2, there is no search.
    """
    q1, b1, values1, hist1 = side1
    q2, b2, values2, hist2 = side2
    strides = [math.prod(factors[i + 1 :]) for i in range(len(factors))]
    shifts = {values1[_int_dot(x, strides)] for x in itertools.product(*(range(0, d, math.gcd(g, d)) for d in factors))}
    if not any(all(hist2[(v - c) % modulus] == n for v, n in hist1.items()) for c in shifts):
        return None
    return _generator_isomorphism(factors, modulus, q1, b1, q2, b2, values2, _steps(factors, modulus, g))


def _decoration_count(m: IntMatrix) -> int:
    """|det|, the number of decoration classes of a nondegenerate symmetric form."""
    if not m.is_symmetric():
        raise ValueError("need a symmetric matrix")
    det = determinant(m)
    if det == 0:
        raise ValueError("degenerate form: infinitely many decoration classes, pass them explicitly")
    return abs(det)


def canonical_chern_vectors(matrix: IntMatrix | Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """One decoration per class: the diagonal plus twice a cokernel representative.

    Exactly |det| vectors, pairwise inequivalent as decorations, jointly
    exhaustive.  Degenerate forms carry infinitely many classes and are
    refused.
    """
    m = intmatrix(matrix)
    count = _decoration_count(m)
    return _canonical_chern_vectors(_discriminant(m, count), count)


def _canonical_chern_vectors(data: DiscriminantData, count: int) -> tuple[tuple[int, ...], ...]:
    """canonical_chern_vectors of a form, from its discriminant data and its known decoration count."""
    # B g_i, the U^-1 columns at the torsion indices; w runs over the finite
    # coker(B) in itertools.product order, built as quadfun._linear_table is
    columns = []
    for j, b in enumerate(data.matrix.diagonal()):
        column = [b]
        for d, cov in zip(data.torsion_factors, data.cok_tors_covectors):
            column = [x + t * 2 * cov[j] for x in column for t in range(d)]
        columns.append(column)
    out = list(zip(*columns)) or [()]  # the 0 x 0 form has one decoration, the empty vector
    if len(out) != count or len(set(out)) != len(out):
        raise RuntimeError(f"expected {count} distinct decorations, got {len(set(out))} of {len(out)}")
    return tuple(out)


def _census_keys(data: DiscriminantData, vecs: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Per decoration, its slope gcd g and its class at each prime: equal keys, equal classes.

    By the mixed criterion and the orthogonal split (see
    _finite_isomorphism) two decorations are equivalent exactly when
    their slope gcds g agree and, for every p, their p-parts lie in one
    orbit of O(b_p) x gT_p; g = 0 with finite homology.  So each g and
    each prime is a census of its own.  b does not depend on the
    decoration, and is checked nondegenerate once per p-part, as the
    search requires.  q is built column-wise: one list per torsion
    generator holds q(g_i) for every decoration (lattice._phi_columns),
    and one list per p-part generator q(h_i).  Where p does not divide g != 0,
    every refinement of b_p is a translate: one class.  On a cyclic
    p-part of order p^v, with generator h, the class is keyed by the
    least q(u h) mod M / k (_steps) over the isometries u of b
    (quadfun._cyclic_isometries), with no table and no search.  The
    other p-parts are censused by orbits (_orbit_census), one per g.
    """
    modulus, link = data.value_modulus, data.linking
    # the vectors are characteristic: canonical ones by construction, listed ones checked by presentation()
    q_columns = _phi_columns(data, vecs)
    gcds = [math.gcd(*_radical_slope(data, v)) for v in vecs] if data.free_rank else [0] * len(vecs)
    columns = [gcds]
    for part in _primary_parts(data.torsion_factors):
        b = part.nondegenerate_pairing(modulus, link)
        h_columns = part.quadratic_columns(modulus, q_columns, link)
        if len(part.factors) == 1:
            ((beta,),), (a_column,) = b, h_columns
            units = _cyclic_isometries(part.factors[0], modulus, beta, beta)
            step = {g: _steps(part.factors, modulus, g)[0] for g in dict.fromkeys(gcds)}
            steps = [step[g] for g in gcds]
            orbits = [[(u * a + u * (u - 1) // 2 * beta) % s for a, s in zip(a_column, steps)] for u in units]
            columns.append(list(map(min, zip(*orbits))))
            continue
        column = [0] * len(vecs)
        qs = list(zip(*h_columns))
        for g in dict.fromkeys(gcds):
            if math.gcd(g, part.factors[0]) > 1:
                members = [i for i, gi in enumerate(gcds) if gi == g]
                for i, cid in zip(members, _orbit_census(part.factors, modulus, b, [qs[i] for i in members], g)):
                    column[i] = cid
        columns.append(column)
    return list(zip(*columns))


def _orbit_census(factors: Sequence[int], modulus: int, b: Sequence[Sequence[int]], qs: Sequence[tuple[int, ...]], g: int) -> list[int]:
    """Class ids, in first-occurrence order, of quadratic functions q with one nondegenerate polarization b on one p-part.

    q is given on the generators h_i, b by b(h_i, h_j), residues mod
    modulus.  The classes are the orbits of O(b) x gT_p acting by
    q -> q o Psi + b(., t) (Holt-Eick-O'Brien, Handbook of Computational
    Group Theory, 4.1); g = 0 leaves O(b).  A union-find over the q holds
    orbits of a subgroup.  It first merges every node with its
    translates by e_i h_i, e_i = gcd(g, d_i): q(h_j) += e_i b(h_j, h_i).
    A q whose component has a class takes it with no table and no
    search; otherwise its table is searched once against each
    representative r (_translate_isometry), and a miss opens a class.  A
    witness Psi is checked, also under -O, to keep the orders and b and
    to give q o Psi = r mod M / k_i (_steps), a translate of r, which it
    joins; then every node joins its q o Psi (_pull_back), a new node if
    unlisted.
    """
    parent = {q: q for q in qs}
    label: dict[tuple[int, ...], int] = {}  # the class id of a component, at its root

    def find(q: tuple[int, ...]) -> tuple[int, ...]:
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    def union(x: tuple[int, ...], y: tuple[int, ...]) -> None:
        x, y = find(x), find(y)
        if x != y:
            parent[x] = y
            if x in label and label.setdefault(y, label[x]) != label.pop(x):
                raise RuntimeError("a recycled isometry merged two classes that the search separated")

    def merge(move) -> None:
        for node in list(parent):
            image = move(node)
            union(node, parent.setdefault(image, image))

    for d, row in zip(factors, b):
        if (e := math.gcd(g, d)) < d:
            merge(lambda node: tuple((v + e * w) % modulus for v, w in zip(node, row)))
    steps = _steps(factors, modulus, g)
    reps: list[tuple] = []  # per class, its representative's (q, b, value table, value histogram)
    column = []
    for q in qs:
        if find(q) not in label:
            values = _quadratic_table(factors, modulus, q, b)
            side = (q, b, values, Counter(values))
            for rep in reps:
                y = _translate_isometry(factors, modulus, g, rep, side)
                if y is None:
                    continue
                pairs = [[_int_dot(yi, map(_int_dot, b, itertools.repeat(yj))) % modulus for yj in y] for yi in y]
                if pairs != b or any(d * yij % dj for d, yi in zip(factors, y) for yij, dj in zip(yi, factors)):
                    raise RuntimeError(f"the isometry {y} found by the census does not preserve the pairing")
                pull_back = _pull_back(modulus, b, y)
                image = pull_back(q)
                if any((v - r) % step for v, r, step in zip(image, rep[0], steps)):
                    raise RuntimeError(f"the isometry {y} found by the census does not carry its decoration")
                union(rep[0], parent.setdefault(image, image))
                merge(pull_back)
                break
            else:
                label[find(q)] = len(label)  # labels sit at distinct roots, one per class
                reps.append(side)
        column.append(label[find(q)])
    return column


def yc_classes(
    matrix: IntMatrix | Sequence[Sequence[int]],
    chern_vectors: Sequence[Sequence[int]] | None = None,
    *,
    cap: int = DEFAULT_ORDER_CAP,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition decorations of one form into move-equivalence classes.

    Without an explicit list the canonical decorations are used, which
    needs det != 0 and |det| within the order cap, checked before any
    decoration is enumerated; for an explicit list |G| is checked after
    the discriminant.  One discriminant serves all decorations.
    Classes come in order of first occurrence, members in input order;
    an empty list gives ().

    One route serves finite and degenerate forms: each decoration is
    keyed by its slope gcd g (0 with finite homology) and its class at
    each prime (_census_keys), and decorations with equal keys form a
    class, so no pair is decided.  The classes are the orbits of
    O(b) x gT: by the mixed criterion (module docstring) two decorations
    with one g are equivalent exactly when q2 o Psi = q1 + b(., t) for an
    isometry Psi of b and t in gT, and these maps form a group, since
    (q + b(., t)) o Psi = q o Psi + b(., Psi^-1 t) and Psi keeps gT.  b and
    gT split by prime (Wall 1963; Kawauchi-Kojima 1980), so the orbit is
    the tuple of per-prime orbits of O(b_p) x gT_p.  Each prime is then
    one census on q built column-wise over all decorations: in closed
    form on a cyclic p-part, and by orbits otherwise, where every
    isometry the search finds and every translate by gT_p is applied to
    every decoration, so only a decoration in an orbit with no class yet
    is tabulated and searched.

    The cyclic key is complete.  Let h generate Z/p^v, beta = b(h, h),
    e = gcd(g, p^v), s = gcd(M, e beta), which is M e / p^v (_steps),
    and f_u(a) = u a + C(u, 2) beta, which is q(u h) for a = q(h).  For v in O(b), (v^2 - 1) beta = 0, so
    q o v has polarization b, and f_u(f_v(a)) = f_uv(a) mod M: the f_u
    are the action of O(b) on q(h), which determines q.  A translate by
    t = x h with e | x moves q(h) by x beta, a multiple of e beta, and
    these moves reach every multiple of s mod M; f_u(a + k) = f_u(a) + u k,
    so f_u is well defined mod s.  So q' lies in the orbit of q exactly
    when q'(h) = f_u(q(h)) mod s for some u: the sets {f_u(q(h)) mod s}
    are orbits of O(b) on Z/s, they meet only when equal, and the least
    element keys the class.
    """
    m = intmatrix(matrix)
    if chern_vectors is None:
        count = _decoration_count(m)
        if count > cap:
            raise OrderCapExceeded(count, cap)
        data = _discriminant(m, count)
        vecs = _canonical_chern_vectors(data, count)
    else:
        vecs = tuple(presentation(m.data, v).chern for v in chern_vectors)
        if not vecs:
            return ()
        data = discriminant(m)
        if data.torsion_order > cap:
            raise OrderCapExceeded(data.torsion_order, cap)
    grouped: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(_census_keys(data, vecs)):
        grouped.setdefault(key, []).append(i)
    return tuple(tuple(vecs[i] for i in members) for members in grouped.values())


def lens_yc_count(p: int) -> int:
    """Decoration classes of the p-framed unknot [[p]], the lens space
    L(p, 1), for every order p >= 2: by Burnside's lemma, the mean of
    gcd(u - 1, p) over the square roots u of unity mod p.

    That mean is the number of orbits of Z/p under multiplication by
    those roots.  For even p the classes are not those orbits; only the
    counts agree.  Proof, in i = (c - p)/2 mod p for the decoration c:

    1. The cyclic key of yc_classes has M = 2p, beta = 2 and
       q(h) = 1 - p - 2i, and O(b) is the u with u^2 = 1 (mod p).  So
       f_u(q(h)) = u q(h) + u(u - 1) is 1 - p - 2(u i + s_u) mod 2p: each
       u acts by i -> u i + s_u (mod p).
    2. Write k = (u^2 - 1)/p.  Then s_u = p(u - 1 - k)/2 (mod p).  For
       odd p, u = 1 + k mod 2, so u - 1 - k is even and s_u = 0.  For
       even p, u is odd, and s_u = p/2 exactly when k is odd.
    3. When k is odd, v2(u - 1) + v2(u + 1) = v2(p) with both terms at
       least 1.  So v2(u - 1) < v2(p), and gcd(u - 1, p) divides p/2.
    4. So each map fixes exactly gcd(u - 1, p) residues, the solutions
       of (u - 1) i = -s_u, as multiplication by u does, and Burnside's
       lemma gives equal counts.

    On [[8]] the classes are {0, 4}, {1, 7}, {2, 6}, {3, 5} in i, and the
    multiplication orbits {0}, {4}, {2, 6}, {1, 3, 5, 7}.
    """
    p = int(p)
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    roots = [r for r in range(1, p) if r * r % p == 1]
    return sum(math.gcd(r - 1, p) for r in roots) // len(roots)


def lens_diffeo_count(p: int, q1: int, q2: int) -> int:
    """Orbit count for the two-parameter lens family under its full
    symmetry group, by direct enumeration of the fixed-point data.

    The order and the twisting parameters q1, q2, which must be
    invertible mod p, are checked before any work of order p."""
    p = int(p)
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    q1, q2 = int(q1) % p, int(q2) % p
    if math.gcd(q1, p) != 1 or math.gcd(q2, p) != 1:
        raise ValueError("twisting parameters must be invertible mod p")
    if (q1 * q1 - q2 * q2) % p or q1 == q2 or (q1 + q2) % p == 0:
        return p // 2 + 1
    ratio = q2 * pow(q1, -1, p) % p
    sizes = Counter(len({i, (q1 + q2 - i) % p, ratio * i % p}) for i in range(p))
    total = Fraction(p, 2) - Fraction(sizes[3], 4) + Fraction(sizes[1], 2)
    if total.denominator != 1:
        raise RuntimeError(f"orbit count {total} is not an integer")
    return int(total)
