"""Equivalence of decorated surgery presentations.

Two presentations describe the same decorated manifold, up to the
calculus moves together with the extra borromean twist, exactly when
their discriminant residues match: the torsion pairing, the class of
the decoration in the cokernel, and the Gauss sums taken over matched
sections of the torsion quotient.  This module turns that criterion
into verdicts.

Three regimes apply, ordered by how much structure survives:

* finite first homology: the finite quadratic function is a complete
  invariant.  Parts of coprime order pair to zero, so it is the
  orthogonal sum of its p-primary parts, and two functions are
  isomorphic exactly when their p-parts are, for every prime p (Wall,
  Topology 2, 1963; Kawauchi-Kojima, Math. Ann. 253, 1980).  On a
  cyclic p-part every automorphism is multiplication by a unit, so a
  closed form over the units settles it with no value table and no
  search (quadfun._cyclic_isometries); on the other p-parts an
  exhaustive isomorphism search on the integer value tables does;
* free first homology: the gcd of the decoration vector is a complete
  invariant (the unimodular orbit of an integer vector is its gcd).
  coker(B) is then Hom(ker B, Z), so that gcd is 2 gcd(c(k_j)/2) over
  a kernel basis k_j: the regime reads only the kernel, checked to
  satisfy B k_j = 0, and the slopes, checked to be integral.  No row of
  U or column of U^-1 is replayed;
* mixed: a sweep over pairing-preserving torsion maps, couplings of
  the free part into torsion, and section shifts, deciding for each
  candidate whether the Gauss sums agree.

The mixed sweep exploits one structural collapse: once the free
decoration parts are in the same unimodular orbit, the free-part
matrix of a candidate map drops out of the Gauss comparison entirely
(it acts on the slope functional through the duality matrix as the
identity), so no matrix family is enumerated.  Nor is any Gauss sum:
the linking pairing b is nondegenerate, so every character is b(., t)
for one t, and gamma(q + b(., t)) = e(-q(t)) gamma(q) != 0
(Milnor-Husemoller, App. 4) makes each comparison one congruence on
q.

The sweep is finite, and a step budget bounds it: one step per
pairing-preserving torsion map tried, d^b at once for the coupling
rows of (Z/d)^b at each torsion order d and decoration difference v
the sweep meets, and |G| per section character compared.  These steps
are a deterministic work measure, charged although no row is built:
the free decoration part is twice the slope covector ell, so the
contractions of the admissible rows are the solutions of 2x = v
(mod d) among the multiples of gcd(d, ell).  Verdicts are definite
unless the budget runs out, in which case the honest answer is
unknown.

The order cap bounds |G| and is checked once per public entry point,
by _decide after the verdicts that read no torsion element; nothing
below them takes it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import CyclotomicSum, _prime_factors
from .lattice import (
    DiscriminantData,
    _chern_coordinates,
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
    _defect_character,
    _generator_isomorphism,
    _image_positions,
    _isometries,
    _linear_table,
    _quadratic_table,
    table_fingerprint,
)
from .zlinalg import IntMatrix, determinant, intmatrix

DEFAULT_SEARCH_BUDGET = 250_000

EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"
UNKNOWN = "unknown"


class EvenOrderError(ValueError):
    """The closed-form orbit census is stated for odd orders only."""


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str
    reason: str
    witness: GroupIso | None = None

    def __post_init__(self) -> None:
        if self.status not in (EQUIVALENT, INEQUIVALENT, UNKNOWN):
            raise ValueError(f"unrecognized verdict status {self.status!r}")

    @property
    def is_definite(self) -> bool:
        return self.status != UNKNOWN


class _Budget:
    """Step counter shared across the stages of one decision.

    charge(cost) adds cost to spent and reports whether spent is still
    within limit; once it is not, exhausted stays set and every later
    charge is refused.  The mixed sweep charges one step per torsion map
    tried, d^b in one charge for the coupling rows of (Z/d)^b at each
    new (d, v) pair, and |G| per section character: a deterministic
    work measure.  No row is built: the contractions solve 2x = v
    (mod d) (see _coupling_contractions).
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


@dataclass
class _Side:
    """One presentation's data for a decision, checked and computed once; q_gen, its value table and free coordinates on first use.

    free_gcd reads the slopes.  The entry points check the order cap
    before any side is tabulated; nothing here does.
    """

    data: DiscriminantData
    chern: tuple[int, ...]
    tors: tuple[int, ...]
    slopes: tuple[int, ...]

    @cached_property
    def q_gen(self) -> list[int]:
        """phi_c on the torsion generators (lattice.phi_generators); with data.linking it describes the finite quadratic function."""
        return _phi_generators(self.data, self.chern)

    @property
    def free_gcd(self) -> int:
        """gcd of the free cokernel coordinates of c: coker(B)/torsion is Hom(ker B, Z), on which c is 2 slopes."""
        return 2 * math.gcd(*self.slopes)

    @cached_property
    def free(self) -> tuple[int, ...]:
        """The free cokernel coordinates of c, checked against the slopes by the duality identity.

        The mixed sweep is their only reader, so only it replays the free
        rows of U and columns of U^-1 behind them.
        """
        free = _chern_coordinates(self.data, self.chern)[0]
        _check_duality(self.data, self.slopes, free)
        return free

    @cached_property
    def table(self) -> list[int]:
        """phi_table of the decoration, one entry per torsion element."""
        return torsion_table(self.data, self.q_gen)


def _side(data: DiscriminantData, c: Sequence[int]) -> _Side:
    """A side's data, after the one characteristic parity check of its decoration, which raises also under -O."""
    cs = data.require_characteristic(c)
    return _Side(data, cs, _torsion_coordinates(data, cs), _radical_slope(data, cs))


def _check_duality(data: DiscriminantData, slopes: Sequence[int], free: Sequence[int]) -> None:
    """Raise unless twice the slopes equal the free cokernel coordinates of c contracted against the duality matrix."""
    w = data.duality_matrix
    for j in range(len(slopes)):
        if 2 * slopes[j] != sum(w[m][j] * free[m] for m in range(data.free_rank)):
            raise RuntimeError(f"slope {j} breaks the duality identity with the free decoration part")


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
    data = discriminant(p.matrix, cap=cap)
    side = _side(data, p.chern)
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


def _character_positions(factors: Sequence[int], modulus: int, link: Sequence[Sequence[int]]) -> dict[tuple, int]:
    """Position of every torsion element t, keyed by (b(g_i, t))_i in units of 1/modulus, b given by link.

    Raises unless the keys differ, i.e. unless b is nondegenerate.
    """
    columns = [_linear_table(row, factors, modulus) for row in link]
    positions = {key: pos for pos, key in enumerate(zip(*columns))} if columns else {(): 0}
    if len(positions) != math.prod(factors):
        raise RuntimeError(f"the linking pairing on {tuple(factors)} is degenerate")
    return positions


def _torsion_map_verdict(
    side1: _Side,
    side2: _Side,
    budget: _Budget,
    reasons: tuple[str, str, str],
) -> EquivalenceVerdict:
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
    characters = _character_positions(factors, modulus, data1.linking)
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
    dmap = _image_positions(factors, images)
    # positions of the generators g_i in itertools.product order
    gens = [math.prod(factors[i + 1 :]) for i in range(k)]
    t1 = characters[tuple((q - values2[dmap[p]]) % modulus for q, p in zip(side1.q_gen, gens))]
    if values2[dmap[t1]] == 0:
        return EquivalenceVerdict(EQUIVALENT, equivalent.format(images))
    return EquivalenceVerdict(INEQUIVALENT, gauss_differ)


def _coupling_contractions(ell: Sequence[int], d: int, v: int) -> tuple[int, ...]:
    """The sorted values x = ell.rho mod d over the coupling rows rho of (Z/d)^b with 2x = v (mod d).

    The sweep's free part is 2 ell, so a row is admissible exactly when
    its contraction x solves 2x = v; the rows contract to the multiples
    of gcd(d, ell), so x ranges over the at most two solutions among
    them, and no row is built.
    """
    return tuple(x for x in range(0, d, math.gcd(d, *ell)) if (2 * x - v) % d == 0)


_MIXED_BLIND_REASONS = (
    "no pairing-preserving map matches the torsion decoration classes",
    "vanishing free decoration part; torsion map {} matches the decorations and the Gauss sums agree",
    "Gauss sums of the torsion parts differ",
)


def _mixed_verdict(side1: _Side, side2: _Side, budget: _Budget) -> EquivalenceVerdict:
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
    as do data.linking and data.eval_free_lift; tables are indexed by
    element position in itertools.product order.
    """
    data1, data2 = side1.data, side2.data
    g = math.gcd(*side1.slopes)
    if g == 0:
        # decoration is blind to the radical: the Gauss sums are section
        # independent and the candidate map only has to match the
        # torsion decoration classes
        return _torsion_map_verdict(side1, side2, budget, _MIXED_BLIND_REASONS)

    factors = data1.torsion_factors
    modulus = data1.value_modulus
    q2 = side2.table
    characters = _character_positions(factors, modulus, data1.linking)
    group = FiniteAbelianGroup(factors)
    elements = list(group.elements())
    gens = [math.prod(factors[i + 1 :]) for i in range(len(factors))]
    link1, link2 = data1.linking, data2.linking
    # the slope covector W^-T slopes is free/2, since _Side.free checked
    # 2 slopes = W^T free and W is unimodular
    ell1 = tuple(f // 2 for f in side1.free)
    ell2 = tuple(f // 2 for f in side2.free)

    def contraction(data: DiscriminantData, ell: tuple[int, ...]) -> list[int]:
        # ell against the free-covector evaluations: one angle per torsion generator
        return [sum(e * row[i] for e, row in zip(ell, data.eval_free_lift)) % modulus for i in range(len(factors))]

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
            mu_cache[key] = _coupling_contractions(ell1, d_l, v_l)
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
                    return EquivalenceVerdict(
                        UNKNOWN, "budget ran out while comparing Gauss sums over matched sections"
                    )
                if (phase - sum(a * x * (modulus // d) for a, x, d in zip(avec, coords, factors))) % modulus == 0:
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


def yc_equivalent(
    p1: DecoratedPresentation,
    p2: DecoratedPresentation,
    *,
    cap: int = DEFAULT_ORDER_CAP,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> EquivalenceVerdict:
    """Decide whether two decorated presentations are move equivalent.

    Definite in the finite and free regimes; in the mixed regime the
    sweep is finite but guarded by a step budget, and exhausting the
    budget yields an unknown verdict rather than a guess.
    """
    data1 = discriminant(p1.matrix)
    # two decorations of one manifold share its discriminant data
    data2 = data1 if p2.matrix == p1.matrix else discriminant(p2.matrix)
    return _decide(_side(data1, p1.chern), _side(data2, p2.chern), cap, budget)


def _decide(side1: _Side, side2: _Side, cap: int, budget: int) -> EquivalenceVerdict:
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
    if d1.free_rank == 0:
        iso = _finite_isomorphism(side1, side2)
        if iso is not None:
            return EquivalenceVerdict(
                EQUIVALENT, "the finite quadratic functions are isomorphic", witness=iso
            )
        return EquivalenceVerdict(
            INEQUIVALENT, "no isomorphism carries one finite quadratic function to the other"
        )
    return _mixed_verdict(side1, side2, _Budget(budget))


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


def _finite_isomorphism(side1: _Side, side2: _Side) -> GroupIso | None:
    """An isomorphism of the finite quadratic functions of two sides with equal torsion factors, or None.

    Summands of coprime order pair to zero under b, so q is the
    orthogonal sum of its p-primary parts q_p, any homomorphism keeps
    the p-parts, and q1 is isomorphic to q2 exactly when q1_p is to q2_p
    for every prime p (Wall 1963).  A cyclic p-part is decided in closed
    form: Psi_p(h) = u h for the least unit u listed by
    quadfun._cyclic_isometries with q2(u h) = q1(h), which is the
    witness the search would return, with no table built.  On the other
    p-parts every value histogram is compared before any search; the
    searches then run on the p-tables, sum_p |G_p| elements instead of
    |G|.  The witness is assembled by the Chinese remainder theorem: the
    p-component of g_i is (s_i^-1 mod p^v_i) h_i, so
    Psi(g_i) = sum_p (s_i^-1 mod p^v_i) Psi_p(h_i).
    """
    data1, data2 = side1.data, side2.data
    factors = data1.torsion_factors
    modulus = data1.value_modulus
    q1, q2 = side1.q_gen, side2.q_gen
    parts = _primary_parts(factors)
    # per part: its generator images if cyclic, else the arguments of its
    # search, which runs after every part's cheap checks
    restricted: list = []
    for part in parts:
        h1 = part.quadratic(modulus, q1, data1.linking), part.pairing(modulus, data1.linking)
        h2 = part.quadratic(modulus, q2, data2.linking), part.pairing(modulus, data2.linking)
        if len(part.factors) == 1:
            ((a1,), ((b1,),)), ((a2,), ((b2,),)) = h1, h2
            units = _cyclic_isometries(part.factors[0], modulus, b1, b2)
            u = next((u for u in units if (u * a2 + u * (u - 1) // 2 * b2 - a1) % modulus == 0), None)
            if u is None:
                return None
            restricted.append(((u,),))
            continue
        values1 = _quadratic_table(part.factors, modulus, *h1)
        values2 = _quadratic_table(part.factors, modulus, *h2)
        if Counter(values1) != Counter(values2):
            return None
        restricted.append((*h1, *h2, values2))
    images = [[0] * len(factors) for _ in factors]
    for part, args in zip(parts, restricted):
        found = args if len(part.factors) == 1 else _generator_isomorphism(part.factors, modulus, *args)
        if found is None:
            return None
        for i, s, order, y in zip(part.indices, part.scales, part.factors, found):
            u = pow(s, -1, order)
            for j, t, yj in zip(part.indices, part.scales, y):
                images[i][j] = (images[i][j] + u * t * yj) % factors[j]
    group = FiniteAbelianGroup(factors)
    return GroupIso(group, group, tuple(map(tuple, images)))


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
    return _canonical_chern_vectors(discriminant(m), count)


def _canonical_chern_vectors(data: DiscriminantData, count: int) -> tuple[tuple[int, ...], ...]:
    """canonical_chern_vectors of a form, from its discriminant data and its known decoration count."""
    # B g_i, the U^-1 columns at the torsion indices; w runs over the finite coker(B)
    covectors = data.cok_tors_covectors
    base = data.matrix.diagonal()
    out = []
    for w in itertools.product(*(range(d) for d in data.torsion_factors)):
        out.append(tuple(b + 2 * sum(wk * cov[j] for wk, cov in zip(w, covectors)) for j, b in enumerate(base)))
    if len(out) != count or len(set(out)) != len(out):
        raise RuntimeError(f"expected {count} distinct decorations, got {len(set(out))} of {len(out)}")
    return tuple(out)


def _census_key(side: _Side) -> tuple:
    """An integer key splitting decorations of a degenerate form as stable_profile() does; _side ran the report's checks."""
    g = side.free_gcd
    if g:
        return (g,)
    # the Gauss sum is read off the value histogram; the defect is a character, whose image fixes its histogram
    modulus = side.data.value_modulus
    defect_gcd = math.gcd(modulus, *_defect_character(modulus, side.q_gen, side.data.linking))
    return (0, frozenset(Counter(side.table).items()), defect_gcd)


def _finite_census_keys(data: DiscriminantData, vecs: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Per decoration of a form with finite homology, its class id at each prime: equal keys, equal classes.

    By the orthogonal split (see _finite_isomorphism) two decorations
    are equivalent exactly when their p-parts are isomorphic for every
    p, so each prime is a census of its own, and ids count up in
    first-occurrence order.  b does not depend on the decoration.  q is
    built column-wise: one list per torsion generator holds q(g_i) for
    every decoration (lattice._phi_columns), and one list per p-part
    generator q(h_i).  On a cyclic p-part, with generator h, the class of
    q is keyed by the least q(u h) over the isometries u of b
    (quadfun._cyclic_isometries): one list per u, and one min per
    decoration across them, with no table and no search.  The other
    p-parts are censused by orbits (_orbit_census).
    """
    modulus, link = data.value_modulus, data.linking
    # the vectors are characteristic: canonical ones by construction, listed ones checked by presentation()
    q_columns = _phi_columns(data, vecs)
    columns = []
    for part in _primary_parts(data.torsion_factors):
        b = part.pairing(modulus, link)
        h_columns = part.quadratic_columns(modulus, q_columns, link)
        if len(part.factors) == 1:
            ((beta,),), (a_column,) = b, h_columns
            units = _cyclic_isometries(part.factors[0], modulus, beta, beta)
            orbits = [[(u * a + u * (u - 1) // 2 * beta) % modulus for a in a_column] for u in units]
            ids: dict[int, int] = {}
            columns.append([ids.setdefault(key, len(ids)) for key in map(min, zip(*orbits))])
        else:
            columns.append(_orbit_census(part.factors, modulus, b, list(zip(*h_columns))))
    return list(zip(*columns)) if columns else [()] * len(vecs)


def _orbit_census(factors: Sequence[int], modulus: int, b: Sequence[Sequence[int]], qs: Sequence[tuple[int, ...]]) -> list[int]:
    """Class ids, in first-occurrence order, of quadratic functions q with one nondegenerate polarization b on one p-part.

    q is given on the generators h_i, b by b(h_i, h_j), residues mod
    modulus.  The classes are the orbits of O(b) acting by q -> q o Psi
    (Holt-Eick-O'Brien, Handbook of Computational Group Theory, 4.1).  A
    union-find over the q holds orbits of the subgroup that the search's
    witnesses generate: each witness Psi, y_i = Psi(h_i), is checked to
    keep the orders and b, also under -O, then merges every node with
    (q o Psi)(h_i) = sum_j y_ij q(h_j) + q_0(y_i), a new node if
    unlisted; q_0(t) = sum_j C(t_j, 2) b(h_j, h_j) + sum_{j<m} t_j t_m
    b(h_j, h_m).  A q whose component has a class takes it with no table
    and no search; otherwise its table is searched against the
    representatives with its value histogram, and a miss opens a class.
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

    by_histogram: dict[frozenset, list[tuple[int, ...]]] = {}  # the representatives' q, per value histogram
    column = []
    for q in qs:
        if find(q) not in label:
            values = _quadratic_table(factors, modulus, q, b)
            same = by_histogram.setdefault(frozenset(Counter(values).items()), [])
            for rep_q in same:
                y = _generator_isomorphism(factors, modulus, rep_q, b, q, b, values)
                if y is None:
                    continue
                pairs = [[_int_dot(yi, map(_int_dot, b, itertools.repeat(yj))) % modulus for yj in y] for yi in y]
                if pairs != b or any(d * yij % dj for d, yi in zip(factors, y) for yij, dj in zip(yi, factors)):
                    raise RuntimeError(f"the isometry {y} found by the census does not preserve the pairing")
                shift = [sum(t * (t - 1) // 2 * b[j][j] + t * _int_dot(yi[j + 1 :], b[j][j + 1 :]) for j, t in enumerate(yi))
                         for yi in y]
                for node in list(parent):
                    image = tuple((c + _int_dot(yi, node)) % modulus for c, yi in zip(shift, y))
                    union(node, parent.setdefault(image, image))
                if find(q) != find(rep_q):
                    raise RuntimeError(f"the isometry {y} found by the census does not carry its decoration")
                break
            else:
                label[find(q)] = len(label)  # labels sit at distinct roots, one per class
                same.append(q)
        column.append(label[find(q)])
    return column


def yc_classes(
    matrix: IntMatrix | Sequence[Sequence[int]],
    chern_vectors: Sequence[Sequence[int]] | None = None,
    *,
    cap: int = DEFAULT_ORDER_CAP,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition decorations of one form into move-equivalence classes.

    Without an explicit list the canonical decorations are used, which
    needs det != 0 and |det| within the order cap, checked before any
    decoration is enumerated; for an explicit list |G| is checked after
    the discriminant.  One discriminant serves all decorations.
    Classes come in order of first occurrence, members in input order;
    an empty list gives ().

    With finite homology the quadratic function is the orthogonal sum
    of its p-primary parts, and two functions are isomorphic exactly
    when their p-parts are for every prime p (Wall 1963;
    Kawauchi-Kojima 1980).  The census is then one census per prime on
    q built column-wise over all decorations: in closed form on a cyclic
    p-part, and by orbits otherwise, where every isometry the search
    finds is applied to every decoration, so only a decoration in an
    orbit with no class yet is tabulated and searched.  A decoration's
    class is its tuple of per-prime classes.  Otherwise decorations are
    bucketed on integer keys that split them as stable_profile() does;
    each, in input order, joins the first class in its bucket whose
    first member is equivalent to it, else opens one.  An undecided comparison aborts, naming its
    pair, rather than guess.
    """
    m = intmatrix(matrix)
    if chern_vectors is None:
        count = _decoration_count(m)
        if count > cap:
            raise OrderCapExceeded(count, cap)
        data = discriminant(m)
        vecs = _canonical_chern_vectors(data, count)
    else:
        vecs = tuple(presentation(m.data, v).chern for v in chern_vectors)
        if not vecs:
            return ()
        data = discriminant(m)
        if data.torsion_order > cap:
            raise OrderCapExceeded(data.torsion_order, cap)
    if not data.free_rank:
        grouped: dict[tuple[int, ...], list[int]] = {}
        for i, key in enumerate(_finite_census_keys(data, vecs)):
            grouped.setdefault(key, []).append(i)
        return tuple(tuple(vecs[i] for i in members) for members in grouped.values())
    sides = [_side(data, v) for v in vecs]
    buckets: dict[tuple, list[list[int]]] = {}
    classes: list[list[int]] = []
    for i, side in enumerate(sides):
        bucket = buckets.setdefault(_census_key(side), [])
        for members in bucket:
            verdict = _decide(sides[members[0]], side, cap, budget)
            if verdict.status == UNKNOWN:
                raise RuntimeError(
                    f"cannot complete the partition: {vecs[members[0]]} vs {vecs[i]} is undecided ({verdict.reason})"
                )
            if verdict.status == EQUIVALENT:
                members.append(i)
                break
        else:
            bucket.append([i])
            classes.append(bucket[-1])
    return tuple(tuple(vecs[i] for i in members) for members in classes)


def lens_yc_count(p: int) -> int:
    """Decoration classes of the odd lens family: orbits of Z/p under
    multiplication by the square roots of unity."""
    p = int(p)
    if p < 2:
        raise ValueError(f"need p >= 3, got {p}")
    if p % 2 == 0:
        raise EvenOrderError(f"the orbit census is stated for odd orders only, got {p}")
    roots = [r for r in range(p) if (r * r) % p == 1]
    seen: set[int] = set()
    count = 0
    for i in range(p):
        if i in seen:
            continue
        count += 1
        seen.update((r * i) % p for r in roots)
    return count


def _twisting_parameters(p: int, q1: int, q2: int) -> tuple[int, int]:
    """q1 and q2 reduced mod p >= 2, refused unless both are invertible mod p."""
    q1, q2 = int(q1) % p, int(q2) % p
    if math.gcd(q1, p) != 1 or math.gcd(q2, p) != 1:
        raise ValueError("twisting parameters must be invertible mod p")
    return q1, q2


def lens_diffeo_count(p: int, q1: int, q2: int) -> int:
    """Orbit count for the two-parameter lens family under its full
    symmetry group, by direct enumeration of the fixed-point data."""
    p = int(p)
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    q1, q2 = _twisting_parameters(p, q1, q2)
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
