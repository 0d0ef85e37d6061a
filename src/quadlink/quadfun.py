"""Quadratic functions on finite abelian groups, up to isomorphism.

A quadratic function here is q : G -> Q/Z with bilinear polarization
b_q(x, y) = q(x+y) - q(x) - q(y); homogeneity is not assumed, and the
failure d_q(x) = q(x) - q(-x) is itself a homomorphism.  Instances may
carry radical slope data describing the restriction of an ambient
function to a divisible radical; two functions only count as isomorphic
when that data matches up to an integer change of radical basis, which
for slope vectors means equality of ranks and gcds.

The isomorphism search works on value tables of int residues in units
of 1/M, listed in itertools.product order.  The value histograms and
the gcd of the defect character prefilter; a depth-first search then
tries images of the generators, largest order first, among the elements
whose value, order and self-pairing fit, listed once, pruned by the
pairing against the images chosen so far.  With every step M, a leaf is
a homomorphism carrying b2 to b1 and q2 to q1 on the generators, and two
implications make it an isomorphism with no pointwise check:
q(x + y) = q(x) + q(y) + b(x, y) extends the match of q from the
generators to every element, and b1 is nondegenerate (decided once per
p-part by the caller), so Psi x = 0 gives b1(x, .) = 0, x = 0.  On a
cyclic group the automorphisms are the multiplications by units, and
_cyclic_isometries lists the ones that keep the polarization; it finds
the search's witness, and a class key, with no table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from quadlink.exact import CyclotomicSum, QmodZ, _prime_factors, cyclo_from_residues

DEFAULT_ORDER_CAP = 10_000

Element = tuple[int, ...]


def _linear_table(row: Sequence[int], factors: Sequence[int], modulus: int) -> list[int]:
    """sum_i row_i w_i mod modulus for every w in Z/d_1 x ... x Z/d_k, in itertools.product order."""
    table = [0]
    for r, d in zip(row, factors):
        table = [(x + t * r) % modulus for x in table for t in range(d)]
    return table


def _quadratic_table(
    factors: Sequence[int], modulus: int, q_gen: Sequence[int], b_gen: Sequence[Sequence[int]]
) -> list[int]:
    """A quadratic function on every element, in itertools.product order, from its generator data.

    q_gen[i] = q(g_i) and b_gen[i][j] = b(g_i, g_j) are residues mod
    modulus; the table follows from
    q(w + t g_i) = q(w) + t q(g_i) + C(t, 2) b(g_i, g_i) + t b(w, g_i),
    one addition per element.
    """
    values = [0]
    for i, d in enumerate(factors):
        q, b = q_gen[i], b_gen[i][i]
        # q(t g_i) by running sums of q(g_i) + t b(g_i, g_i), reduced once
        increments = range(q, q + (d - 1) * b, b) if b else itertools.repeat(q, d - 1)
        steps = [s % modulus for s in itertools.accumulate(increments, initial=0)]
        if not i:
            # no coordinate filled yet: the table is q(t g_0) itself
            values = steps
            continue
        # b(w, g_i) over the coordinates filled so far
        pairing = _linear_table([b_gen[j][i] for j in range(i)], factors[:i], modulus)
        values = [(v + s + t * p) % modulus for v, p in zip(values, pairing) for t, s in enumerate(steps)]
    return values


def _generator_data(factors: Sequence[int], modulus: int, values: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """q(g_i) and b(g_i, g_j) read off a value table in itertools.product order."""
    k = len(factors)
    strides = [math.prod(factors[i + 1 :]) for i in range(k)]

    def at(*gens: int) -> int:
        # the value at the sum of these generators
        return values[sum(gens.count(i) % d * s for i, (d, s) in enumerate(zip(factors, strides)))]

    q_gen = [at(i) for i in range(k)]
    b_gen = [[(at(i, j) - q_gen[i] - q_gen[j]) % modulus for j in range(k)] for i in range(k)]
    return q_gen, b_gen


def _defect_character(modulus: int, q_gen: Sequence[int], b_gen: Sequence[Sequence[int]]) -> list[int]:
    """The defect q(x) - q(-x) on the generators, 2 q(g_i) - b(g_i, g_i) mod modulus; it is additive in x."""
    return [(2 * q - b_gen[i][i]) % modulus for i, q in enumerate(q_gen)]


class OrderCapExceeded(RuntimeError):
    def __init__(self, order: int, cap: int) -> None:
        super().__init__(f"group order {order} exceeds the cap {cap}")
        self.order = order
        self.cap = cap


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z/d_1 x ... x Z/d_k with 2 <= d_1 | d_2 | ... | d_k."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {a} before {b}")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def zero(self) -> Element:
        return (0,) * len(self.invariant_factors)

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def scale(self, k: int, x: Element) -> Element:
        return tuple((k * a) % d for a, d in zip(x, self.invariant_factors))

    def element_order(self, x: Element) -> int:
        return math.lcm(1, *(d // math.gcd(d, a) for a, d in zip(x, self.invariant_factors)))


class QuadraticFunction:
    """A quadratic function on a finite abelian group, as a full value table."""

    __slots__ = ("group", "values", "radical_slopes")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        values: Mapping[Element, QmodZ],
        radical_slopes: Iterable[Fraction] = (),
        cap: int = DEFAULT_ORDER_CAP,
        check: bool = True,
    ) -> None:
        if group.order > cap:
            raise OrderCapExceeded(group.order, cap)
        table = {e: values[e] for e in group.elements()}
        slopes = tuple(Fraction(s) for s in radical_slopes)
        for s in slopes:
            if s.denominator > 2:
                raise ValueError(f"radical slope {s} has denominator > 2")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", table)
        object.__setattr__(self, "radical_slopes", slopes)
        if check:
            self._check_quadratic()

    @staticmethod
    def from_callable(
        group: FiniteAbelianGroup,
        fn: Callable[[Element], QmodZ],
        radical_slopes: Iterable[Fraction] = (),
        cap: int = DEFAULT_ORDER_CAP,
        check: bool = True,
    ) -> "QuadraticFunction":
        if group.order > cap:
            raise OrderCapExceeded(group.order, cap)
        return QuadraticFunction(
            group, {e: fn(e) for e in group.elements()}, radical_slopes, cap=cap, check=check
        )

    def __call__(self, x: Element) -> QmodZ:
        return self.values[x]

    def _check_quadratic(self) -> None:
        # q is quadratic exactly when its generator data satisfies
        # d_i b(g_i, g_j) = 0 and q(d_i g_i) = d_i q(g_i) + C(d_i, 2) b(g_i, g_i) = 0
        # and the recurrence rebuilds the whole table from that data
        factors = self.group.invariant_factors
        modulus, (residues,) = _residue_tables(self)
        if residues[0]:
            raise ValueError("a quadratic function must vanish at 0")
        q_gen, b_gen = _generator_data(factors, modulus, residues)
        for i, d in enumerate(factors):
            if any(d * b % modulus for b in b_gen[i]) or (d * q_gen[i] + d * (d - 1) // 2 * b_gen[i][i]) % modulus:
                raise ValueError(f"polarization is not bilinear on generator {i}")
        if _quadratic_table(factors, modulus, q_gen, b_gen) != residues:
            raise ValueError("polarization is not bilinear: the table is not determined by its generator data")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadraticFunction):
            return NotImplemented
        return (
            self.group == other.group
            and self.values == other.values
            and self.radical_slopes == other.radical_slopes
        )

    def __repr__(self) -> str:
        return (
            f"QuadraticFunction(factors={self.group.invariant_factors}, "
            f"radical_slopes={self.radical_slopes})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadraticFunction is immutable")


def _residue_tables(*qs: QuadraticFunction) -> tuple[int, list[list[int]]]:
    """A common denominator M, and each q's values as residues r standing for r/M, in itertools.product order."""
    modulus = math.lcm(1, *(v.denominator for q in qs for v in q.values.values()))
    return modulus, [[v.numerator * (modulus // v.denominator) for v in q.values.values()] for q in qs]


def _radical_gcd(slopes: tuple[Fraction, ...]) -> int:
    return math.gcd(*(abs(int(2 * s)) for s in slopes)) if slopes else 0


@dataclass(frozen=True)
class Fingerprint:
    """Cheap-to-compare isomorphism invariants of a quadratic function.

    value_multiset and defect_multiset are sorted int residues r, each
    standing for r/value_modulus and repeated as often as it occurs.
    Equality of fingerprints is necessary, never claimed sufficient.
    """

    invariant_factors: tuple[int, ...]
    value_modulus: int
    value_multiset: tuple[int, ...]
    defect_multiset: tuple[int, ...]
    gauss: CyclotomicSum
    radical_rank: int
    radical_gcd: int


def table_fingerprint(
    invariant_factors: Sequence[int],
    modulus: int,
    values: Iterable[int],
    q_gen: Sequence[int],
    b_gen: Sequence[Sequence[int]],
    radical_slopes: Sequence[Fraction | int],
) -> Fingerprint:
    """The fingerprint of a function given by its values over the group, in any order, and q and b on the generators.

    All are residues r in [0, modulus) standing for r/modulus; a value
    outside that range raises ValueError from cyclo_from_residues.  The
    value multiset is the sorted table, each residue repeated as often
    as it occurs.  The defect q(x) - q(-x) is a character,
    uniform on the multiples of h = gcd(modulus, its generator values),
    each taken |G| h / modulus times, so its multiset is that many
    copies of range(0, modulus, h), sorted.
    """
    ordered = sorted(values)
    h = math.gcd(modulus, *_defect_character(modulus, q_gen, b_gen))
    each = math.prod(invariant_factors) * h // modulus
    return Fingerprint(
        invariant_factors=tuple(invariant_factors),
        value_modulus=modulus,
        value_multiset=tuple(ordered),
        defect_multiset=tuple(sorted([*range(0, modulus, h)] * each)),
        gauss=cyclo_from_residues(Counter(ordered), modulus).canonical(),
        radical_rank=len(radical_slopes),
        radical_gcd=_radical_gcd(tuple(radical_slopes)),
    )


@dataclass(frozen=True)
class GroupIso:
    """A homomorphism given by generator images, known to be bijective."""

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    images: tuple[Element, ...]

    def apply(self, x: Element) -> Element:
        acc = self.target.zero()
        for a, img in zip(x, self.images):
            acc = self.target.add(acc, self.target.scale(a, img))
        return acc


def _nondegenerate(factors: Sequence[int], modulus: int, link: Sequence[Sequence[int]]) -> bool:
    """Whether b, given by link[i][j] = b(g_i, g_j) in units of 1/modulus on Z/d_1 + ... + Z/d_k, is nondegenerate.

    A nonzero kernel holds an element of prime order p, in the socle
    spanned by the (d_i/p) g_i with p | d_i; b((d_i/p) g_i, g_j) = R_ij/p
    with R_ij = d_i link[i][j] / modulus, so b is nondegenerate exactly
    when R has rank k_p over F_p for every p.  Data with d_i b(g_i, .)
    not integral is no pairing and counts as degenerate.
    """
    for p in _prime_factors(math.lcm(1, *factors)):
        pivots: list[tuple[int, list[int]]] = []
        for d, row in zip(factors, link):
            if d % p:
                continue
            if any(d * x % modulus for x in row):
                return False
            r = [d * x // modulus % p for x in row]
            for c, pivot in pivots:
                if f := r[c]:
                    r = [(x - f * y) % p for x, y in zip(r, pivot)]
            c = next((c for c, x in enumerate(r) if x), None)
            if c is None:
                return False
            inverse = pow(r[c], -1, p)
            pivots.append((c, [x * inverse % p for x in r]))
    return True


def _isometries(
    factors: Sequence[int], modulus: int, link1: Sequence[Sequence[int]], link2: Sequence[Sequence[int]],
    order: Sequence[int], candidates: Sequence[Sequence[Element]],
) -> Iterator[tuple[Element, ...]]:
    """Yield the generator images of each automorphism, built from the candidates, that carries link1 to link2.

    link1 and link2 hold b(g_i, g_j) on the two sides in units of
    1/modulus.  The caller guarantees that link1 is nondegenerate and
    that every m in candidates[i] is admissible for g_i: d_i m = 0 and
    b2(m, m) = b1(g_i, g_i).  Depth-first over the generators in the
    given order, each candidate is checked only against the images
    already chosen, b2(m, Psi g_j) = b1(g_i, g_j), so every leaf is a
    homomorphism Psi with b2(Psi x, Psi y) = b1(x, y); Psi x = 0 gives
    b1(x, .) = 0, hence x = 0, so every leaf is bijective.
    """
    k = len(factors)
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
            yield tuple(images)
            return
        i = order[depth]
        for m in candidates[i]:
            if any(pair(m, images[j]) != link1[i][j] for j in order[:depth]):
                continue
            images[i] = m
            yield from extend(depth + 1)

    yield from extend(0)


def _generator_isomorphism(
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
    itertools.product order; each step divides modulus, and b1 is
    nondegenerate (the caller decides that once per p-part).  The search
    is exhaustive, so None is a definite negative.  Each generator's
    candidates are listed once, in element order, with the conditions
    that do not depend on the other images: the value congruence, the
    order d_i m = 0 and the self-pairing b2(m, m) = b1(g_i, g_i);
    _isometries checks the rest.  Its first leaf is returned unchecked:
    it is bijective and carries b2 to b1, so chi = q2 o Psi - q1 is a
    character, as q2(Psi(x + y)) = q2(Psi x) + q2(Psi y) + b1(x, y); with
    every step modulus, chi = 0.  The defect q(x) - q(-x) is a character,
    that of q2 o Psi = q1 + chi is the defect of q1 plus 2 chi, and
    2 chi(g_i) is a multiple of 2 steps[i]: so the gcd of modulus, the
    2 steps[i] and the defect on the generators is the same on both sides.
    """
    doubled = [2 * s for s in steps]
    if math.gcd(modulus, *_defect_character(modulus, q1, b1), *doubled) != math.gcd(modulus, *_defect_character(modulus, q2, b2), *doubled):
        return None
    elements = list(itertools.product(*(range(d) for d in factors)))
    # b2(m, m) is quadratic in m with polarization 2 b2, as in lattice.self_linking_table
    self_links = _quadratic_table(factors, modulus, [row[i] for i, row in enumerate(b2)], [[2 * x % modulus for x in row] for row in b2])
    candidates = []
    for i, (d, want, s) in enumerate(zip(factors, q1, steps)):
        fits = [m for m, v, w in zip(elements, values2, self_links) if (v - want) % s == 0 and w == b1[i][i]]
        if any(d % e for e in factors):  # otherwise d m = 0 for every m
            fits = [m for m in fits if not any(d * x % e for x, e in zip(m, factors))]
        candidates.append(fits)
    if not all(candidates):
        return None
    # largest order first; enumeration order of candidates fixes determinism
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    return next(_isometries(factors, modulus, b1, b2, order, candidates), None)


def _cyclic_isometries(order: int, modulus: int, b1: int, b2: int) -> list[int]:
    """The units u mod order, ascending, with u^2 b2 = b1 (mod modulus): the isometries x -> u x of a cyclic group.

    Let G = Z/order be generated by h, and let q1, q2 be quadratic
    functions on G with b_i = b_i(h, h), all residues in units of
    1/modulus.  As q_i is quadratic on G, order b_i = 0 (mod modulus),
    so every condition below depends on u mod order only.  Every endomorphism of G is x -> u x for one u in
    [0, order), bijective exactly when u is a unit.  It carries b2 to b1
    exactly when u^2 b2 = b1, since b is bilinear and h generates.  Such
    a u carries q2 to q1 exactly when q2(u h) = u q2(h) + C(u, 2) b2
    equals q1(h): by the recurrence q(t x) = t q(x) + C(t, 2) b(x, x),
    q2(t u h) = t q2(u h) + C(t, 2) b1 then agrees with q1(t h) for
    every t.

    So the least listed u with q2(u h) = q1(h) is the witness that
    _generator_isomorphism returns on these tables with step modulus: its
    candidates for Psi(h) come in element order, i.e. ascending u, among
    those with value q1(h); the order check is vacuous on a cyclic group; the
    self-pairing check is u^2 b2 = b1; and with b1 nondegenerate, as the
    search requires, every such u is a unit.  Its
    histogram and defect prechecks reject only pairs with no such u, so
    no u means None.  No value table and no search are needed.

    With b1 = b2 = b the list is the isometry group O(b).  Two
    functions q, q' with polarization b are then isomorphic exactly
    when the orbits {q(u h) : u in O(b)} and {q'(u h) : u in O(b)}
    meet, in which case they are equal: q(w h) = q'(w' h) makes q o w
    and q' o w' agree on h, hence everywhere, so q = q' o (w' w^-1).
    The least element of the orbit therefore keys the class.
    """
    return [u for u in range(1, order) if math.gcd(u, order) == 1 and (u * u * b2 - b1) % modulus == 0]
