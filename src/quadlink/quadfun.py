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
the gcd of the defect character prefilter; a depth-first search,
shared with the pairing route of classify, then tries images of the
generators, largest order first, among the elements with the right
value, pruned by element order and by the polarization.  A leaf is
then a homomorphism carrying b2 to b1 and q2 to q1 on the generators,
and two implications make it an isomorphism with no pointwise check:
q(x + y) = q(x) + q(y) + b(x, y) extends the match of q from the
generators to every element, and when b1 is nondegenerate, Psi x = 0
gives b1(x, .) = 0, so x = 0 and Psi is bijective.  Only a degenerate b1
leaves bijectivity to a check at each leaf.  On a cyclic group the
automorphisms are the multiplications by units, and _cyclic_isometries
lists the ones that keep the polarization; it finds the search's
witness, and a class key, with no table.
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


def _image_positions(factors: Sequence[int], images: Sequence[Sequence[int]]) -> list[int]:
    """Position of Psi(w) in itertools.product order for every w, in that order; Psi(g_i) = images[i]."""
    positions = [0] * math.prod(factors)
    for j, d in enumerate(factors):
        stride = math.prod(factors[j + 1 :])
        for t, c in enumerate(_linear_table([m[j] for m in images], factors, d)):
            positions[t] += c * stride
    return positions


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


def bilinear_of(q: QuadraticFunction, x: Element, y: Element) -> QmodZ:
    """The polarization b_q(x, y) = q(x+y) - q(x) - q(y)."""
    g = q.group
    return q(g.add(x, y)) - q(x) - q(y)


def defect_of(q: QuadraticFunction, x: Element) -> QmodZ:
    """The homogeneity defect d_q(x) = q(x) - q(-x); a homomorphism in x."""
    return q(x) - q(q.group.neg(x))


def _residue_tables(*qs: QuadraticFunction) -> tuple[int, list[list[int]]]:
    """A common denominator M, and each q's values as residues r standing for r/M, in itertools.product order."""
    modulus = math.lcm(1, *(v.denominator for q in qs for v in q.values.values()))
    return modulus, [[v.numerator * (modulus // v.denominator) for v in q.values.values()] for q in qs]


def gauss_sum(q: QuadraticFunction) -> CyclotomicSum:
    """Sum of exp(2 pi i q(x)) over the (finite) group, exactly.

    Radical slope data does not enter: the table is the finite part and
    the sum is taken over it, matching the use of one stored section.
    """
    modulus, (residues,) = _residue_tables(q)
    return cyclo_from_residues(Counter(residues), modulus)


def _radical_gcd(slopes: tuple[Fraction, ...]) -> int:
    return math.gcd(*(abs(int(2 * s)) for s in slopes)) if slopes else 0


def radical_compatible(q1: QuadraticFunction, q2: QuadraticFunction) -> bool:
    """Slope data matches up to sign and unimodular change of radical basis.

    An integer linear functional on Z^b is carried to another by GL(b,Z)
    exactly when the gcds of the coefficient vectors agree, so rank and
    gcd of the doubled slopes decide.
    """
    return len(q1.radical_slopes) == len(q2.radical_slopes) and _radical_gcd(
        q1.radical_slopes
    ) == _radical_gcd(q2.radical_slopes)


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
    value multiset is the sorted table, residue_multiset of its
    histogram by definition.  The defect q(x) - q(-x) is a character,
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


def invariant_fingerprint(q: QuadraticFunction) -> Fingerprint:
    """The fingerprint of a function given by its rational values, over the lcm of their denominators."""
    factors = q.group.invariant_factors
    modulus, (residues,) = _residue_tables(q)
    return table_fingerprint(factors, modulus, residues, *_generator_data(factors, modulus, residues), q.radical_slopes)


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
    order: Sequence[int], candidates: Sequence[Sequence[Element]], charge: Callable[[], bool],
) -> Iterator[tuple[Element, ...]]:
    """Yield the generator images of each automorphism, built from the candidates, that carries link1 to link2.

    link1 and link2 hold b(g_i, g_j) on the two sides in units of
    1/modulus.  Depth-first over the generators in the given order,
    pruned by element order and by the pairing against the partial map,
    so every leaf is a homomorphism Psi with b2(Psi x, Psi y) = b1(x, y).
    When b1 is nondegenerate (decided once per search), Psi x = 0 gives
    b1(x, .) = 0, hence x = 0: every leaf is bijective.  Otherwise a leaf
    counts when its image table shows it bijective.  charge() runs once
    per candidate tried; the search stops, without a verdict, on False.
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
            if injective or len(set(_image_positions(factors, images))) == math.prod(factors):
                yield tuple(images)
            return
        i = order[depth]
        for m in candidates[i]:
            if not charge():
                return
            if any((factors[i] * ml) % dl for ml, dl in zip(m, factors)):
                continue
            if pair(m, m) != link1[i][i]:
                continue
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
) -> tuple[Element, ...] | None:
    """Generator images of an isomorphism Psi with q2(Psi(x)) = q1(x) for all x, or None.

    Each side is given by q and b on the generators, side 2 also by its
    value table, as residues in units of 1/modulus, the table in
    itertools.product order; the caller has compared the value
    histograms.  The defect
    q(x) - q(-x) is a character, uniform on the subgroup of Z/modulus
    that its generator values generate, so their gcd stands for its
    histogram.  The search is exhaustive, so None is a definite
    negative.  Its first leaf is returned unchecked:
    the leaf carries b2 to b1 and q2 to q1 on the generators, so
    q2(Psi(x + y)) = q2(Psi x) + q2(Psi y) + b1(x, y) carries the match
    to every x, and _isometries has made sure the leaf is bijective.
    """
    if math.gcd(modulus, *_defect_character(modulus, q1, b1)) != math.gcd(modulus, *_defect_character(modulus, q2, b2)):
        return None
    elements = list(itertools.product(*(range(d) for d in factors)))
    candidates = [[m for m, v in zip(elements, values2) if v == want] for want in q1]
    if not all(candidates):
        return None
    # largest order first; enumeration order of candidates fixes determinism
    order = sorted(range(len(factors)), key=lambda i: (-factors[i], i))
    return next(_isometries(factors, modulus, b1, b2, order, candidates, lambda: True), None)


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
    _generator_isomorphism returns on these tables: its candidates for
    Psi(h) come in element order, i.e. ascending u, among those with
    value q1(h); the order check is vacuous on a cyclic group; the
    pairing check is u^2 b2 = b1; and the leaf counts exactly when u is
    a unit (with b1 degenerate the search tests it; otherwise every
    pairing-preserving u is one).  Its
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
