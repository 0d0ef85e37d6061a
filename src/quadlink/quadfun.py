"""Quadratic functions on finite abelian groups, up to isomorphism.

A quadratic function here is q : G -> Q/Z with bilinear polarization
b_q(x, y) = q(x+y) - q(x) - q(y); homogeneity is not assumed, and the
failure d_q(x) = q(x) - q(-x) is itself a homomorphism.  Instances may
carry radical slope data describing the restriction of an ambient
function to a divisible radical; two functions only count as isomorphic
when that data matches up to an integer change of radical basis, which
for slope vectors means equality of ranks and gcds.

The isomorphism search enumerates images of a generating family,
largest order first, pruned by value and polarization constraints; a
found candidate is always rechecked pointwise before being returned,
because matching invariants alone only promise that *some* isomorphism
exists, not that a particular assignment is one.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from quadlink.exact import CyclotomicSum, QmodZ, cyclo_from_angles, cyclo_from_residues, residue_multiset

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
        # b(w, g_i) over the coordinates filled so far
        pairing = _linear_table([b_gen[j][i] for j in range(i)], factors[:i], modulus)
        steps = [(t * q_gen[i] + t * (t - 1) // 2 * b_gen[i][i]) % modulus for t in range(d)]
        values = [(v + s + t * p) % modulus for v, p in zip(values, pairing) for t, s in enumerate(steps)]
    return values


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

    def generator(self, i: int) -> Element:
        return tuple(int(j == i) for j in range(len(self.invariant_factors)))


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
        g = self.group
        if self.values[g.zero()] != QmodZ(0):
            raise ValueError("a quadratic function must vanish at 0")
        factors = g.invariant_factors
        modulus = math.lcm(1, *(v.denominator for v in self.values.values()))
        residue = {x: v.numerator * (modulus // v.denominator) for x, v in self.values.items()}
        gens = [g.generator(i) for i in range(len(factors))]
        q_gen = [residue[e] for e in gens]
        b_gen = [[(residue[g.add(e, f)] - qe - qf) % modulus for f, qf in zip(gens, q_gen)] for e, qe in zip(gens, q_gen)]
        for i, d in enumerate(factors):
            if any(d * b % modulus for b in b_gen[i]) or (d * q_gen[i] + d * (d - 1) // 2 * b_gen[i][i]) % modulus:
                raise ValueError(f"polarization is not bilinear on generator {i}")
        if _quadratic_table(factors, modulus, q_gen, b_gen) != list(residue.values()):
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


def gauss_sum(q: QuadraticFunction) -> CyclotomicSum:
    """Sum of exp(2 pi i q(x)) over the (finite) group, exactly.

    Radical slope data does not enter: the table is the finite part and
    the sum is taken over it, matching the use of one stored section.
    """
    return cyclo_from_angles(q.values.values())


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

    Equality of fingerprints is necessary, never claimed sufficient.
    """

    invariant_factors: tuple[int, ...]
    value_multiset: tuple[QmodZ, ...]
    defect_multiset: tuple[QmodZ, ...]
    gauss: CyclotomicSum
    radical_rank: int
    radical_gcd: int


def table_fingerprint(
    invariant_factors: Sequence[int],
    modulus: int,
    values: Iterable[int],
    defects: Iterable[int],
    radical_slopes: Sequence[Fraction | int],
) -> Fingerprint:
    """The fingerprint of a function given by integer tables.

    values and defects hold q(x) and q(x) - q(-x) over the group, each
    as a residue r in [0, modulus) standing for r/modulus; the order of
    the elements does not matter.  Multisets and the Gauss sum are read
    off histograms of the residues.
    """
    histogram = Counter(values)
    return Fingerprint(
        invariant_factors=tuple(invariant_factors),
        value_multiset=residue_multiset(histogram, modulus),
        defect_multiset=residue_multiset(Counter(defects), modulus),
        gauss=cyclo_from_residues(histogram, modulus).canonical(),
        radical_rank=len(radical_slopes),
        radical_gcd=_radical_gcd(tuple(radical_slopes)),
    )


def invariant_fingerprint(q: QuadraticFunction) -> Fingerprint:
    g = q.group
    modulus = math.lcm(1, *(v.denominator for v in q.values.values()))
    residue = {x: v.numerator * (modulus // v.denominator) for x, v in q.values.items()}
    return table_fingerprint(
        g.invariant_factors,
        modulus,
        residue.values(),
        ((r - residue[g.neg(x)]) % modulus for x, r in residue.items()),
        q.radical_slopes,
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


def _subgroup_size(group: FiniteAbelianGroup, gens: Iterable[Element]) -> int:
    span = {group.zero()}
    for v in gens:
        o = group.element_order(v)
        span = {group.add(s, group.scale(k, v)) for s in span for k in range(o)}
    return len(span)


def is_isomorphic(q1: QuadraticFunction, q2: QuadraticFunction) -> GroupIso | None:
    """An isomorphism Psi with q2(Psi(x)) = q1(x) for all x, or None.

    The search is exhaustive over order-compatible generator images, so
    None is a definite negative for the finite parts; radical slope data
    is compared by rank and gcd first.
    """
    g1, g2 = q1.group, q2.group
    if g1.invariant_factors != g2.invariant_factors:
        return None
    if not radical_compatible(q1, q2):
        return None
    if sorted(q1.values.values()) != sorted(q2.values.values()):
        return None
    if sorted(defect_of(q1, x) for x in g1.elements()) != sorted(
        defect_of(q2, x) for x in g2.elements()
    ):
        return None

    k = len(g1.invariant_factors)
    if k == 0:
        return GroupIso(g1, g2, ())
    # largest order first; enumeration order of candidates fixes determinism
    level_order = sorted(range(k), key=lambda i: (-g1.invariant_factors[i], i))
    all_targets = list(g2.elements())
    candidates: dict[int, list[Element]] = {}
    for i in level_order:
        d = g1.invariant_factors[i]
        want = q1(g1.generator(i))
        candidates[i] = [m for m in all_targets if g2.scale(d, m) == g2.zero() and q2(m) == want]
        if not candidates[i]:
            return None

    images: dict[int, Element] = {}

    def compatible(i: int, m: Element) -> bool:
        # the diagonal is not determined by q(m) alone, so i pairs with itself
        ei = g1.generator(i)
        if bilinear_of(q2, m, m) != bilinear_of(q1, ei, ei):
            return False
        for j, mj in images.items():
            if bilinear_of(q2, m, mj) != bilinear_of(q1, ei, g1.generator(j)):
                return False
        return True

    def verified(iso: GroupIso) -> bool:
        return all(q2(iso.apply(x)) == q1(x) for x in g1.elements())

    def search(depth: int) -> GroupIso | None:
        if depth == k:
            iso = GroupIso(g1, g2, tuple(images[i] for i in range(k)))
            # value and polarization constraints do not force surjectivity
            # on their own, so bijectivity gates the leaf; the pointwise
            # check then makes any returned witness unconditionally good,
            # and rejecting here never loses a true isomorphism
            if _subgroup_size(g2, iso.images) == g2.order and verified(iso):
                return iso
            return None
        i = level_order[depth]
        for m in candidates[i]:
            if compatible(i, m):
                images[i] = m
                found = search(depth + 1)
                if found is not None:
                    return found
                del images[i]
        return None

    return search(0)
