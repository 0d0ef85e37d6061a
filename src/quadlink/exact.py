"""Exact arithmetic: Q/Z values and sums of roots of unity.

Invariants downstream (value tables of quadratic functions, linking
pairings, Gauss sums) are all either rationals mod 1 or Z-linear
combinations of roots of unity.  Floats never enter any decision; the
only floating-point output anywhere is ``CyclotomicSum.approx``, which
is display-only.

On the decision and report paths a value of Q/Z is an int residue r in
[0, M) standing for r/M, with one modulus M shared by a whole table.
The report's multisets are such tables, sorted once; residue_multiset
expands a histogram of residues into the same sorted multiset, and
cyclo_from_residues reads a Gauss sum off a histogram.  QmodZ is the
rational form of one value, kept for the reference evaluations and for
display.

A sum of roots of unity is stored as a dense integer coefficient vector
against the basis 1, z, ..., z^(N-1) with z = exp(2*pi*i/N).  That
representation is redundant (the ring Z[x]/(x^N - 1) maps onto Z[z]),
so equality is decided by reducing the difference modulo the N-th
cyclotomic polynomial, which is exactly the kernel of that map.  The
constructor coerces each coefficient through int(); cyclo_from_residues
and canonical() compute int coefficients and build through the private
CyclotomicSum._trusted, which takes them as given.

The reduction never expands Phi_N.  For N >= 2,
Phi_N(x) = prod over d | N of (1 - x^d)^mu(N/d), a product of
2^omega(N) binomials (omega counts distinct primes), each of which
multiplies or divides a truncated power series in one strided pass.
Phi_N is palindromic, so the quotient of f by Phi_N is the reversed f
divided by that product, and the remainder follows by multiplying back:
O(2^omega(N) len(f)) integer additions, against the
(len(f) - phi(N)) |supp Phi_N| of long division (about 8 million for
N = 7996).  The remainder modulo Phi_N is unique, so the result does
not depend on the method.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]


class QmodZ:
    """A rational number modulo 1, canonically represented in [0, 1)."""

    __slots__ = ("value",)

    def __init__(self, value: RationalLike) -> None:
        f = Fraction(value)
        object.__setattr__(self, "value", f - (f // 1))

    @classmethod
    def _reduced(cls, value: Fraction) -> "QmodZ":
        """A QmodZ holding a Fraction the caller knows is in [0, 1), taken as is."""
        q = object.__new__(cls)
        object.__setattr__(q, "value", value)
        return q

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def order(self) -> int:
        """Additive order: the least k >= 1 with k * self = 0."""
        return self.value.denominator

    def __add__(self, other: "QmodZ") -> "QmodZ":
        if not isinstance(other, QmodZ):
            return NotImplemented
        return QmodZ(self.value + other.value)

    def __sub__(self, other: "QmodZ") -> "QmodZ":
        if not isinstance(other, QmodZ):
            return NotImplemented
        return QmodZ(self.value - other.value)

    def __neg__(self) -> "QmodZ":
        return QmodZ(-self.value)

    def __mul__(self, scalar: RationalLike) -> "QmodZ":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return QmodZ(self.value * scalar)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QmodZ) and self.value == other.value

    def __hash__(self) -> int:
        # the canonical pair, not Fraction.__hash__, which takes a modular
        # inverse; equal values hash equal because the value is normalized
        v = self.value
        return hash((v.numerator, v.denominator))

    def __lt__(self, other: "QmodZ") -> bool:
        return self.value < other.value

    def __le__(self, other: "QmodZ") -> bool:
        return self.value <= other.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"QmodZ({self.value})"

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QmodZ is immutable")


def qmodz_reduce(value: RationalLike) -> QmodZ:
    """Reduce a rational to its canonical representative mod 1."""
    return QmodZ(value)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _mobius(n: int) -> int:
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


@lru_cache(maxsize=None)
def _binomial_factors(n: int) -> tuple[tuple[int, bool], ...]:
    """The binomials 1 - x^d of Phi_n = prod over d | n of (1 - x^d)^mu(n/d), n >= 2.

    One pair (d, mu(n/d) == 1) per squarefree cofactor n/d: 2^omega(n)
    pairs.  The signs of the (x^d - 1) form cancel because the Moebius
    function sums to 0 over the divisors of n > 1.
    """
    primes = _prime_factors(n)
    out = []
    for mask in range(1 << len(primes)):
        s = math.prod(p for k, p in enumerate(primes) if mask >> k & 1)
        out.append((n // s, bin(mask).count("1") % 2 == 0))
    return tuple(out)


def _times_binomial(a: list[int], d: int) -> None:
    """a <- a * (1 - x^d) mod x^len(a), in place."""
    a[d:] = list(map(operator.sub, a[d:], a))


def _over_binomial(a: list[int], d: int) -> None:
    """a <- a / (1 - x^d) mod x^len(a), in place: a prefix sum with stride d.

    Runs min(d, len/d) slice operations: one accumulate per residue
    class mod d when d is small, one block addition per block of d
    otherwise.
    """
    size = len(a)
    if d * d < size:
        for j in range(d):
            a[j::d] = itertools.accumulate(a[j::d])
    else:
        for s in range(d, size, d):
            a[s : s + d] = map(operator.add, a[s : s + d], a[s - d : s])


def _apply_binomials(a: list[int], n: int, inverse: bool) -> None:
    """a <- a * Phi_n (or a / Phi_n when inverse) mod x^len(a), in place; n >= 2."""
    for d, even in _binomial_factors(n):
        (_over_binomial if even == inverse else _times_binomial)(a, d)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree: the binomials times 1, mod x^(phi(n) + 1)."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n == 1:
        return (-1, 1)
    poly = [1] + [0] * _totient(n)
    _apply_binomials(poly, n, inverse=False)
    if poly[-1] != 1:
        raise RuntimeError(f"Phi_{n} came out with coefficient {poly[-1]} at degree phi({n}), not 1")
    return tuple(poly)


@lru_cache(maxsize=None)
def _totient(n: int) -> int:
    t = n
    for p in _prime_factors(n):
        t = t // p * (p - 1)
    return t


def _reduce_mod_cyclotomic(coeffs: list[int], n: int) -> list[int]:
    """Remainder of the given polynomial modulo Phi_n, as a list of length min(len(coeffs), phi(n)).

    An exact division that never reads the coefficients of Phi_n.  With
    f of length L > phi = deg Phi_n, f = q Phi_n + r and deg r < phi.
    Phi_n (n >= 2) is palindromic with constant term 1, so reversing
    gives rev(q) = rev(f) / Phi_n mod x^(L - phi), and then
    r = f - (q Phi_n mod x^phi).  Both products run over the 2^omega(n)
    binomials of _binomial_factors, one strided pass each, so the cost
    is O(2^omega(n) L) rather than the (L - phi) |supp Phi_n| of long
    division.  For n = 1, Phi_1 = x - 1 and r = f(1).
    """
    phi = _totient(n)
    if len(coeffs) <= phi:
        return list(coeffs)
    if n == 1:
        return [sum(coeffs)]
    quotient = coeffs[: phi - 1 : -1]
    _apply_binomials(quotient, n, inverse=True)
    quotient.reverse()
    del quotient[phi:]
    quotient += [0] * (phi - len(quotient))
    _apply_binomials(quotient, n, inverse=False)
    return list(map(operator.sub, coeffs[:phi], quotient))


class CyclotomicSum:
    """An element of Z[exp(2*pi*i/N)] as a dense coefficient vector.

    ``coeffs[j]`` is the integer coefficient of exp(2*pi*i*j/N).  Two
    instances compare equal when they denote the same complex number,
    regardless of modulus or representative; that comparison is exact.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Iterable[int]) -> None:
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        cs = tuple(map(int, coeffs))
        if len(cs) != modulus:
            raise ValueError("coefficient vector must have length equal to the modulus")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _trusted(cls, modulus: int, coeffs: Iterable[int]) -> "CyclotomicSum":
        """The sum on coeffs, taken as is: the caller vouches for modulus >= 1 and modulus int coefficients."""
        s = object.__new__(cls)
        object.__setattr__(s, "modulus", modulus)
        object.__setattr__(s, "coeffs", tuple(coeffs))
        return s

    @staticmethod
    def zero() -> "CyclotomicSum":
        return CyclotomicSum(1, (0,))

    @staticmethod
    def one() -> "CyclotomicSum":
        return CyclotomicSum(1, (1,))

    @staticmethod
    def integer(k: int) -> "CyclotomicSum":
        return CyclotomicSum(1, (int(k),))

    @staticmethod
    def root_of_unity(angle: QmodZ) -> "CyclotomicSum":
        """exp(2*pi*i*angle) for a rational angle mod 1."""
        n = angle.denominator
        coeffs = [0] * n
        coeffs[angle.numerator] = 1
        return CyclotomicSum(n, coeffs)

    def _rescaled(self, m: int) -> "CyclotomicSum":
        if m == self.modulus:
            return self
        if m % self.modulus != 0:
            raise ValueError("can only rescale to a multiple of the modulus")
        step = m // self.modulus
        out = [0] * m
        for j, c in enumerate(self.coeffs):
            out[j * step] = c
        return CyclotomicSum(m, out)

    def __add__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        m = math.lcm(self.modulus, other.modulus)
        a, b = self._rescaled(m), other._rescaled(m)
        return CyclotomicSum(m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CyclotomicSum":
        return CyclotomicSum(self.modulus, [-c for c in self.coeffs])

    def __mul__(self, other: Union["CyclotomicSum", int]) -> "CyclotomicSum":
        if isinstance(other, int):
            return CyclotomicSum(self.modulus, [c * other for c in self.coeffs])
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        m = math.lcm(self.modulus, other.modulus)
        a, b = self._rescaled(m), other._rescaled(m)
        out = [0] * m
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        k = i + j
                        if k >= m:
                            k -= m
                        out[k] += ca * cb
        return CyclotomicSum(m, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicSum":
        n = self.modulus
        out = [0] * n
        for j, c in enumerate(self.coeffs):
            out[-j % n] = c
        return CyclotomicSum(n, out)

    def is_zero(self) -> bool:
        if not any(self.coeffs):
            return True
        return not any(_reduce_mod_cyclotomic(list(self.coeffs), self.modulus))

    def as_rational(self) -> Fraction | None:
        """The exact rational value if this sum is rational, else None."""
        r = _reduce_mod_cyclotomic(list(self.coeffs), self.modulus)
        if any(r[1:]):
            return None
        return Fraction(r[0]) if r else Fraction(0)

    def canonical(self) -> "CyclotomicSum":
        """A deterministic reduced representative.

        Reduces modulo the cyclotomic polynomial, then divides the
        modulus by the gcd of the support indices.  Equal
        constructions at equal moduli canonicalize identically; value
        equality across moduli is still decided by ``cyclo_equals``.

        One reduction suffices.  After r = f mod Phi_n, deg r < phi(n).
        If g = gcd(n, supp r) > 1 then r(x) = s(x^g) with
        deg s < phi(n)/g <= phi(n/g), since phi(n) <= g phi(n/g); so s
        is already its own remainder mod Phi_{n/g}, and the support of s
        has gcd 1 with n/g.
        """
        n = self.modulus
        coeffs = _reduce_mod_cyclotomic(list(self.coeffs), n)
        coeffs += [0] * (n - len(coeffs))
        support = list(itertools.compress(range(n), coeffs))
        if not support:
            return CyclotomicSum._trusted(1, (0,))
        g = math.gcd(n, *support)
        return CyclotomicSum._trusted(n // g, coeffs[::g])

    def normalized_trace(self) -> Fraction:
        """Field trace divided by the field degree: a value invariant.

        The plain trace scales with [Q(z_N):Q], so it depends on which
        cyclotomic field the sum is written in; dividing by the degree
        removes that dependence.
        """
        n = self.modulus
        phi_n = _totient(n)
        total = 0
        for j, c in enumerate(self.coeffs):
            if c:
                m = n // math.gcd(n, j)
                total += c * _mobius(m) * (phi_n // _totient(m))
        return Fraction(total, phi_n)

    def approx(self) -> complex:
        """Floating-point value.  Display only: never used in decisions."""
        n = self.modulus
        return sum(c * cmath.exp(2j * cmath.pi * j / n) for j, c in enumerate(self.coeffs) if c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        return cyclo_equals(self, other)

    def __hash__(self) -> int:
        # hash must respect value equality, so only value invariants enter
        return hash(("CyclotomicSum", self.normalized_trace()))

    def __repr__(self) -> str:
        return f"CyclotomicSum(modulus={self.modulus}, coeffs={self.coeffs})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CyclotomicSum is immutable")


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


def cyclo_from_residues(histogram: Mapping[int, int], modulus: int) -> CyclotomicSum:
    """Sum of exp(2*pi*i*r/modulus), r taken histogram[r] times.

    Gives the modulus and coefficients cyclo_from_angles gives on the
    same angles: the lcm of their reduced denominators is
    modulus / gcd(modulus, support).  Residues must lie in [0, modulus),
    as for residue_multiset; only the least and greatest are checked.
    """
    if histogram and (min(histogram) < 0 or max(histogram) >= modulus):
        raise ValueError(f"residues must lie in [0, {modulus}), got {min(histogram)}..{max(histogram)}")
    g = math.gcd(modulus, *histogram)
    coeffs = [0] * (modulus // g)
    for r, count in histogram.items():
        coeffs[r // g] += count
    return CyclotomicSum._trusted(modulus // g, coeffs)


def cyclo_equals(a: CyclotomicSum, b: CyclotomicSum) -> bool:
    """Exact equality as complex numbers, decided algebraically."""
    if a.modulus == b.modulus and a.coeffs == b.coeffs:
        return True
    return (a - b).is_zero()


def cyclo_abs_squared(a: CyclotomicSum) -> Fraction:
    """|a|^2 as an exact rational; raises if the square norm is irrational."""
    r = (a * a.conjugate()).as_rational()
    if r is None:
        raise ValueError("squared absolute value is not rational for this sum")
    return r
