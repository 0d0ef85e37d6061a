"""Exact arithmetic: Q/Z values and sums of roots of unity.

Invariants downstream (value tables of quadratic functions, linking
pairings, Gauss sums) are all either rationals mod 1 or Z-linear
combinations of roots of unity.  Floats never enter any decision; the
only floating-point output anywhere is ``CyclotomicSum.approx``, which
is display-only.

A sum of roots of unity is stored as a dense integer coefficient vector
against the basis 1, z, ..., z^(N-1) with z = exp(2*pi*i/N).  That
representation is redundant (the ring Z[x]/(x^N - 1) maps onto Z[z]),
so equality is decided by reducing the difference modulo the N-th
cyclotomic polynomial, which is exactly the kernel of that map.
"""

from __future__ import annotations

import cmath
import math
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
        return hash(("QmodZ", self.value))

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


def _poly_mul_xm_minus_1(p: list[int], m: int) -> list[int]:
    # multiply by (x^m - 1)
    out = [0] * (len(p) + m)
    for i, c in enumerate(p):
        out[i + m] += c
        out[i] -= c
    return out


def _poly_div_xm_minus_1(p: list[int], m: int) -> list[int]:
    # exact division by (x^m - 1); caller guarantees divisibility
    dq = len(p) - 1 - m
    q = [0] * (dq + 1)
    for i in range(dq + 1):
        above = q[i - m] if i >= m else 0
        q[i] = above - p[i]
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by Moebius inclusion-exclusion over the squarefree part:
    Phi_rad(x) = prod over d | rad of (x^(rad/d) - 1)^mu(d), with all
    multiplications done before the (then exact) divisions, followed by
    the substitution x -> x^(n/rad).
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    rad = math.prod(primes)
    mul_steps, div_steps = [], []
    for mask in range(1 << len(primes)):
        d = math.prod(p for k, p in enumerate(primes) if mask >> k & 1)
        (mul_steps if _mobius(d) == 1 else div_steps).append(rad // d)
    poly = [1]
    for m in mul_steps:
        poly = _poly_mul_xm_minus_1(poly, m)
    for m in div_steps:
        poly = _poly_div_xm_minus_1(poly, m)
    stretch = n // rad
    out = [0] * ((len(poly) - 1) * stretch + 1)
    for i, c in enumerate(poly):
        out[i * stretch] = c
    assert len(out) - 1 == _totient(n)
    return tuple(out)


@lru_cache(maxsize=None)
def _totient(n: int) -> int:
    t = n
    for p in _prime_factors(n):
        t = t // p * (p - 1)
    return t


def _reduce_mod_cyclotomic(coeffs: list[int], n: int) -> list[int]:
    """Remainder of the given polynomial modulo Phi_n, as a list of length < deg Phi_n padded to it.

    Phi_n is monic and mostly zero (Phi_4095 has 1729 coefficients, 423
    of them nonzero), so each elimination step touches only its support.
    """
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
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != modulus:
            raise ValueError("coefficient vector must have length equal to the modulus")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", cs)

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
        modulus by the gcd of the support indices while possible.  Equal
        constructions at equal moduli canonicalize identically; value
        equality across moduli is still decided by ``cyclo_equals``.
        """
        n = self.modulus
        coeffs = list(self.coeffs)
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


def residue_multiset(histogram: Mapping[int, int], modulus: int) -> tuple[QmodZ, ...]:
    """The sorted multiset of angles r/modulus, r taken histogram[r] times.

    Residues are in [0, modulus), so ascending residue is ascending
    QmodZ; one QmodZ is made per residue, not per occurrence.
    """
    out: list[QmodZ] = []
    for r in sorted(histogram):
        out += [QmodZ(Fraction(r, modulus))] * histogram[r]
    return tuple(out)


def cyclo_from_residues(histogram: Mapping[int, int], modulus: int) -> CyclotomicSum:
    """Sum of exp(2*pi*i*r/modulus), r taken histogram[r] times.

    Gives the modulus and coefficients cyclo_from_angles gives on the
    same angles: the lcm of their reduced denominators is
    modulus / gcd(modulus, support).
    """
    g = math.gcd(modulus, *histogram)
    coeffs = [0] * (modulus // g)
    for r, count in histogram.items():
        coeffs[r // g] += count
    return CyclotomicSum(modulus // g, coeffs)


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
