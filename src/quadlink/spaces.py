"""Stock linking matrices and presentation builders.

Sign convention for the lens chain: the expansion p/q = a1 - 1/(a2 - ...)
with every a_i >= 2 gives a tridiagonal matrix with the a_i on the
diagonal and -1 off it.  This fixes one of the two mirror orientations;
every assertion downstream depends only on quantities blind to that
choice (group order, census counts).
"""

from __future__ import annotations

import math

from .presentation import DecoratedPresentation, presentation
from .zlinalg import IntMatrix, determinant, intmatrix


def s3() -> IntMatrix:
    return intmatrix([[1]])


def rp3() -> IntMatrix:
    return intmatrix([[2]])


def s2xs1() -> IntMatrix:
    return intmatrix([[0]])


def t3() -> IntMatrix:
    """Three 0-framed components with pairwise vanishing linking."""
    return intmatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


def e8() -> IntMatrix:
    """The even unimodular rank-8 form, as a plumbing graph matrix."""
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2
    for i, j in _E8_EDGES:
        rows[i][j] = rows[j][i] = -1
    m = intmatrix(rows)
    if determinant(m) != 1:
        raise RuntimeError("the E8 plumbing matrix must be unimodular")
    return m


def lens(p: int, q: int) -> IntMatrix:
    """Chain presentation of the lens space with parameters (p, q)."""
    p, q = int(p), int(q)
    if p < 2 or not 0 < q < p or math.gcd(p, q) != 1:
        raise ValueError(f"need 0 < q < p with p >= 2 and gcd(p, q) = 1, got ({p}, {q})")
    terms = []
    a, b = p, q
    while b:
        t = -(-a // b)
        terms.append(t)
        a, b = b, t * b - a
    n = len(terms)
    rows = [[0] * n for _ in range(n)]
    for i, t in enumerate(terms):
        if t < 2:
            raise RuntimeError(f"continued fraction term {t} of {p}/{q} is below 2")
        rows[i][i] = t
        if i:
            rows[i][i - 1] = rows[i - 1][i] = -1
    m = intmatrix(rows)
    if abs(determinant(m)) != p:
        raise RuntimeError(f"lens chain for ({p}, {q}) has determinant other than +-{p}")
    return m


def connected_sum(a: DecoratedPresentation, b: DecoratedPresentation) -> DecoratedPresentation:
    """Block sum of the matrices with the decorations laid end to end."""
    n, m = a.matrix.rows, b.matrix.rows
    rows = [
        [a.matrix[i][j] if i < n and j < n else b.matrix[i - n][j - n] if i >= n and j >= n else 0
         for j in range(n + m)]
        for i in range(n + m)
    ]
    return presentation(rows, tuple(a.chern) + tuple(b.chern))
