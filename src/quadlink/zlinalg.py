"""Integer linear algebra on exact arbitrary-precision matrices.

Everything here is pure Python int arithmetic: no modulus is ever large
enough to justify fixed-width types, and the downstream invariants need
exact divisibility decisions, so numpy dtypes are deliberately avoided.
Inputs are coerced through int() entry by entry, which also accepts
numpy integer arrays at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class DimensionError(ValueError):
    pass


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable[int]], cols: int | None = None) -> None:
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionError("ragged rows")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), cols=n)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)), cols=cols)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.data)) if self.data else (), cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = tuple(zip(*other.data)) if other.data else ((),) * other.cols
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.data),
            cols=other.cols,
        )

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionError(f"vector length {len(v)} does not match {self.rows}x{self.cols}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i] for i in range(self.rows) for j in range(i)
        )

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.data, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntMatrix is immutable")


def intmatrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    return rows if isinstance(rows, IntMatrix) else IntMatrix(rows)


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ matrix @ V == D with U, V unimodular.

    D is diagonal with nonnegative entries, each dividing the next, and
    zeros trailing.  uinv is the exact inverse of U, kept because its
    columns are the cokernel covectors of the discriminant construction.
    """

    matrix: IntMatrix
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    uinv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with deterministic pivoting.

    Pivot choice: smallest nonzero absolute value, ties broken by lowest
    row index then lowest column index.  Determinism matters because the
    discriminant construction freezes a section out of V's columns and
    every downstream Gauss sum refers to it.
    """
    m = intmatrix(m)
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
    u = [list(row) for row in IntMatrix.identity(r).data]
    uinv = [list(row) for row in IntMatrix.identity(r).data]
    v = [list(row) for row in IntMatrix.identity(c).data]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        for row in uinv:
            row[i], row[k] = row[k], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    def row_add(i, k, q):
        # row i += q * row k
        a[i] = [x + q * y for x, y in zip(a[i], a[k])]
        u[i] = [x + q * y for x, y in zip(u[i], u[k])]
        for row in uinv:
            row[k] -= q * row[i]

    def col_swap(j, l):
        for row in a:
            row[j], row[l] = row[l], row[j]
        for row in v:
            row[j], row[l] = row[l], row[j]

    def col_add(j, l, q):
        # col j += q * col l
        for row in a:
            row[j] += q * row[l]
        for row in v:
            row[j] += q * row[l]

    t = 0
    size = min(r, c)
    while t < size:
        # deterministic pivot: min |value|, then min row, then min column
        piv = None
        for i in range(t, r):
            for j in range(t, c):
                val = a[i][j]
                if val and (piv is None or abs(val) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        if a[t][t] < 0:
            row_negate(t)
        p = a[t][t]
        dirty = False
        for i in range(t + 1, r):
            if a[i][t]:
                if a[i][t] % p:
                    dirty = True
                q = a[i][t] // p
                if q:
                    row_add(i, t, -q)
        for j in range(t + 1, c):
            if a[t][j]:
                if a[t][j] % p:
                    dirty = True
                q = a[t][j] // p
                if q:
                    col_add(j, t, -q)
        if dirty:
            continue  # remainders became new, smaller candidates
        # pivot must divide the remaining block for the invariant-factor chain
        offender = None
        for i in range(t + 1, r):
            if any(a[i][j] % p for j in range(t + 1, c)):
                offender = i
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    return SmithDecomposition(
        matrix=m,
        u=IntMatrix(u, cols=r),
        d=IntMatrix(a, cols=c),
        v=IntMatrix(v, cols=c),
        uinv=IntMatrix(uinv, cols=r),
    )


def solve_integer(m: IntMatrix, rhs: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution of m @ x = rhs, or None when none exists."""
    m = intmatrix(m)
    rhs = tuple(int(x) for x in rhs)
    if len(rhs) != m.rows:
        raise DimensionError(f"right-hand side length {len(rhs)} does not match {m.rows} rows")
    snf = smith_normal_form(m)
    w = snf.u.matvec(rhs)
    diag = snf.diagonal()
    y = [0] * m.cols
    for i, wi in enumerate(w):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if wi != 0:
                return None
        else:
            if wi % di:
                return None
            y[i] = wi // di
    return snf.v.matvec(y)


def kernel_basis(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer kernel lattice: columns of V at zero pivots."""
    m = intmatrix(m)
    snf = smith_normal_form(m)
    diag = snf.diagonal()
    idx = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    return tuple(snf.v.column(j) for j in idx)


def solve_mod2(m: IntMatrix, rhs: Sequence[int]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None:
    """Solve m @ x = rhs over GF(2).

    Returns (particular solution, kernel basis) with 0/1 entries, or
    None when the system is inconsistent; the full solution set is the
    particular solution plus the span of the basis.
    """
    m = intmatrix(m)
    rhs = [int(x) & 1 for x in rhs]
    if len(rhs) != m.rows:
        raise DimensionError(f"right-hand side length {len(rhs)} does not match {m.rows} rows")
    r, c = m.rows, m.cols
    rows = [[x & 1 for x in row] + [b] for row, b in zip(m.data, rhs)]
    pivot_col_of_row: list[int] = []
    rank = 0
    for j in range(c):
        sel = None
        for i in range(rank, r):
            if rows[i][j]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        for i in range(r):
            if i != rank and rows[i][j]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[rank])]
        pivot_col_of_row.append(j)
        rank += 1
    for i in range(rank, r):
        if rows[i][c]:
            return None
    particular = [0] * c
    for i, j in enumerate(pivot_col_of_row):
        particular[j] = rows[i][c]
    free_cols = [j for j in range(c) if j not in pivot_col_of_row]
    basis = []
    for f in free_cols:
        vec = [0] * c
        vec[f] = 1
        for i, j in enumerate(pivot_col_of_row):
            vec[j] = rows[i][f]
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)
