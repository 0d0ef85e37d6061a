"""Integer linear algebra on exact arbitrary-precision matrices.

Everything here is pure Python int arithmetic: no modulus is ever large
enough to justify fixed-width types, and the downstream invariants need
exact divisibility decisions, so numpy dtypes are deliberately avoided.
Inputs are coerced through int() entry by entry, which also accepts
numpy integer arrays at the boundary.

smith_normal_form eliminates on the matrix alone and logs its row and
column operations (Cohen, GTM 138, section 2.4); SmithDecomposition
keeps that log and the Smith diagonal, and rebuilds from them only the
transform rows and columns a caller reads, and the dense D, U and V on
first read.  Transform entries far outgrow the matrix entries, so
updating whole transforms during elimination would dominate its cost.
The pivot is the least nonzero |entry| of the block at each new index;
after that, its column is cleared by row operations before its row is
cleared by column operations, each by centred quotients with the least
remainder as the next pivot.  With the column cleared first, a column
addition changes one entry, and the log stays short.  A column phase
rebuilds each row once, however many rounds it takes (_clear_column).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence


class DimensionError(ValueError):
    pass


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable[int]], cols: int | None = None) -> None:
        data = tuple(tuple(map(int, row)) for row in rows)
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
            tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in self.data),
            cols=other.cols,
        )

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionError(f"vector length {len(v)} does not match {self.rows}x{self.cols}")
        return tuple(sum(map(operator.mul, row, v)) for row in self.data)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and tuple(zip(*self.data)) == self.data

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
    """Exact determinant by fraction-free (Bareiss) elimination, rows rescaled lazily.

    Step k of Bareiss maps each row i below the pivot p_k to
    (a_ij p_k - a_ik a_kj) / p_(k-1).  A row with a_ik = 0 is only
    multiplied by p_k / p_(k-1), and these factors telescope: a row last
    updated at the step of pivot p_s has the stored entries times p / p_s,
    p the latest pivot.  So such a row is skipped, and scale[i] keeps p_s.
    The factor is applied once, when the row is next read: as the pivot
    row, as the last entry, or folded into its next update, which divides
    by p_s in place of p_(k-1).  Every quotient is exact, the result being
    a minor of m.  On a tridiagonal chain one row is updated per step.
    """
    if m.rows != m.cols:
        raise DimensionError("determinant needs a square matrix")
    n = m.rows
    if n < 2:
        return m.data[0][0] if n else 1
    a = [list(row) for row in m.data]
    scale = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    scale[k], scale[i] = scale[i], scale[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        s = scale[k]
        if s != prev:
            for j in range(k, n):
                pivot_row[j] = pivot_row[j] * prev // s
        p = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            x = row[k]
            if x:
                s = scale[i]
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - x * pivot_row[j]) // s
                scale[i] = p
        prev = p
    return sign * a[n - 1][n - 1] * prev // scale[n - 1]


# Elementary operations of the Smith elimination, as logged in
# SmithDecomposition.row_ops / col_ops: (kind, a, b, q).
SWAP = "swap"  # exchange a and b
NEGATE = "negate"  # negate a (rows only; b == a)
ADD = "add"  # a += q * b


def _act(ops: Iterable[tuple[str, int, int, int]], vectors: list[list[int]], transposed: bool, sign: int) -> None:
    """Apply logged operations, in the order given, to each vector in place.

    Swaps and negations act on entries as logged.  An addition
    (ADD, a, b, q) does y[a] += sign*q*y[b], or y[b] += sign*q*y[a] when
    transposed.  With E the elementary matrix of one row operation,
    that is y -> E y (sign 1), y -> E^-1 y (sign -1) or y -> E^T y
    (transposed); a column operation col a += q col b is y -> F y with
    F = E^T of the same tuple, hence transposed.
    """
    if not vectors:
        return  # discriminant of a unimodular form asks for no vector
    for kind, i, k, q in ops:
        if kind == ADD:
            if transposed:
                i, k = k, i
            q *= sign
            for y in vectors:
                y[i] += q * y[k]
        elif kind == SWAP:
            for y in vectors:
                y[i], y[k] = y[k], y[i]
        else:
            for y in vectors:
                y[i] = -y[i]


def _units(n: int, idx: Iterable[int]) -> list[list[int]]:
    out = []
    for i in idx:
        e = [0] * n
        e[i] = 1
        out.append(e)
    return out


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ matrix @ V == D with U, V unimodular, kept as the log and the diagonal.

    D is diagonal with nonnegative entries, each dividing the next, and
    zeros trailing.  diag holds its min(rows, cols) diagonal entries; d,
    U and V are not stored but built on first read.  row_ops lists, in
    order, the row operations that smith_normal_form applied to the
    matrix, so U is their product; col_ops lists the column operations,
    whose product is V.  Each entry is a tuple (kind, a, b, q):

      (SWAP, a, b, 0)    exchange rows (columns) a and b
      (NEGATE, a, a, 0)  negate row a
      (ADD, a, b, q)     row (column) a += q * row (column) b

    u_rows, uinv_columns and v_columns rebuild rows of U and columns of
    U^-1 and V by replaying the log backwards on unit vectors, at
    O(len(log)) per vector.  The library reads only columns of V and, at
    the torsion indices, rows of U, so most of U and V is never built;
    U^-1 is read only by the tests.  u, uinv and v are the full
    matrices, replayed on first access and cached.

    The elimination sequence is frozen: it is the column-first rule of
    smith_normal_form, pivot column before pivot row at every index.
    discriminant freezes its torsion section out of V's columns, and the
    Smith-basis radical slopes and torsion coordinates that the CLI
    invariants command prints, and the generator images of a
    finite-regime witness, depend on which U and V the sequence picks,
    not on D alone.  Any change to the pivot rule or to the order of the
    two phases moves them on some inputs; D does not move.
    """

    matrix: IntMatrix
    diag: tuple[int, ...]
    row_ops: tuple[tuple[str, int, int, int], ...]
    col_ops: tuple[tuple[str, int, int, int], ...]

    def diagonal(self) -> tuple[int, ...]:
        return self.diag

    @cached_property
    def d(self) -> IntMatrix:
        r, c, diag = self.matrix.rows, self.matrix.cols, self.diag
        return IntMatrix(((diag[i] if j == i else 0 for j in range(c)) for i in range(r)), cols=c)

    def u_rows(self, idx: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Rows idx of U."""
        xs = _units(self.matrix.rows, idx)
        _act(reversed(self.row_ops), xs, transposed=True, sign=1)
        return tuple(map(tuple, xs))

    def uinv_columns(self, idx: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Columns idx of U^-1: the cokernel covectors of the Smith generators."""
        ys = _units(self.matrix.rows, idx)
        _act(reversed(self.row_ops), ys, transposed=False, sign=-1)
        return tuple(map(tuple, ys))

    def v_columns(self, idx: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Columns idx of V."""
        ys = _units(self.matrix.cols, idx)
        _act(reversed(self.col_ops), ys, transposed=True, sign=1)
        return tuple(map(tuple, ys))

    @cached_property
    def u(self) -> IntMatrix:
        return IntMatrix(self.u_rows(range(self.matrix.rows)), cols=self.matrix.rows)

    @cached_property
    def uinv(self) -> IntMatrix:
        return IntMatrix(zip(*self.uinv_columns(range(self.matrix.rows))), cols=self.matrix.rows)

    @cached_property
    def v(self) -> IntMatrix:
        return IntMatrix(zip(*self.v_columns(range(self.matrix.cols))), cols=self.matrix.cols)


def _rebuild(row: list[int], owed: Sequence[tuple[int, list[int]]]) -> list[int]:
    """row - q * z for every (q, z) in owed, as a new list: one pass per four quotients."""
    k = len(owed)
    if k == 1:
        ((q, z),) = owed
        return [y - q * a for y, a in zip(row, z)]
    if k == 2:
        (q, z), (r, v) = owed
        return [y - q * a - r * b for y, a, b in zip(row, z, v)]
    if k == 3:
        (q, z), (r, v), (s, w) = owed
        return [y - q * a - r * b - s * c for y, a, b, c in zip(row, z, v, w)]
    if not k:
        return row
    (q, z), (r, v), (s, w), (o, u) = owed[:4]
    return _rebuild([y - q * a - r * b - s * c - o * d for y, a, b, c, d in zip(row, z, v, w, u)], owed[4:])


def _clear_column(a: list[list[int]], t: int, row_ops: list[tuple[str, int, int, int]]) -> None:
    """Column phase at index t under a pivot a[0][0] > 1: clear column 0 of the block a below the last pivot, left in a[0][0].

    The rounds run on the column's scalars, which alone decide them; each
    row keeps its quotients until it is swapped in or the column is clear.
    """
    pivot_row, p = a[0], a[0][0]
    col = [row[0] for row in a]  # column 0, reduced round by round
    if col.count(0) == len(a) - 1:  # nothing below the pivot: no round, no rebuild
        return
    owed: list[tuple[tuple[int, list[int]], ...]] = [()] * len(a)  # each row's (q, pivot row) per round
    while True:
        best, h, pi = p, p // 2, 0
        for i in range(1, len(a)):
            x = col[i]
            if x:
                q = (x + h) // p
                if q:
                    owed[i] += ((q, pivot_row),)
                    row_ops.append((ADD, t + i, t, -q))
                    col[i] = x = x - q * p
                if x and abs(x) < best:
                    best, pi = abs(x), i
        if not pi:
            break
        a[0], a[pi] = _rebuild(a[pi], owed[pi]), a[0]
        col[0], col[pi], owed[pi] = col[pi], p, ()
        row_ops.append((SWAP, t, t + pi, 0))
        if col[0] < 0:
            a[0] = [-x for x in a[0]]
            col[0] = -col[0]
            row_ops.append((NEGATE, t, t, 0))
        pivot_row, p = a[0], col[0]
    a[:] = map(_rebuild, a, owed)


def _pivot(a: list[list[int]]) -> tuple[int, int] | None:
    """The first entry of least nonzero |value| in row-major order of the block a.

    This is the pivot at a fresh index.  A unit is that minimum, so the
    first unit of the first row holding one is the same pivot, found by
    membership tests; a block without a unit is scanned once, flattened.
    """
    for i, row in enumerate(a):
        if 1 in row or -1 in row:
            return i, min(row.index(y) for y in (1, -1) if y in row)
    sizes = list(map(abs, chain.from_iterable(a)))
    x = min(filter(None, sizes), default=0)
    return divmod(sizes.index(x), len(a[0])) if x else None


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
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
    A unit pivot clears its column in one pass, a larger one in rounds that
    rebuild each row once (_clear_column), with the log of a rebuild per round.
    """
    m = intmatrix(m)
    a = [list(row) for row in m.data]  # the active block: rows and columns t, t + 1, ...
    row_ops: list[tuple[str, int, int, int]] = []
    col_ops: list[tuple[str, int, int, int]] = []
    pivots: list[int] = []

    while (piv := _pivot(a)) is not None:
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
            if pivot_row[0] == 1:  # a unit clears its column in one pass
                for i in range(1, len(a)):
                    x = a[i][0]
                    if x:
                        a[i] = [y - x * z for y, z in zip(a[i], pivot_row)]
                        row_ops.append((ADD, t + i, t, -x))
            else:
                _clear_column(a, t, row_ops)
                pivot_row = a[0]
            p = best = pivot_row[0]
            h, pi, pj = p // 2, 0, 0
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


def solve_integer(m: IntMatrix, rhs: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution of m @ x = rhs, or None when none exists."""
    m = intmatrix(m)
    rhs = tuple(int(x) for x in rhs)
    if len(rhs) != m.rows:
        raise DimensionError(f"right-hand side length {len(rhs)} does not match {m.rows} rows")
    snf = smith_normal_form(m)
    w = list(rhs)
    _act(snf.row_ops, [w], transposed=False, sign=1)  # w = U rhs
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
    _act(reversed(snf.col_ops), [y], transposed=True, sign=1)  # y = V y
    return tuple(y)


def kernel_basis(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer kernel lattice: columns of V at zero pivots."""
    m = intmatrix(m)
    snf = smith_normal_form(m)
    diag = snf.diagonal()
    return snf.v_columns(j for j in range(m.cols) if j >= len(diag) or diag[j] == 0)


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
