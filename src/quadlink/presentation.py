"""Decorated surgery presentations and the moves connecting them.

A presentation is a symmetric integer linking matrix together with an
integer decoration vector whose entries match the diagonal mod 2.  The
moves below rewrite presentations without changing the invariants this
package computes: basis slides, orientation reversals, adding or
cancelling a unimodular component, cancelling a zero-framed pair, and
the bordered two-component extension.  Each move acts on the decoration
as well, which is what makes it a move of decorated presentations and
not just of matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from quadlink.lattice import is_characteristic, wu_classes
from quadlink.zlinalg import IntMatrix, intmatrix, solve_integer


class PresentationError(ValueError):
    pass


class MoveError(ValueError):
    pass


@dataclass(frozen=True)
class DecoratedPresentation:
    matrix: IntMatrix
    chern: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.matrix if isinstance(self.matrix, IntMatrix) else intmatrix(self.matrix)
        c = tuple(map(int, self.chern))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "chern", c)
        if m.rows != m.cols:
            raise PresentationError(f"linking matrix is {m.rows}x{m.cols}, not square")
        if not m.is_symmetric():
            i, j = next(
                (a, b)
                for a in range(m.rows)
                for b in range(m.cols)
                if m[a][b] != m[b][a]
            )
            raise PresentationError(
                f"linking matrix is not symmetric at ({i}, {j}): {m[i][j]} vs {m[j][i]}"
            )
        if len(c) != m.rows:
            raise PresentationError(
                f"decoration has {len(c)} entries for {m.rows} components"
            )
        if not is_characteristic(m, c):
            bad = next(i for i in range(m.rows) if (c[i] - m[i][i]) % 2)
            raise PresentationError(
                f"decoration entry {bad} = {c[bad]} has the wrong parity against the diagonal {m[bad][bad]}"
            )

    @property
    def size(self) -> int:
        return self.matrix.rows


def presentation(rows: Sequence[Sequence[int]], chern: Sequence[int]) -> DecoratedPresentation:
    return DecoratedPresentation(intmatrix(rows), chern)


def chern_equal(p1: DecoratedPresentation, p2: DecoratedPresentation) -> tuple[int, ...] | None:
    """A vector h with p2.chern = p1.chern + 2 B h, if the matrices agree.

    Decorations related this way present the same structure on the nose,
    with no move needed.
    """
    if p1.matrix != p2.matrix:
        raise PresentationError("decoration comparison needs identical matrices")
    diff = [b - a for a, b in zip(p1.chern, p2.chern)]
    if any(d % 2 for d in diff):
        return None
    return solve_integer(p1.matrix, [d // 2 for d in diff])


def spin_structures(p: DecoratedPresentation) -> tuple[DecoratedPresentation, ...]:
    """The decorations coming from spin structures, one per mod-2 class.

    Each solution w of B w = diag(B) over Z/2 decorates the presentation
    with B w; those decorations are characteristic and their functions
    are homogeneous with zero radical slopes.
    """
    out = []
    for w in wu_classes(p.matrix):
        out.append(DecoratedPresentation(p.matrix, p.matrix.matvec(w)))
    return tuple(out)


@dataclass(frozen=True)
class HandleSlide:
    """Add sign * (component j) to component i, in both matrix and decoration."""

    i: int
    j: int
    sign: int = 1


@dataclass(frozen=True)
class ReverseOrientation:
    i: int


@dataclass(frozen=True)
class Stabilize:
    sign: int = 1


@dataclass(frozen=True)
class Destabilize:
    i: int


@dataclass(frozen=True)
class SlamDunk:
    """Cancel component j, which must be zero-framed and clasp only i."""

    i: int
    j: int


@dataclass(frozen=True)
class YMove:
    """Border the matrix by a coupled pair that leaves the invariants alone.

    The new components carry framings (framing, 0), link each other once,
    and the first couples to the old components along `coupling`.
    """

    coupling: tuple[int, ...]
    framing: int = 0


Move = Union[HandleSlide, ReverseOrientation, Stabilize, Destabilize, SlamDunk, YMove]


def _check_index(p: DecoratedPresentation, i: int) -> None:
    if not 0 <= i < p.size:
        raise MoveError(f"component index {i} out of range for size {p.size}")


def apply_move(p: DecoratedPresentation, move: Move) -> DecoratedPresentation:
    b = p.matrix
    s = p.chern
    n = p.size

    if isinstance(move, HandleSlide):
        _check_index(p, move.i)
        _check_index(p, move.j)
        if move.i == move.j:
            raise MoveError("a component cannot slide over itself")
        if move.sign not in (1, -1):
            raise MoveError(f"slide sign must be +1 or -1, got {move.sign}")
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[move.j][move.i] = move.sign
        em = intmatrix(e)
        new_b = em.transpose() @ b @ em
        new_s = em.transpose().matvec(s)
        return DecoratedPresentation(new_b, new_s)

    if isinstance(move, ReverseOrientation):
        _check_index(p, move.i)
        i = move.i
        rows = [
            [
                -b[r][c] if (r == i) != (c == i) else b[r][c]
                for c in range(n)
            ]
            for r in range(n)
        ]
        new_s = tuple(-x if r == i else x for r, x in enumerate(s))
        return DecoratedPresentation(intmatrix(rows), new_s)

    if isinstance(move, Stabilize):
        if move.sign not in (1, -1):
            raise MoveError(f"stabilization sign must be +1 or -1, got {move.sign}")
        rows = [list(row) + [0] for row in b.data]
        rows.append([0] * n + [move.sign])
        return DecoratedPresentation(intmatrix(rows), s + (move.sign,))

    if isinstance(move, Destabilize):
        _check_index(p, move.i)
        i = move.i
        if b[i][i] not in (1, -1):
            raise MoveError(f"component {i} has framing {b[i][i]}, not +1 or -1")
        if any(b[i][k] for k in range(n) if k != i):
            raise MoveError(f"component {i} still links others and cannot be cancelled")
        keep = [k for k in range(n) if k != i]
        rows = [[b[r][c] for c in keep] for r in keep]
        return DecoratedPresentation(intmatrix(rows), tuple(s[k] for k in keep))

    if isinstance(move, SlamDunk):
        _check_index(p, move.i)
        _check_index(p, move.j)
        i, j = move.i, move.j
        if i == j:
            raise MoveError("the cancelled pair needs two distinct components")
        if b[j][j] != 0:
            raise MoveError(f"component {j} has framing {b[j][j]}, not 0")
        if b[i][j] not in (1, -1):
            raise MoveError(f"components {i} and {j} link {b[i][j]} times, not once")
        extra = [k for k in range(n) if k not in (i, j) and b[j][k] != 0]
        if extra:
            raise MoveError(f"component {j} also links {extra} and cannot be cancelled")
        keep = [k for k in range(n) if k not in (i, j)]
        rows = [[b[r][c] for c in keep] for r in keep]
        # sliding each remaining component off i across j shifts its
        # decoration entry by -B_ji * s_j * B_ki before the pair drops out
        new_s = tuple(s[k] - b[j][i] * s[j] * b[k][i] for k in keep)
        return DecoratedPresentation(intmatrix(rows), new_s)

    if isinstance(move, YMove):
        v = tuple(int(x) for x in move.coupling)
        if len(v) != n:
            raise MoveError(f"coupling vector has {len(v)} entries for {n} components")
        x = int(move.framing)
        rows = [list(row) + [v[r], 0] for r, row in enumerate(b.data)]
        rows.append(list(v) + [x, 1])
        rows.append([0] * n + [1, 0])
        return DecoratedPresentation(intmatrix(rows), s + (x, 0))

    raise MoveError(f"unrecognized move {move!r}")


def enumerate_moves(p: DecoratedPresentation, size_cap: int = 11) -> tuple[Move, ...]:
    """All applicable moves with bounded payloads, in a fixed order.

    Bordered extensions are left out: their coupling payload is an
    unbounded free choice, so walks stay on the other five families.
    """
    n = p.size
    b = p.matrix
    moves: list[Move] = []
    for i in range(n):
        for j in range(n):
            if i != j:
                moves.append(HandleSlide(i, j, 1))
                moves.append(HandleSlide(i, j, -1))
    for i in range(n):
        moves.append(ReverseOrientation(i))
    if n < size_cap:
        moves.append(Stabilize(1))
        moves.append(Stabilize(-1))
    for i in range(n):
        if b[i][i] in (1, -1) and not any(b[i][k] for k in range(n) if k != i):
            moves.append(Destabilize(i))
    for j in range(n):
        if b[j][j] != 0:
            continue
        linked = [k for k in range(n) if k != j and b[j][k] != 0]
        if len(linked) == 1 and b[j][linked[0]] in (1, -1):
            moves.append(SlamDunk(linked[0], j))
    return tuple(moves)


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MOD = 1 << 64


def _lcg_stream(seed: int) -> Iterator[int]:
    state = seed % _LCG_MOD
    while True:
        state = (_LCG_MULT * state + _LCG_INC) % _LCG_MOD
        yield state >> 33


def random_walk(
    p: DecoratedPresentation, steps: int, seed: int, size_cap: int = 11
) -> tuple[DecoratedPresentation, tuple[Move, ...]]:
    """A deterministic pseudo-random walk along applicable moves.

    Uses a fixed 64-bit linear congruential generator (Knuth's MMIX
    multiplier and increment) so that a seed pins down the whole walk
    across platforms; each step picks uniformly from enumerate_moves.
    """
    if steps < 0:
        raise ValueError(f"a walk needs a non-negative number of steps, got {steps}")
    rng = _lcg_stream(seed)
    trail: list[Move] = []
    current = p
    for _ in range(steps):
        options = enumerate_moves(current, size_cap=size_cap)
        if not options:
            break
        move = options[next(rng) % len(options)]
        current = apply_move(current, move)
        trail.append(move)
    return current, tuple(trail)
