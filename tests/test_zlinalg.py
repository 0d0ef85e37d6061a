import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlink.spaces import e8, lens
from quadlink.zlinalg import (
    DimensionError,
    IntMatrix,
    SmithDecomposition,
    _pivot,
    determinant,
    intmatrix,
    kernel_basis,
    smith_normal_form,
    solve_integer,
    solve_mod2,
)

from oracles import reference_smith


def matrices(max_dim=5, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(IntMatrix)
        )
    )


# independent oracle: determinant by Laplace expansion
def laplace_det(m):
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = IntMatrix([row[:j] + row[j + 1 :] for row in m.data[1:]], cols=n - 1)
            total += (-1) ** j * m[0][j] * laplace_det(minor)
    return total


# oracle: Bareiss elimination that rescales every row below the pivot at
# every step, as determinant did before it rescaled lazily
def _dense_bareiss(m):
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


# independent oracle: rank over Q by fraction Gaussian elimination
def rational_rank(m):
    a = [[Fraction(x) for x in row] for row in m.data]
    rank = 0
    for j in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(m.rows):
            if i != rank and a[i][j]:
                f = a[i][j] / a[rank][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@given(st.lists(st.lists(st.integers(-8, 8), min_size=4, max_size=4), min_size=4, max_size=4))
def test_determinant_matches_laplace(rows):
    m = IntMatrix(rows)
    assert determinant(m) == laplace_det(m)


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def determinant_inputs(draw):
    """Square matrices up to 10 x 10 whose elimination skips, swaps or ends singular."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["dense", "sparse", "tridiagonal", "blocks", "late singular", "swaps"]))
    small = st.integers(-9, 9)
    if kind == "dense":
        rows = draw(_square(n, small))
    elif kind == "sparse":
        rows = draw(_square(n, st.sampled_from([0, 0, 0, 1, -1, 2, -3])))
    elif kind == "tridiagonal":
        rows = draw(_square(n, small))
        rows = [[x if abs(i - j) <= 1 else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "blocks":
        rows = [[0] * n for _ in range(n)]
        at = 0
        while at < n:
            size = draw(st.integers(1, n - at))
            for i, row in enumerate(draw(_square(size, small))):
                rows[at + i][at : at + size] = row
            at += size
    elif kind == "late singular":
        # the last row is a combination of the others, so no pivot is missing until the last entry
        rows = draw(_square(n, small))
        weights = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
    else:
        # zeros above the antidiagonal: every leading entry is zero until rows are swapped
        rows = draw(_square(n, small))
        rows = [[x if i + j >= n - 1 else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return IntMatrix(rows, cols=n)


@settings(max_examples=400, deadline=None)
@given(determinant_inputs())
def test_determinant_matches_the_dense_elimination(m):
    assert determinant(m) == _dense_bareiss(m)
    if m.rows <= 5:
        assert determinant(m) == laplace_det(m)


def test_determinant_of_every_lens_chain():
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert abs(determinant(lens(p, q))) == p


def test_determinant_edge_cases():
    assert determinant(IntMatrix((), cols=0)) == 1
    assert determinant(IntMatrix([[7]])) == 7
    with pytest.raises(DimensionError):
        determinant(IntMatrix([[1, 2]]))


@settings(max_examples=150)
@given(matrices())
def test_smith_normal_form_invariants(m):
    snf = smith_normal_form(m)
    assert snf.u @ m @ snf.v == snf.d
    assert snf.u @ snf.uinv == IntMatrix.identity(m.rows)
    assert abs(determinant(snf.u)) == 1
    assert abs(determinant(snf.v)) == 1
    d = snf.diagonal()
    # off-diagonal zero
    assert all(
        snf.d[i][j] == 0 for i in range(m.rows) for j in range(m.cols) if i != j
    )
    # nonnegative, divisibility chain, zeros trailing
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # number of nonzero invariant factors equals the rank over Q
    assert sum(1 for x in d if x) == rational_rank(m)


def test_smith_frozen_examples():
    assert smith_normal_form(IntMatrix([[0, 2], [2, 0]])).diagonal() == (2, 2)
    assert smith_normal_form(IntMatrix([[2, 4], [4, 2]])).diagonal() == (2, 6)
    assert smith_normal_form(IntMatrix([[9]])).diagonal() == (9,)
    assert smith_normal_form(IntMatrix.zero(3, 3)).diagonal() == (0, 0, 0)


def test_smith_determinism():
    m = IntMatrix([[6, 4, 2], [4, 0, 8], [2, 8, 6]])
    first = smith_normal_form(m)
    for _ in range(3):
        again = smith_normal_form(m)
        assert again.u == first.u and again.v == first.v and again.d == first.d


def test_smith_empty_matrix():
    snf = smith_normal_form(IntMatrix((), cols=0))
    assert snf.d.rows == 0 and snf.d.cols == 0


# reference: the dense elimination that updates U, U^-1 and V alongside
# the matrix.  smith_normal_form must replay exactly this sequence: the
# column-first rule, which clears the pivot column by row additions
# before it clears the pivot row by column additions.  With centred=False
# it follows an earlier rule instead, floor quotients on column and row
# together and a scan of the whole block for every pivot, which must
# reach the same D.
def dense_smith(m, centred=True):
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
        # col j += q * col l; column first, col l is zero below the pivot
        if centred:
            assert not any(a[i][l] for i in range(l + 1, r))
        for row in a:
            row[j] += q * row[l]
        for row in v:
            row[j] += q * row[l]

    def least(cells):
        # first cell of least nonzero |value|, or None
        cells = [(i, j) for i, j in cells if a[i][j]]
        return min(cells, key=lambda ij: abs(a[ij[0]][ij[1]]), default=None)

    t = 0
    size = min(r, c)
    while t < size:
        # deterministic pivot at a fresh t: min |value| over the block,
        # then min row, then min column
        piv = least((i, j) for i in range(t, r) for j in range(t, c))
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        if a[t][t] < 0:
            row_negate(t)
        if centred:
            while True:
                p = a[t][t]
                for i in range(t + 1, r):
                    q = (a[i][t] + p // 2) // p
                    if q:
                        row_add(i, t, -q)
                piv = least((i, t) for i in range(t + 1, r))
                if piv is None:
                    for j in range(t + 1, c):
                        q = (a[t][j] + p // 2) // p
                        if q:
                            col_add(j, t, -q)
                    piv = least((t, j) for j in range(t + 1, c))
                    if piv is None:
                        break
                    col_swap(t, piv[1])
                else:
                    row_swap(t, piv[0])
                if a[t][t] < 0:
                    row_negate(t)
        else:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    dirty |= a[i][t] % p != 0
                    row_add(i, t, -(a[i][t] // p))
            for j in range(t + 1, c):
                if a[t][j]:
                    dirty |= a[t][j] % p != 0
                    col_add(j, t, -(a[t][j] // p))
            if dirty:
                continue
        p = a[t][t]
        offender = None
        for i in range(t + 1, r):
            if any(a[i][j] % p for j in range(t + 1, c)):
                offender = i
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    return IntMatrix(u, cols=r), IntMatrix(a, cols=c), IntMatrix(v, cols=c), IntMatrix(uinv, cols=r)


def empty_or_zero_matrices():
    shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return shapes.map(lambda rc: IntMatrix.zero(*rc))


def degenerate_symmetric_matrices(max_dim=6, max_entry=6):
    # a symmetric form G^T D G with a zero in D has a nonzero radical
    def build(args):
        n, diag, g = args
        gm = IntMatrix([g[i * n : (i + 1) * n] for i in range(n)])
        return gm.transpose() @ IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]) @ gm

    return st.integers(1, max_dim).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n).map(lambda d: [0] + d[1:]),
            st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
        ).map(build)
    )


_BLOCKS = {"e8": e8().data, "h": ((0, 1), (1, 0)), "+1": ((1,),), "-1": ((-1,),), "0": ((0,),), "3": ((3,),)}


def _block_sum(names):
    n = sum(len(_BLOCKS[k]) for k in names)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for k in names:
        block = _BLOCKS[k]
        for i, row in enumerate(block):
            rows[at + i][at : at + len(row)] = row
        at += len(block)
    return rows


def _slide(rows, i, j, s):
    """Handle slide of component i over j (sign s): row i += s row j, then column i += s column j."""
    rows[i] = [x + s * y for x, y in zip(rows[i], rows[j])]
    for row in rows:
        row[i] += s * row[j]


def named_block_sums(max_components=16):
    """(block names, matrix): block sums of E8, hyperbolic, +-1, 0 and 3, scrambled by handle slides.

    A slide of component i over j (sign s) is the congruence B -> P B P^T
    with P = I + s e_i e_j^T.
    """

    def fits(names):
        return sum(len(_BLOCKS[n]) for n in names) <= max_components

    def build(args):
        names, slides = args
        rows = _block_sum(names)
        n = len(rows)
        for i, j, s in slides:
            i, j = i % n, j % n
            if i != j:
                _slide(rows, i, j, s)
        return names, IntMatrix(rows)

    names = st.lists(st.sampled_from(sorted(_BLOCKS)), min_size=1, max_size=8).filter(fits)
    slides = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.sampled_from((1, -1))), max_size=40)
    return st.tuples(names, slides).map(build)


def scrambled_block_sums(max_components=16):
    return named_block_sums(max_components).map(lambda named: named[1])


def _assert_matches_dense(m):
    snf = smith_normal_form(m)
    u, d, v, uinv = dense_smith(m)
    assert snf.d == d
    assert snf.u == u
    assert snf.v == v
    assert snf.uinv == uinv
    return snf


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        empty_or_zero_matrices(),
        matrices(max_dim=7, max_entry=40),
        degenerate_symmetric_matrices(),
        scrambled_block_sums(),
    )
)
def test_smith_replays_the_dense_elimination(m):
    _assert_matches_dense(m)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(max_dim=7, max_entry=40), scrambled_block_sums()), st.data())
def test_smith_accessors_pick_rows_and_columns(m, data):
    snf = _assert_matches_dense(m)
    rows = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=m.rows))
    cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=m.cols))
    assert snf.u_rows(rows) == tuple(snf.u[i] for i in rows)
    assert snf.uinv_columns(rows) == tuple(snf.uinv.column(i) for i in rows)
    assert snf.v_columns(cols) == tuple(snf.v.column(j) for j in cols)


def _minors(m, k):
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            yield laplace_det(IntMatrix([[m[i][j] for j in cols] for i in rows]))


@settings(max_examples=120, deadline=None)
@given(matrices(max_dim=4, max_entry=9))
def test_smith_diagonal_matches_determinantal_divisors(m):
    # d_1 ... d_k is the gcd of the k x k minors, whatever the pivot rule
    d = smith_normal_form(m).diagonal()
    for k in range(1, len(d) + 1):
        assert math.prod(d[:k]) == math.gcd(*_minors(m, k))


@settings(max_examples=80, deadline=None)
@given(named_block_sums())
def test_smith_diagonal_of_block_sums_is_known(named):
    # slides are congruences, so each unimodular row gives a 1, each 3
    # block a 3 and each 0 block a 0
    names, m = named
    units = sum(len(_BLOCKS[k]) for k in names if k not in ("3", "0"))
    assert smith_normal_form(m).diagonal() == (1,) * units + (3,) * names.count("3") + (0,) * names.count("0")


@settings(max_examples=40, deadline=None)
@given(st.one_of(matrices(max_dim=10, max_entry=1000), scrambled_block_sums(max_components=40)))
def test_smith_diagonal_matches_the_floor_rule(m):
    assert smith_normal_form(m).d == dense_smith(m, centred=False)[1]


# A fixed slide-scrambled form like the benchmark's wide workload: E8 and
# hyperbolic blocks, two 0-framed unknots, 48 components, and slides
# that bring the entries to about 4 bits on average.
def _work_counter_form():
    rows = _block_sum(["e8"] * 4 + ["h"] * 7 + ["0"] * 2)
    n = len(rows)
    for k in range(170):
        _slide(rows, (5 * k + 1) % n, (13 * k + 7) % n, (1, -1)[k % 2])
    return IntMatrix(rows)


def _bits(vectors):
    return max(abs(x).bit_length() for v in vectors for x in v)


def test_smith_work_counters_are_pinned():
    # deterministic cost of one elimination: the log lengths and the
    # largest transform entries at the free indices, where discriminant
    # replays the V columns (its kernel basis) and only the tests read
    # the U^-1 columns (the sweep oracle's free covectors).  The floor
    # rule with a scan of the whole block gave 5,977 and 5,939
    # operations, 1,402 and 7 bits; centred quotients on column and row
    # together, with the next pivot from them, gave 5,459 and 5,416
    # operations, 1,644 and 9 bits
    m = _work_counter_form()
    snf = smith_normal_form(m)
    free = [i for i, x in enumerate(snf.diagonal()) if x == 0]
    assert free == [46, 47]
    assert (len(snf.row_ops), len(snf.col_ops)) == (4460, 1202)
    assert (_bits(snf.uinv_columns(free)), _bits(snf.v_columns(free))) == (928, 7)


def _dense_form(n, seed=1, bound=2**32 - 1):
    # a random symmetric form with 32-bit entries, built like the dense
    # 64-component form at the CLI limits that CI runs
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return IntMatrix(rows)


def test_smith_transform_growth_on_a_dense_form_is_pinned():
    # the transform entries at the torsion index: discriminant replays
    # the V column (the torsion section) and the U row (the torsion
    # coordinates), and only the tests read the U^-1 column, which
    # discriminant computes as B V / d instead; clearing column and row
    # together gave U^-1, V and U entries of 40,686, 41,444 and 39,609
    # bits here
    snf = smith_normal_form(_dense_form(24))
    tors = [i for i, x in enumerate(snf.diagonal()) if x > 1]
    assert tors == [23]
    assert (_bits(snf.uinv_columns(tors)), _bits(snf.v_columns(tors)), _bits(snf.u_rows(tors))) == (5179, 5937, 757)


class _UnreadLog:
    """A stand-in operation log that fails the test if it is walked."""

    def __reversed__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("the log was walked for no vector")


def test_smith_accessors_skip_the_log_when_no_vector_is_requested():
    m = IntMatrix([[2, 1], [1, 1]])
    snf = SmithDecomposition(matrix=m, diag=(1, 1), row_ops=_UnreadLog(), col_ops=_UnreadLog())
    assert snf.u_rows([]) == snf.uinv_columns([]) == snf.v_columns(iter(())) == ()


def test_smith_full_transforms_are_built_once():
    snf = smith_normal_form(IntMatrix([[6, 4, 2], [4, 0, 8], [2, 8, 6]]))
    assert snf.row_ops and snf.col_ops
    assert snf.u is snf.u and snf.v is snf.v and snf.uinv is snf.uinv


@pytest.mark.parametrize(
    "m",
    [IntMatrix([[2, 4, 6], [4, 8, 10]]), IntMatrix([[2, 4], [4, 8], [6, 10]]), IntMatrix((), cols=0)],
    ids=["2x3", "3x2", "0x0"],
)
def test_smith_keeps_the_diagonal_and_builds_d_on_first_read(m):
    snf = smith_normal_form(m)
    assert "d" not in vars(snf)
    assert type(snf.diag) is tuple and all(type(x) is int for x in snf.diag)
    assert snf.diagonal() == snf.diag and len(snf.diag) == min(m.rows, m.cols)
    assert snf.d == dense_smith(m)[1] and snf.d.diagonal() == snf.diag
    assert snf.d is snf.d


# The pivot scan smith_normal_form used before it tested rows for a unit
# by membership: every row's least nonzero |entry|, stopping at a unit.
def _pivot_by_row_minima(a):
    best = 0
    piv = None
    for i, row in enumerate(a):
        sizes = list(map(abs, row))
        nonzero = [x for x in sizes if x]
        if nonzero:
            x = min(nonzero)
            if not best or x < best:
                best, piv = x, (i, sizes.index(x))
                if x == 1:
                    break
    return piv


def pivot_blocks():
    entries = st.one_of(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3)), st.integers(-40, 40))
    return st.integers(0, 6).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), max_size=6)
    )


@settings(max_examples=300, deadline=None)
@given(pivot_blocks())
@example([])  # a 0-row block
@example([[], []])  # rows with no column left
@example([[0, 0], [0, 0]])  # no nonzero entry
@example([[2, -1, 1, -1]])  # 1 and -1 in one row, -1 first
@example([[0, 1, -1], [-1, 0, 0]])  # 1 first
@example([[2, -3], [0, 0], [4, -1], [1, 0]])  # units only in later rows
@example([[0, 0, 0], [-4, 6, 4], [0, 0, 0], [4, 4, -4]])  # all-zero rows and ties of -4 and 4
def test_pivot_scan_matches_the_row_minima_scan(block):
    before = [list(row) for row in block]
    assert _pivot(block) == _pivot_by_row_minima(block)
    assert block == before


# Log lengths and digests recorded before the pivot scan tested rows for
# a unit by membership and before finished rows and columns were dropped
# in place: the elimination sequence must not move.
def _ops_digest(ops):
    return hashlib.sha256(repr(tuple(ops)).encode()).hexdigest()[:16]


def _scrambled_unimodular_plus_zeros():
    # two E8, three hyperbolic, +1 and -1 blocks plus 0_3, slid like the
    # benchmark's wide workload
    rows = _block_sum(["e8"] * 2 + ["h"] * 3 + ["+1", "-1"] + ["0"] * 3)
    n = len(rows)
    for k in range(60):
        i, j = (7 * k + 3) % n, (11 * k + 5) % n
        if i != j:
            _slide(rows, i, j, (1, -1)[k % 3 == 0])
    return IntMatrix(rows)


@pytest.mark.parametrize(
    "m, diagonal, lengths, digests",
    [
        (lens(41, 40), (1,) * 39 + (41,), (116, 78), ("d3f73da4ea1b3bec", "5c03efa8bd6fbece")),
        (_scrambled_unimodular_plus_zeros(), (1,) * 24 + (0,) * 3, (390, 324), ("38483cb0c3b1354e", "383e615d0d2cfca0")),
    ],
    ids=["lens(41,40)", "unimodular+0_3"],
)
def test_smith_logs_are_pinned(m, diagonal, lengths, digests):
    snf = smith_normal_form(m)
    assert snf.diagonal() == diagonal
    assert (len(snf.row_ops), len(snf.col_ops)) == lengths
    assert (_ops_digest(snf.row_ops), _ops_digest(snf.col_ops)) == digests


# Differential oracle for the whole log: reference_smith rebuilds every
# row in every round of a column phase, smith_normal_form once per phase.
def _smith_log(snf):
    return snf.diag, snf.row_ops, snf.col_ops


def unit_free_forms():
    # symmetric forms of 6 to 16 components with no unit entry, whose
    # column phases run several rounds
    entries = st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9))

    def build(n, upper):
        rows = [[0] * n for _ in range(n)]
        for (i, j), x in zip(itertools.combinations_with_replacement(range(n), 2), upper):
            rows[i][j] = rows[j][i] = x
        return IntMatrix(rows)

    return st.integers(6, 16).flatmap(
        lambda n: st.lists(entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
            lambda upper: build(n, upper)
        )
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(max_dim=10, max_entry=2**70), unit_free_forms(), scrambled_block_sums()))
@example(IntMatrix([[6, 4, 2], [4, 0, 8], [2, 8, 6]]))
# column phases with nothing below the pivot: a diagonal form, the last
# index of a block, and a 1x1 form
@example(IntMatrix([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]]))
@example(IntMatrix([[2, 1], [1, 3]]))
@example(IntMatrix([[63]]))
def test_smith_log_matches_the_rebuild_per_round(m):
    assert _smith_log(smith_normal_form(m)) == _smith_log(reference_smith(m))


def test_smith_log_of_every_lens_chain_matches_the_rebuild_per_round():
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                m = lens(p, q)
                assert _smith_log(smith_normal_form(m)) == _smith_log(reference_smith(m))


@settings(max_examples=120)
@given(matrices(max_dim=4, max_entry=6), st.data())
def test_solve_integer_recovers_planted_solution(m, data):
    x = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols))
    rhs = m.matvec(x)
    got = solve_integer(m, rhs)
    assert got is not None
    assert m.matvec(got) == rhs


def test_solve_integer_no_solution():
    assert solve_integer(IntMatrix([[2]]), (1,)) is None
    assert solve_integer(IntMatrix([[2, 0], [0, 3]]), (1, 1)) is None
    assert solve_integer(IntMatrix([[1, 1], [1, 1]]), (0, 1)) is None


@settings(max_examples=80)
@given(matrices(max_dim=2, max_entry=2), st.lists(st.integers(-3, 3), min_size=1, max_size=2))
def test_solve_integer_none_confirmed_by_brute_force(m, rhs):
    if len(rhs) != m.rows:
        rhs = (rhs * m.rows)[: m.rows]
    got = solve_integer(m, rhs)
    if got is None:
        # small systems with small data have small solutions when any exist
        box = range(-24, 25)
        for cand in itertools.product(box, repeat=m.cols):
            assert m.matvec(cand) != tuple(rhs)
    else:
        assert m.matvec(got) == tuple(rhs)


@settings(max_examples=120)
@given(matrices(max_dim=4, max_entry=5))
def test_kernel_basis_properties(m):
    basis = kernel_basis(m)
    zero = (0,) * m.rows
    for vec in basis:
        assert m.matvec(vec) == zero
    assert len(basis) == m.cols - rational_rank(m)
    if basis:
        # basis vectors are linearly independent over Q
        bmat = IntMatrix(list(zip(*basis)), cols=len(basis))
        assert rational_rank(bmat) == len(basis)


def test_kernel_vectors_lie_in_basis_lattice():
    m = IntMatrix([[2, 4, 6], [1, 2, 3]])
    basis = kernel_basis(m)
    bmat = IntMatrix(list(zip(*basis)), cols=len(basis))
    for cand in itertools.product(range(-3, 4), repeat=3):
        if m.matvec(cand) == (0, 0):
            assert solve_integer(bmat, cand) is not None


@settings(max_examples=100)
@given(matrices(max_dim=4, max_entry=1), st.data())
def test_solve_mod2_matches_exhaustive(m, data):
    rhs = data.draw(st.lists(st.integers(0, 1), min_size=m.rows, max_size=m.rows))
    brute = {
        cand
        for cand in itertools.product((0, 1), repeat=m.cols)
        if tuple(x & 1 for x in m.matvec(cand)) == tuple(rhs)
    }
    got = solve_mod2(m, rhs)
    if got is None:
        assert brute == set()
    else:
        particular, basis = got
        span = set()
        for picks in itertools.product((0, 1), repeat=len(basis)):
            vec = list(particular)
            for take, b in zip(picks, basis):
                if take:
                    vec = [x ^ y for x, y in zip(vec, b)]
            span.add(tuple(vec))
        assert span == brute


def test_intmatrix_validation_and_coercion():
    with pytest.raises(DimensionError):
        IntMatrix([[1, 2], [3]])
    big = 2**80
    m = IntMatrix([[big]])
    assert m[0][0] == big
    assert intmatrix(m) is m
    np = pytest.importorskip("numpy")
    arr = np.array([[1, 2], [3, 4]])
    assert IntMatrix(arr) == IntMatrix([[1, 2], [3, 4]])
    assert type(IntMatrix(arr)[0][0]) is int


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])
    with pytest.raises(DimensionError):
        IntMatrix([[1, 2]]).matvec((1, 2, 3))
