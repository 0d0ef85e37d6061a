"""Discriminant data of a symmetric integer bilinear form.

A symmetric n x n integer matrix B presents a bilinear lattice (Z^n, B).
Its discriminant group G is the quotient of the dual lattice
{x in Q^n : B x integral} by Z^n.  G carries

  * the linking pairing  (x, y) |-> x^T B y  mod 1, and
  * for every characteristic vector c (c_i = B_ii mod 2) the quadratic
    refinement  phi_c(x) = (x^T B x - c^T x) / 2  mod 1.

The torsion part of G is split off by the Smith normal form: with
U B V = D and invariant factor d_i > 1 at column i, the class of
(column i of V) / d_i has exact order d_i, and these classes generate
the finite part.  That family of lifts is a section of the projection
onto the torsion of coker(B), is frozen at construction time, and is
the one section all downstream value tables and Gauss sums refer to.

On the free (radical) part, phi_c restricts to x (x) [r] |-> -(c(x)/2) r,
so the integer slopes c(k_j)/2 on a kernel basis carry all of it.

phi_eval is the defining reference: it evaluates the formula above on
one rational vector.  Whole tables come from phi_table instead, in
plain integers: every value of phi_c, of its defect and of the linking
pairing on the torsion part is a multiple of 1/(2N), N the last
invariant factor, and the values on the generators follow from the
integer Smith columns V_i = d_i g_i and covectors U'_i = B g_i alone.
phi_table fills the rest by the quadratic recurrence, one step per
element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from quadlink.exact import QmodZ
from quadlink.zlinalg import IntMatrix, determinant, intmatrix, smith_normal_form, solve_mod2

RationalVector = tuple[Fraction, ...]


class CharacteristicError(ValueError):
    """A vector violating the characteristic parity c_i = B_ii mod 2."""


class DualLatticeError(ValueError):
    """A rational vector x with B x not integral."""


def _frac_vec(v: Sequence) -> RationalVector:
    return tuple(Fraction(x) for x in v)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), start=Fraction(0))


def is_characteristic(matrix: IntMatrix, c: Sequence[int]) -> bool:
    """Whether c satisfies x^T B x = c(x) mod 2 for all integer x."""
    matrix = intmatrix(matrix)
    if len(c) != matrix.rows:
        raise CharacteristicError(f"vector length {len(c)} does not match a {matrix.rows}-component form")
    return all((int(ci) - matrix[i][i]) % 2 == 0 for i, ci in enumerate(c))


def wu_classes(matrix: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """All mod-2 solutions w of B w = diag(B), as 0/1 vectors.

    These enumerate the spin refinements a surgery presentation carries;
    the count is 2**(mod-2 kernel dimension) and is never zero because
    the diagonal of a symmetric matrix over GF(2) lies in its column
    space.
    """
    matrix = intmatrix(matrix)
    if not matrix.is_symmetric():
        raise ValueError("wu classes need a symmetric matrix")
    solved = solve_mod2(matrix, matrix.diagonal())
    assert solved is not None, "diagonal not in the mod-2 column space of a symmetric matrix"
    particular, basis = solved
    out = []
    for mask in range(1 << len(basis)):
        vec = list(particular)
        for k, b in enumerate(basis):
            if mask >> k & 1:
                vec = [x ^ y for x, y in zip(vec, b)]
        out.append(tuple(vec))
    return tuple(sorted(out))


@dataclass(frozen=True)
class DiscriminantData:
    """Frozen discriminant data of one symmetric form.

    torsion_factors are the invariant factors > 1 in divisibility order;
    lifts[i] is the stored rational lift of the i-th torsion generator;
    kernel is an integer basis of the radical.  linking is the matrix of
    the torsion linking pairing on the lifts.  cok_free_covectors and
    cok_tors_covectors are integer covectors representing the Smith
    generators of coker(B); duality_matrix is the (unimodular) pairing
    matrix between free covectors and the kernel basis, with
    duality_inverse its exact integer inverse.  eval_free_lift[m][i] is
    the evaluation pairing of the m-th free covector with the i-th lift.

    Integer representation: g_i = V_i / d_i with V_i the integer Smith
    column, and B g_i = cok_tors_covectors[i].  Tables of phi_c over the
    torsion part (phi_table) hold integers r in [0, value_modulus)
    standing for r / value_modulus, where value_modulus = 2N and N is
    the last invariant factor; phi_eval on torsion_lift stays the
    definition they are tested against.
    """

    matrix: IntMatrix
    free_rank: int
    torsion_factors: tuple[int, ...]
    lifts: tuple[RationalVector, ...]
    kernel: tuple[tuple[int, ...], ...]
    cok_tors_covectors: tuple[tuple[int, ...], ...]
    cok_free_covectors: tuple[tuple[int, ...], ...]
    u_transform: IntMatrix
    torsion_indices: tuple[int, ...]
    free_indices: tuple[int, ...]
    linking: tuple[tuple[QmodZ, ...], ...]
    duality_matrix: IntMatrix
    duality_inverse: IntMatrix
    eval_free_lift: tuple[tuple[QmodZ, ...], ...]

    @property
    def size(self) -> int:
        return self.matrix.rows

    @property
    def torsion_order(self) -> int:
        return prod(self.torsion_factors)

    @property
    def value_modulus(self) -> int:
        """2N, N the last invariant factor (1 without torsion): the unit of phi_table is 1/(2N)."""
        return 2 * (self.torsion_factors[-1] if self.torsion_factors else 1)

    def dual_contains(self, x: Sequence) -> bool:
        xs = _frac_vec(x)
        if len(xs) != self.size:
            raise DualLatticeError(f"vector length {len(xs)} does not match a {self.size}-component form")
        return all(_dot(row, xs).denominator == 1 for row in self.matrix.data)

    def require_dual(self, x: Sequence) -> RationalVector:
        xs = _frac_vec(x)
        if not self.dual_contains(xs):
            raise DualLatticeError(f"{list(xs)} is not in the dual lattice: B x is not integral")
        return xs

    def require_characteristic(self, c: Sequence[int]) -> tuple[int, ...]:
        cs = tuple(int(x) for x in c)
        if not is_characteristic(self.matrix, cs):
            bad = next(i for i, ci in enumerate(cs) if (ci - self.matrix[i][i]) % 2)
            raise CharacteristicError(
                f"entry {bad}: c_{bad} = {cs[bad]} has the wrong parity against the diagonal {self.matrix[bad][bad]}"
            )
        return cs

    def torsion_lift(self, coords: Sequence[int]) -> RationalVector:
        """The stored rational lift of the torsion element with these coordinates."""
        if len(coords) != len(self.torsion_factors):
            raise ValueError("coordinate length does not match the torsion rank")
        n = self.size
        acc = [Fraction(0)] * n
        for a, g in zip(coords, self.lifts):
            for k in range(n):
                acc[k] += a * g[k]
        return tuple(acc)


def _inverse_of_unimodular(w: IntMatrix) -> IntMatrix:
    n = w.rows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(w.data)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    out = [[a[i][n + j] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return IntMatrix([[int(x) for x in row] for row in out], cols=n)


def discriminant(matrix: IntMatrix) -> DiscriminantData:
    """Compute and freeze the discriminant data of a symmetric form."""
    matrix = intmatrix(matrix)
    if not matrix.is_symmetric():
        raise ValueError("discriminant construction needs a symmetric matrix")
    n = matrix.rows
    snf = smith_normal_form(matrix)
    diag = snf.diagonal()
    tors_idx = [i for i in range(n) if diag[i] > 1]
    free_idx = [i for i in range(n) if diag[i] == 0]

    lifts = tuple(
        tuple(Fraction(snf.v[k][i], diag[i]) for k in range(n)) for i in tors_idx
    )
    kernel = tuple(snf.v.column(i) for i in free_idx)
    cok_tors = tuple(snf.uinv.column(i) for i in tors_idx)
    cok_free = tuple(snf.uinv.column(i) for i in free_idx)

    # torsion linking pairing on the lifts; B g_i is exactly the i-th
    # torsion covector, so no big rational products appear
    linking = tuple(
        tuple(QmodZ(_dot(gi, tj)) for tj in cok_tors) for gi in lifts
    )
    b1 = len(free_idx)
    w = IntMatrix([[int(_dot(fm, kj)) for kj in kernel] for fm in cok_free], cols=b1)
    if abs(determinant(w)) != 1:
        raise RuntimeError("free covectors and kernel basis must pair unimodularly")
    winv = _inverse_of_unimodular(w) if b1 else IntMatrix((), cols=0)
    eval_free_lift = tuple(
        tuple(QmodZ(_dot(fm, gi)) for gi in lifts) for fm in cok_free
    )

    data = DiscriminantData(
        matrix=matrix,
        free_rank=b1,
        torsion_factors=tuple(diag[i] for i in tors_idx),
        lifts=lifts,
        kernel=kernel,
        cok_tors_covectors=cok_tors,
        cok_free_covectors=cok_free,
        u_transform=snf.u,
        torsion_indices=tuple(tors_idx),
        free_indices=tuple(free_idx),
        linking=linking,
        duality_matrix=w,
        duality_inverse=winv,
        eval_free_lift=eval_free_lift,
    )
    if data.free_rank == 0 and data.torsion_order != abs(determinant(matrix)):
        raise RuntimeError(
            f"torsion order {data.torsion_order} differs from |det| = {abs(determinant(matrix))}"
        )
    return data


def phi_eval(data: DiscriminantData, c: Sequence[int], x: Sequence) -> QmodZ:
    """(x^T B x - c^T x) / 2 mod 1 on a dual vector x, for characteristic c."""
    cs = data.require_characteristic(c)
    xs = data.require_dual(x)
    bx = [_dot(row, xs) for row in data.matrix.data]
    return QmodZ((_dot(xs, bx) - _dot(cs, xs)) / 2)


def _int_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def phi_table(data: DiscriminantData, c: Sequence[int]) -> tuple[list[int], list[int]]:
    """Values and homogeneity defects of phi_c on every torsion element.

    Both lists follow itertools.product order of the torsion coordinates
    w and hold integers in [0, M), M = data.value_modulus, standing for
    phi_eval(data, c, data.torsion_lift(w)) and phi_c(w) - phi_c(-w)
    in units of 1/M.  Only integer Smith data enters: with V_i = d_i g_i,
    U'_i = B g_i and N = M/2,

        M q(g_i)      = (N/d_i) (V_i . U'_i - c . V_i)
        M b(g_i, g_j) = 2 (N/d_i) V_i . U'_j
        M delta(g_i)  = -2 (N/d_i) c . V_i

    and q(w + t g_i) = q(w) + t q(g_i) + C(t,2) b(g_i,g_i) + t b(w,g_i)
    fills the table; delta is additive.  B V_i = d_i U'_i is checked for
    every generator, which puts every lift in the dual lattice.
    """
    cs = data.require_characteristic(c)
    factors = data.torsion_factors
    covectors = data.cok_tors_covectors
    m = data.value_modulus
    columns = []
    for i, (d, g, cov) in enumerate(zip(factors, data.lifts, covectors)):
        scaled = [x * d for x in g]
        if any(x.denominator != 1 for x in scaled):
            raise DualLatticeError(f"torsion lift {i} is not an integer vector over {d}")
        column = [int(x) for x in scaled]
        if data.matrix.matvec(column) != tuple(d * y for y in cov):
            raise DualLatticeError(f"torsion generator {i}: B V_{i} differs from {d} times its covector")
        columns.append(column)
    scale = [m // 2 // d for d in factors]
    c_of = [_int_dot(cs, v) for v in columns]
    q_gen = [s * (_int_dot(v, cov) - cv) % m for s, v, cov, cv in zip(scale, columns, covectors, c_of)]
    b_gen = [[2 * s * _int_dot(v, cov) % m for cov in covectors] for s, v in zip(scale, columns)]
    defect_gen = [-2 * s * cv % m for s, cv in zip(scale, c_of)]

    values, defects = [0], [0]
    # pairings[l] holds b(w, g_l) over the part of the table built so far
    pairings = [[0] for _ in factors]
    for i, d in enumerate(factors):
        steps = [(t * q_gen[i] + t * (t - 1) // 2 * b_gen[i][i]) % m for t in range(d)]
        values = [(v + s + t * p) % m for v, p in zip(values, pairings[i]) for t, s in enumerate(steps)]
        defects = [(x + t * defect_gen[i]) % m for x in defects for t in range(d)]
        for l in range(i + 1, len(factors)):
            pairings[l] = [(x + t * b_gen[i][l]) % m for x in pairings[l] for t in range(d)]
    return values, defects


def linking_pairing(data: DiscriminantData, x: Sequence, y: Sequence) -> QmodZ:
    """x^T B y mod 1 on dual vectors; descends to the discriminant group."""
    xs = data.require_dual(x)
    ys = data.require_dual(y)
    by = [_dot(row, ys) for row in data.matrix.data]
    return QmodZ(_dot(xs, by))


def evaluation_pairing(alpha: Sequence[int], x: Sequence) -> QmodZ:
    """alpha(x) mod 1 for an integer covector alpha and a dual vector x."""
    if len(alpha) != len(x):
        raise ValueError("covector and vector lengths differ")
    return QmodZ(_dot([int(a) for a in alpha], _frac_vec(x)))


def radical_slope(data: DiscriminantData, c: Sequence[int]) -> tuple[Fraction, ...]:
    """The slopes c(k_j)/2 of phi_c on the stored kernel basis.

    These determine the radical restriction; note that the evaluation of
    phi_c on a radical element k_j (x) [r] is -(slope) * r, with the
    minus sign forced by the defining formula (B - c)/2.
    """
    cs = data.require_characteristic(c)
    return tuple(Fraction(int(_dot(cs, kj)), 2) for kj in data.kernel)


def chern_coordinates(data: DiscriminantData, c: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinates of the class of c in coker(B): (free part, torsion part).

    The free part is an integer vector over the free Smith generators
    and the torsion part is reduced mod the invariant factors.  Both are
    unchanged when c moves by 2 B h, so they are invariants of the
    characteristic class of c.
    """
    cs = data.require_characteristic(c)
    w = data.u_transform.matvec(cs)
    free = tuple(int(w[i]) for i in data.free_indices)
    tors = tuple(int(w[i]) % d for i, d in zip(data.torsion_indices, data.torsion_factors))
    return free, tors
