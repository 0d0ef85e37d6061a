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
so the slopes c(k_j)/2 on a kernel basis carry all of it.  They are
integers: B k_j = 0, so c(k_j) = k_j^T B k_j = 0 mod 2.

discriminant replays from the Smith decomposition only the columns of
V at the torsion and free indices (the torsion section and the kernel
basis) and, with torsion, the rows of U at the torsion indices, and
checks B k_j = 0 on every kernel column.  The torsion covectors are
U'_i = B V_i / d_i (column i of U^-1, as U B V = D); a remainder raises
DualLatticeError.  No column of U^-1 and no free row of U is replayed:
coker(B) modulo torsion is Hom(ker B, Z), so the mixed regime reads the
free part of c only through its slopes c(k_j)/2 (classify).

discriminant checks a nondegenerate form's torsion order against its
Bareiss determinant.  A caller that holds |det| already passes it to
_discriminant, which checks the Smith diagonal against it instead of
taking a second determinant.  With |det| = 1 the form is unimodular,
the discriminant group is trivial and every field is empty, so no Smith
elimination runs at all.

discriminant stores the section in integers: the Smith columns
V_i = d_i g_i, and the linking pairing on the g_i as integer residues
in units of 1/(2N), N the last invariant factor: every value of phi_c
and of the linking pairing on the torsion part is a multiple of
1/(2N).  phi_generators
reads phi_c on the g_i off that data; with the linking pairing it
describes phi_c, its defect included (quadfun._defect_character), and
phi_table builds whole value tables from the two by the quadratic
recurrence in quadfun (_quadratic_table, through torsion_table), one
step per element.

Every public function of a decoration checks its characteristic parity
and raises CharacteristicError.  The unchecked _torsion_coordinates,
_radical_slope and _phi_generators take a vector checked once by the
caller, as classify does once per decoration.  No rational vector is
built: the lifts g_i = V_i / d_i and the formulas above are evaluated
on them only by the tests, as the reference the integer data is tested
against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import prod
from typing import Sequence

from quadlink.quadfun import OrderCapExceeded, _quadratic_table
from quadlink.zlinalg import IntMatrix, determinant, intmatrix, smith_normal_form, solve_mod2


class CharacteristicError(ValueError):
    """A vector violating the characteristic parity c_i = B_ii mod 2."""


class DualLatticeError(ValueError):
    """A rational vector x with B x not integral."""


def _int_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


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
    if solved is None:
        raise RuntimeError("diagonal not in the mod-2 column space of a symmetric matrix")
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
    torsion_columns[i] is the integer Smith column V_i = d_i g_i of the
    i-th torsion generator g_i, whose rational lift V_i / d_i is never
    built; kernel is an integer basis of the radical, checked to satisfy
    B k_j = 0.  cok_tors_covectors[i] = B V_i / d_i = B g_i is the
    integer covector of the i-th torsion Smith generator of coker(B);
    u_tors_rows are the rows of the Smith transform U at the indices of
    the torsion factors: row . c is the coordinate of the class of c on
    that Smith generator (_torsion_coordinates).

    linking[i][j] is the linking pairing b(g_i, g_j), held as an integer
    r in [0, value_modulus) standing for r / value_modulus, where
    value_modulus = 2N and N is the last invariant factor.  Tables of
    phi_c over the torsion part (phi_table) use the same unit.  No
    free row of U and no column of U^-1 is replayed: no regime reads one.
    The Smith decomposition is not kept; smith_normal_form(matrix) is
    deterministic and gives it again.
    """

    matrix: IntMatrix
    free_rank: int
    torsion_factors: tuple[int, ...]
    torsion_columns: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[int, ...], ...]
    cok_tors_covectors: tuple[tuple[int, ...], ...]
    u_tors_rows: tuple[tuple[int, ...], ...]
    linking: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return self.matrix.rows

    @property
    def torsion_order(self) -> int:
        return prod(self.torsion_factors)

    @property
    def value_modulus(self) -> int:
        """2N, N the last invariant factor (1 without torsion): the unit of linking and phi_table is 1/(2N)."""
        return _value_modulus(self.torsion_factors)

    def require_characteristic(self, c: Sequence[int]) -> tuple[int, ...]:
        cs = tuple(int(x) for x in c)
        if not is_characteristic(self.matrix, cs):
            bad = next(i for i, ci in enumerate(cs) if (ci - self.matrix[i][i]) % 2)
            raise CharacteristicError(
                f"entry {bad}: c_{bad} = {cs[bad]} has the wrong parity against the diagonal {self.matrix[bad][bad]}"
            )
        return cs


def _value_modulus(factors: Sequence[int]) -> int:
    return 2 * (factors[-1] if factors else 1)


def discriminant(matrix: IntMatrix, *, cap: int | None = None) -> DiscriminantData:
    """Compute and freeze the discriminant data of a symmetric form.

    With a cap, a torsion part of larger order raises OrderCapExceeded
    as soon as the Smith diagonal is known, before any transform vector
    is replayed.  A nondegenerate form's torsion order is checked
    against its Bareiss determinant.
    """
    return _discriminant(matrix, None, cap=cap)


def _discriminant(matrix: IntMatrix, abs_det: int | None, *, cap: int | None = None) -> DiscriminantData:
    """discriminant of a form whose |det| the caller already holds, or None when it holds none.

    With |det| = 1 the discriminant group is trivial, and the data is
    that of the empty group, which the Smith route would return too,
    with no elimination.  Otherwise the Smith diagonal is checked
    against |det| and no second determinant is taken; with a cap, a
    larger |det| raises before any elimination.
    """
    matrix = intmatrix(matrix)
    if not matrix.is_symmetric():
        raise ValueError("discriminant construction needs a symmetric matrix")
    if abs_det == 1:
        return DiscriminantData(matrix, 0, (), (), (), (), (), ())
    if abs_det is not None and cap is not None and abs_det > cap:
        raise OrderCapExceeded(abs_det, cap)
    n = matrix.rows
    snf = smith_normal_form(matrix)
    diag = snf.diagonal()
    tors_idx = [i for i in range(n) if diag[i] > 1]
    free_idx = [i for i in range(n) if diag[i] == 0]
    factors = tuple(diag[i] for i in tors_idx)
    order = prod(factors)
    if abs_det is None and not free_idx:
        abs_det = abs(determinant(matrix))
    if abs_det is not None and (0 if free_idx else order) != abs_det:
        raise RuntimeError(f"free rank {len(free_idx)} but |det| = {abs_det}" if free_idx else f"torsion order {order} differs from |det| = {abs_det}")
    if cap is not None and order > cap:
        raise OrderCapExceeded(order, cap)

    k = len(tors_idx)
    v_cols = snf.v_columns(tors_idx + free_idx)
    columns, kernel = v_cols[:k], v_cols[k:]
    for j, kj in enumerate(kernel):
        if any(matrix.matvec(kj)):
            raise RuntimeError(f"kernel column {j} is not in the kernel of B")
    u_tors = snf.u_rows(tors_idx) if tors_idx else ()  # a torsion-free form replays no row operation
    # B V_i = d_i U'_i puts every lift in the dual lattice; linking relies on it
    cok_tors = []
    for i, (d, v) in enumerate(zip(factors, columns)):
        bv = matrix.matvec(v)
        if any(y % d for y in bv):
            raise DualLatticeError(f"torsion generator {i}: B V_{i} is not divisible by {d}")
        cok_tors.append(tuple(y // d for y in bv))

    m = _value_modulus(factors)
    # g_i = V_i / d_i and B g_i = U'_i, so the pairing is an integer dot
    # product over d_i, i.e. a multiple of (m / d_i) / m
    linking = tuple(tuple(m // d * _int_dot(v, cov) % m for cov in cok_tors) for d, v in zip(factors, columns))

    return DiscriminantData(
        matrix=matrix,
        free_rank=len(free_idx),
        torsion_factors=factors,
        torsion_columns=columns,
        kernel=kernel,
        cok_tors_covectors=tuple(cok_tors),
        u_tors_rows=u_tors,
        linking=linking,
    )


def phi_generators(data: DiscriminantData, c: Sequence[int]) -> list[int]:
    """phi_c on the torsion generators.

    The list holds integers in [0, M), M = data.value_modulus, standing
    for phi_c(g_i) in units of 1/M.  Only integer Smith data enters:
    with V_i = data.torsion_columns[i], U'_i = B g_i and N = M/2,

        M q(g_i)      = (N/d_i) (V_i . U'_i - c . V_i)
        M b(g_i, g_j) = data.linking[i][j]

    and the homogeneity defect on g_i is 2 q(g_i) - b(g_i, g_i).
    """
    return _phi_generators(data, data.require_characteristic(c))


def _phi_generators(data: DiscriminantData, cs: Sequence[int]) -> list[int]:
    """phi_generators of a vector the caller has checked to be characteristic."""
    return [column[0] for column in _phi_columns(data, [cs])]


def _phi_columns(data: DiscriminantData, vecs: Sequence[Sequence[int]]) -> list[list[int]]:
    """phi_generators of many checked vectors, with no call per vector: column i holds phi_c(g_i) for each c in vecs."""
    m = data.value_modulus
    columns = []
    for d, v, cov in zip(data.torsion_factors, data.torsion_columns, data.cok_tors_covectors):
        scale = m // 2 // d
        base = _int_dot(v, cov)
        columns.append([scale * (base - _int_dot(cs, v)) % m for cs in vecs])
    return columns


def torsion_table(data: DiscriminantData, q_gen: Sequence[int]) -> list[int]:
    """A quadratic function with polarization data.linking on every torsion element, from its values on the g_i.

    q_gen and the table hold residues in units of 1/data.value_modulus;
    the table follows itertools.product order of the torsion coordinates.
    """
    return _quadratic_table(data.torsion_factors, data.value_modulus, q_gen, data.linking)


def self_linking_table(data: DiscriminantData) -> list[int]:
    """The linking pairing b(w, w) on every torsion element, in torsion_table's units and order.

    w -> b(w, w) is quadratic with polarization 2b: the recurrence of
    torsion_table builds it from b(g_i, g_i) and twice data.linking.
    """
    m = data.value_modulus
    double = [[2 * x % m for x in row] for row in data.linking]
    return _quadratic_table(data.torsion_factors, m, [row[i] for i, row in enumerate(data.linking)], double)


def phi_table(data: DiscriminantData, c: Sequence[int]) -> list[int]:
    """Values of phi_c on every torsion element.

    The table follows itertools.product order of the torsion
    coordinates w and stands for phi_c(sum_i w_i g_i) in units of
    1/data.value_modulus.  The quadratic recurrence in
    quadfun fills it from phi_generators and data.linking
    (torsion_table).
    """
    return torsion_table(data, phi_generators(data, c))


def _radical_slope(data: DiscriminantData, cs: Sequence[int]) -> tuple[int, ...]:
    """The integer slopes c(k_j)/2 of phi_c on the stored kernel basis, for a vector the caller has checked to be characteristic.

    These determine the radical restriction: phi_c on a radical element
    k_j (x) [r] is -(slope) * r, the minus sign forced by the defining
    formula (B - c)/2.  c(k_j) is even because k_j^T B k_j = 0; an odd one means the kernel
    basis is wrong, and raises.
    """
    pairings = [_int_dot(cs, kj) for kj in data.kernel]
    if any(x % 2 for x in pairings):
        raise RuntimeError(f"kernel pairings {pairings} of a characteristic vector are not all even: its slopes are not integral")
    return tuple(x // 2 for x in pairings)


def _torsion_coordinates(data: DiscriminantData, cs: Sequence[int]) -> tuple[int, ...]:
    """The coordinates of the class in coker(B) of a vector the caller has checked to be characteristic, on the torsion Smith generators.

    They are reduced mod the invariant factors and unchanged when c
    moves by 2 B h, so they are invariants of the characteristic class
    of c.
    """
    return tuple(_int_dot(row, cs) % d for row, d in zip(data.u_tors_rows, data.torsion_factors))
