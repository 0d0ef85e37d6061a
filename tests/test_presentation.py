from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlink.lattice import discriminant
from quadlink.presentation import (
    DecoratedPresentation,
    Destabilize,
    HandleSlide,
    MoveError,
    PresentationError,
    ReverseOrientation,
    SlamDunk,
    Stabilize,
    YMove,
    apply_move,
    chern_equal,
    enumerate_moves,
    presentation,
    random_walk,
    spin_structures,
)
from quadlink.quadfun import FiniteAbelianGroup, QuadraticFunction
from quadlink.zlinalg import determinant, intmatrix

from oracles import invariant_fingerprint, phi_eval, torsion_lift


def finite_part(p):
    """The finite quadratic function of a nondegenerate presentation."""
    data = discriminant(p.matrix)
    assert data.free_rank == 0
    group = FiniteAbelianGroup(data.torsion_factors)
    return QuadraticFunction.from_callable(
        group, lambda a: phi_eval(data, p.chern, torsion_lift(data, a))
    )


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(PresentationError, match=r"\(0, 1\)"):
            presentation([[1, 2], [3, 1]], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(PresentationError, match="2 entries for 1"):
            presentation([[1]], [1, 1])

    def test_parity_violation_names_the_entry(self):
        with pytest.raises(PresentationError, match="entry 1"):
            presentation([[2, 0], [0, 3]], [0, 2])

    def test_accepts_valid(self):
        p = presentation([[2, 1], [1, 2]], [0, 4])
        assert p.size == 2

    def test_empty_presentation(self):
        p = presentation([], [])
        assert p.size == 0


class TestChernEqual:
    def test_planted_shift(self):
        b = [[3, 1], [1, 4]]
        p1 = presentation(b, (3, 4))
        m = intmatrix(b)
        shift = m.matvec((1, -2))
        p2 = presentation(b, (3 + 2 * shift[0], 4 + 2 * shift[1]))
        h = chern_equal(p1, p2)
        assert h is not None
        bh = m.matvec(h)
        assert tuple(a + 2 * x for a, x in zip(p1.chern, bh)) == p2.chern

    def test_unreachable_decoration(self):
        p1 = presentation([[9]], (9,))
        p2 = presentation([[9]], (7,))
        assert chern_equal(p1, p2) is None

    def test_matrix_mismatch_raises(self):
        with pytest.raises(PresentationError):
            chern_equal(presentation([[2]], (0,)), presentation([[4]], (0,)))

    def test_degenerate_direction(self):
        # the kernel direction admits no compensation at all
        p1 = presentation([[0]], (0,))
        p2 = presentation([[0]], (2,))
        assert chern_equal(p1, p2) is None
        assert chern_equal(p1, presentation([[0]], (0,))) == (0,)


class TestSpinStructures:
    def test_count_is_power_of_two(self):
        for rows in ([[2]], [[3]], [[2, 0], [0, 2]], [[0, 0], [0, 0]]):
            p = presentation(rows, [r[i] for i, r in enumerate(rows)])
            spins = spin_structures(p)
            assert len(spins) & (len(spins) - 1) == 0

    def test_even_form_has_two(self):
        p = presentation([[2]], (2,))
        spins = spin_structures(p)
        assert sorted(q.chern for q in spins) == [(0,), (2,)]

    def test_odd_form_has_one(self):
        p = presentation([[3]], (3,))
        spins = spin_structures(p)
        assert len(spins) == 1
        assert spins[0].chern == (3,)

    def test_torsion_free_all_collapse_to_zero(self):
        p = presentation([[0, 0], [0, 0]], (0, 0))
        spins = spin_structures(p)
        assert len(spins) == 4
        assert all(q.chern == (0, 0) for q in spins)


class TestHandleSlide:
    def test_frozen_example(self):
        p = presentation([[2, 1], [1, 2]], (2, 2))
        out = apply_move(p, HandleSlide(0, 1, 1))
        assert out.matrix.data == ((6, 3), (3, 2))
        assert out.chern == (4, 2)

    def test_slide_then_unslide(self):
        p = presentation([[5, 2], [2, -3]], (1, 5))
        out = apply_move(apply_move(p, HandleSlide(0, 1, 1)), HandleSlide(0, 1, -1))
        assert out == p

    def test_preserves_determinant(self):
        p = presentation([[5, 2], [2, -3]], (1, 5))
        out = apply_move(p, HandleSlide(1, 0, -1))
        assert determinant(out.matrix) == determinant(p.matrix)

    def test_self_slide_rejected(self):
        with pytest.raises(MoveError, match="itself"):
            apply_move(presentation([[1]], (1,)), HandleSlide(0, 0, 1))

    def test_preserves_finite_function(self):
        p = presentation([[3, 1], [1, 4]], (3, 4))
        out = apply_move(p, HandleSlide(0, 1, 1))
        assert invariant_fingerprint(finite_part(p)) == invariant_fingerprint(finite_part(out))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_dense_congruence(self, data):
        # the slide is B -> E^T B E and c -> E^T c for E the identity with
        # sign in row j, column i; apply_move does it by one column and one
        # row addition
        n = data.draw(st.integers(2, 6))
        rows = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                rows[r][c] = rows[c][r] = data.draw(st.integers(-50, 50))
        chern = [rows[r][r] + 2 * data.draw(st.integers(-20, 20)) for r in range(n)]
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        sign = data.draw(st.sampled_from((1, -1)))
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[j][i] = sign
        em = intmatrix(e)
        out = apply_move(presentation(rows, chern), HandleSlide(i, j, sign))
        assert out.matrix == em.transpose() @ intmatrix(rows) @ em
        assert out.chern == em.transpose().matvec(chern)


class TestReverseOrientation:
    def test_frozen_example(self):
        p = presentation([[2, 1], [1, 2]], (2, 2))
        out = apply_move(p, ReverseOrientation(0))
        assert out.matrix.data == ((2, -1), (-1, 2))
        assert out.chern == (-2, 2)

    def test_involution(self):
        p = presentation([[5, 2], [2, -3]], (1, 5))
        out = apply_move(apply_move(p, ReverseOrientation(1)), ReverseOrientation(1))
        assert out == p

    def test_preserves_finite_function(self):
        p = presentation([[3, 1], [1, 4]], (3, 4))
        out = apply_move(p, ReverseOrientation(0))
        assert invariant_fingerprint(finite_part(p)) == invariant_fingerprint(finite_part(out))


class TestStabilize:
    def test_grows_by_unimodular_block(self):
        p = presentation([[2]], (0,))
        out = apply_move(p, Stabilize(-1))
        assert out.matrix.data == ((2, 0), (0, -1))
        assert out.chern == (0, -1)

    def test_destabilize_inverts(self):
        p = presentation([[2]], (0,))
        assert apply_move(apply_move(p, Stabilize(1)), Destabilize(1)) == p

    def test_preserves_finite_function(self):
        p = presentation([[9]], (9,))
        out = apply_move(p, Stabilize(-1))
        assert invariant_fingerprint(finite_part(p)) == invariant_fingerprint(finite_part(out))


class TestDestabilize:
    def test_odd_decoration_entry_allowed(self):
        # the cancelled entry only needs the right parity, not the exact
        # framing: the difference is a decoration shift supported there
        p = presentation([[2, 0], [0, 1]], (0, 5))
        out = apply_move(p, Destabilize(1))
        assert out == presentation([[2]], (0,))

    def test_rejects_linked_component(self):
        p = presentation([[2, 1], [1, 1]], (0, 1))
        with pytest.raises(MoveError, match="links"):
            apply_move(p, Destabilize(1))

    def test_rejects_wrong_framing(self):
        p = presentation([[2, 0], [0, 3]], (0, 3))
        with pytest.raises(MoveError, match="framing 3"):
            apply_move(p, Destabilize(1))


class TestSlamDunk:
    def test_frozen_chain_example(self):
        p = presentation([[9, 1, 0], [1, 0, 1], [0, 1, 0]], (1, 0, 0))
        out = apply_move(p, SlamDunk(1, 2))
        assert out == presentation([[9]], (1,))

    def test_negative_clasp(self):
        p = presentation([[9, -1], [-1, 0]], (1, 0))
        out = apply_move(p, SlamDunk(0, 1))
        assert out.size == 0

    def test_decoration_correction(self):
        # remaining component 0 links the partner i=1, so its entry moves
        p = presentation([[4, 2, 0], [2, 3, 1], [0, 1, 0]], (4, 3, 2))
        out = apply_move(p, SlamDunk(1, 2))
        assert out.matrix.data == ((4,),)
        assert out.chern == (4 - 1 * 2 * 2,)

    def test_rejects_busy_partner(self):
        p = presentation([[1, 1, 1], [1, 2, 1], [1, 1, 0]], (1, 2, 0))
        with pytest.raises(MoveError, match="also links"):
            apply_move(p, SlamDunk(1, 2))

    def test_rejects_framed_partner(self):
        p = presentation([[9, 1], [1, 2]], (1, 2))
        with pytest.raises(MoveError, match="framing 2"):
            apply_move(p, SlamDunk(0, 1))

    def test_preserves_finite_function(self):
        p = presentation([[9, 1, 0], [1, 0, 1], [0, 1, 0]], (1, 0, 0))
        out = apply_move(p, SlamDunk(1, 2))
        assert invariant_fingerprint(finite_part(p)) == invariant_fingerprint(finite_part(out))


class TestYMove:
    def test_shape_and_decoration(self):
        p = presentation([[2]], (2,))
        out = apply_move(p, YMove((5,), 3))
        assert out.matrix.data == ((2, 5, 0), (5, 3, 1), (0, 1, 0))
        assert out.chern == (2, 3, 0)

    def test_flips_determinant_sign(self):
        p = presentation([[2, 1], [1, 2]], (2, 2))
        out = apply_move(p, YMove((1, -2), 4))
        assert determinant(out.matrix) == -determinant(p.matrix)

    def test_coupling_length_checked(self):
        with pytest.raises(MoveError, match="coupling"):
            apply_move(presentation([[1]], (1,)), YMove((1, 2), 0))

    def test_preserves_finite_function(self):
        p = presentation([[5]], (1,))
        out = apply_move(p, YMove((2,), 6))
        assert invariant_fingerprint(finite_part(p)) == invariant_fingerprint(finite_part(out))


class TestEnumerateMoves:
    def test_counts_on_unimodular_single(self):
        p = presentation([[1]], (1,))
        moves = enumerate_moves(p)
        assert len(moves) == 4
        assert Destabilize(0) in moves

    def test_zero_framed_single(self):
        p = presentation([[0]], (0,))
        moves = enumerate_moves(p)
        assert len(moves) == 3
        assert all(not isinstance(m, (Destabilize, SlamDunk)) for m in moves)

    def test_size_cap_blocks_stabilize(self):
        p = presentation([[1]], (1,))
        moves = enumerate_moves(p, size_cap=1)
        assert all(not isinstance(m, Stabilize) for m in moves)

    def test_slam_dunk_detected(self):
        p = presentation([[9, 1], [1, 0]], (1, 0))
        assert SlamDunk(0, 1) in enumerate_moves(p)


class TestRandomWalk:
    def test_deterministic(self):
        p = presentation([[3, 1], [1, 4]], (3, 4))
        end1, trail1 = random_walk(p, 25, seed=99)
        end2, trail2 = random_walk(p, 25, seed=99)
        assert end1 == end2
        assert trail1 == trail2
        assert len(trail1) == 25

    def test_seed_changes_walk(self):
        p = presentation([[3, 1], [1, 4]], (3, 4))
        _, trail1 = random_walk(p, 25, seed=1)
        _, trail2 = random_walk(p, 25, seed=2)
        assert trail1 != trail2

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_walk_preserves_group_order(self, seed):
        p = presentation([[3, 1], [1, 4]], (3, 4))
        end, _ = random_walk(p, 30, seed=seed)
        assert abs(determinant(end.matrix)) == abs(determinant(p.matrix))

    def test_negative_steps_refused(self):
        p = presentation([[2]], (0,))
        with pytest.raises(ValueError, match="non-negative"):
            random_walk(p, -3, seed=1)
        assert random_walk(p, 0, seed=1) == (p, ())

    def test_size_stays_bounded(self):
        p = presentation([[2]], (0,))
        end, _ = random_walk(p, 60, seed=5, size_cap=6)
        assert end.size <= 6
