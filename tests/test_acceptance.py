"""Top-level acceptance checks, one test per numbered criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail
line per criterion; each test also prints its own summary line.
Timing ceilings are asserted where the criterion carries one.
"""

import itertools
import random
import time
from fractions import Fraction

from quadlink.classify import (
    EQUIVALENT,
    INEQUIVALENT,
    canonical_chern_vectors,
    invariants_report,
    lens_diffeo_count,
    lens_yc_count,
    yc_classes,
    yc_equivalent,
)
from quadlink.cli import EXIT_INEQUIVALENT, dump_document, main
from quadlink.lattice import discriminant, is_characteristic, wu_classes
from quadlink.presentation import (
    YMove,
    apply_move,
    presentation,
    random_walk,
    spin_structures,
)
from quadlink.quadfun import FiniteAbelianGroup, QuadraticFunction
from quadlink.spaces import e8, lens, rp3, s2xs1, s3, t3
from quadlink.zlinalg import determinant, intmatrix

from oracles import cyclo_from_angles, gauss_sum, phi_eval, torsion_lift, yc_equivalent_by_pairing

# shared matrix corpus; |det| spans 0, +-1 and a spread of torsion sizes
CORPUS_MATRICES = [
    [[1]],
    [[2]],
    [[3]],
    [[5]],
    [[9]],
    [[25]],
    [[0]],
    [[0, 1], [1, 0]],
    [[2, 1], [1, 2]],
    [[3, -1], [-1, 2]],
    [[2, 0], [0, 4]],
    [[3, 0], [0, 9]],
    [[0, 0], [0, 2]],
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    e8().data,
]


def _det(rows) -> int:
    return determinant(intmatrix(rows))


def _mod2_kernel_dim(rows) -> int:
    a = [[x % 2 for x in row] for row in rows]
    n = len(a)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(n):
            if r != rank and a[r][col]:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[rank])]
        rank += 1
    return n - rank


def _random_symmetric(rng: random.Random, n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-4, 4)
            rows[i][j] = v
            rows[j][i] = v
    return rows


def _random_chern(rng: random.Random, rows) -> tuple[int, ...]:
    return tuple(rows[i][i] + 2 * rng.randint(-3, 3) for i in range(len(rows)))


def test_criterion_01_projective_pair_distinguished(tmp_path, capsys):
    t0 = time.monotonic()
    data = discriminant(intmatrix([[2]]))
    group = FiniteAbelianGroup(data.torsion_factors)
    plus = QuadraticFunction.from_callable(
        group, lambda w: phi_eval(data, (0,), torsion_lift(data, w))
    )
    minus = QuadraticFunction.from_callable(
        group, lambda w: phi_eval(data, (2,), torsion_lift(data, w))
    )
    one_plus_i = cyclo_from_angles([Fraction(0), Fraction(1, 4)])
    one_minus_i = cyclo_from_angles([Fraction(0), Fraction(3, 4)])
    assert gauss_sum(plus) == one_plus_i
    assert gauss_sum(minus) == one_minus_i
    # normalized phases are the primitive eighth roots: gamma^2 = 2 i^{+-1}
    assert one_plus_i * one_plus_i == cyclo_from_angles([Fraction(1, 4)]) * 2
    assert one_minus_i * one_minus_i == cyclo_from_angles([Fraction(3, 4)]) * 2
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dump_document({"matrix": [[2]], "chern": [0]}))
    b.write_text(dump_document({"matrix": [[2]], "chern": [2]}))
    assert main(["compare", str(a), str(b)]) == EXIT_INEQUIVALENT
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: projective pair 1+i vs 1-i ({elapsed:.2f}s)")


def test_criterion_02_circle_bundle_census():
    t0 = time.monotonic()
    vectors = [(s,) for s in range(-6, 7, 2)]
    partition = yc_classes(intmatrix([[0]]), vectors)
    got = {frozenset(block) for block in partition}
    want = {
        frozenset({(0,)}),
        frozenset({(2,), (-2,)}),
        frozenset({(4,), (-4,)}),
        frozenset({(6,), (-6,)}),
    }
    assert got == want
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 2 PASS: circle bundle classes 0, +-2, +-4, +-6 ({elapsed:.2f}s)")


def test_criterion_03_lens_census_cross_oracle():
    t0 = time.monotonic()
    for p in range(3, 26, 2):
        partition = yc_classes(lens(p, 1))
        assert len(partition) == lens_yc_count(p), f"p={p}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 3 PASS: lens partition sizes match for odd p <= 25 ({elapsed:.2f}s)")


def test_criterion_04_fifteen_counterexample():
    t0 = time.monotonic()
    diffeo = lens_diffeo_count(15, 1, 1)
    yc = lens_yc_count(15)
    assert (diffeo, yc) == (8, 6)
    assert yc < diffeo
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 4 PASS: p=15 counts 8 homeomorphism vs 6 equivalence ({elapsed:.2f}s)")


def test_criterion_05_route_agreement_on_random_sphere_pairs():
    t0 = time.monotonic()
    rng = random.Random(50_2026)
    pool = []
    while len(pool) < 60:
        n = rng.choice([1, 1, 2, 2, 3])
        rows = _random_symmetric(rng, n)
        d = _det(rows)
        if d == 0 or abs(d) > 100:
            continue
        pool.append(presentation(rows, _random_chern(rng, rows)))
    pairs = []
    for p in pool:  # same-matrix pairs, biased toward equivalent verdicts
        q = presentation(p.matrix.data, _random_chern(rng, p.matrix.data))
        pairs.append((p, q))
    while len(pairs) < 210:
        pairs.append((rng.choice(pool), rng.choice(pool)))
    checked = 0
    for p, q in pairs:
        via_functions = yc_equivalent(p, q)
        via_pairing = yc_equivalent_by_pairing(p, q)
        assert via_functions.status == via_pairing.status, (
            p.matrix.data,
            p.chern,
            q.matrix.data,
            q.chern,
        )
        assert via_functions.status in (EQUIVALENT, INEQUIVALENT)
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 200
    assert elapsed < 300.0
    print(f"criterion 5 PASS: both routes agree on {checked} sphere pairs ({elapsed:.2f}s)")


WALK_CORPUS = [
    presentation(s3().data, [1]),
    presentation(rp3().data, [0]),
    presentation([[3]], [3]),
    presentation([[7]], [7]),
    presentation(s2xs1().data, [2]),
    presentation([[0, 0], [0, 2]], [2, 0]),
    presentation(lens(5, 2).data, [3, 2]),
    presentation([[2, 0], [0, 4]], [0, 2]),
    presentation([[0, 1], [1, 0]], [0, 0]),
    presentation(t3().data, [0, 0, 0]),
]


def test_criterion_06_move_invariance_under_seeded_walks():
    t0 = time.monotonic()
    for seed in range(100):
        start = WALK_CORPUS[seed % len(WALK_CORPUS)]
        walked, trail = random_walk(start, steps=40, seed=seed)
        assert len(trail) == 40
        before = invariants_report(start)
        after = invariants_report(walked)
        assert before.stable_profile() == after.stable_profile(), seed
        verdict = yc_equivalent(start, walked)
        assert verdict.status == EQUIVALENT, (seed, verdict.reason)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 6 PASS: 100 walks of 40 moves preserve everything ({elapsed:.2f}s)")


def test_criterion_07_bordered_pair_invariance():
    t0 = time.monotonic()
    rng = random.Random(7_2026)
    for idx, start in enumerate(WALK_CORPUS):
        reference = WALK_CORPUS[(idx + 1) % len(WALK_CORPUS)]
        base_verdict = yc_equivalent(start, reference)
        base_report = invariants_report(start)
        for _ in range(5):
            coupling = tuple(rng.randint(-3, 3) for _ in range(start.size))
            framing = rng.randint(-4, 4)
            moved = apply_move(start, YMove(coupling, framing))
            report = invariants_report(moved)
            assert report.stable_profile() == base_report.stable_profile()
            assert yc_equivalent(start, moved).status == EQUIVALENT
            assert yc_equivalent(moved, reference).status == base_verdict.status
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 7 PASS: bordered pairs change no verdict or profile ({elapsed:.2f}s)")


def test_criterion_08_decorations_embed_into_functions():
    count = 0
    for rows in CORPUS_MATRICES:
        d = _det(rows)
        if d == 0 or abs(d) > 30:
            continue
        m = intmatrix(rows)
        data = discriminant(m)
        elements = list(FiniteAbelianGroup(data.torsion_factors).elements())
        tables = []
        for c in canonical_chern_vectors(m):
            tables.append(
                tuple(phi_eval(data, c, torsion_lift(data, w)) for w in elements)
            )
        for t1, t2 in itertools.combinations(tables, 2):
            assert t1 != t2
        count += len(tables)
    assert count > 0
    print(f"criterion 8 PASS: {count} canonical decorations, pairwise distinct functions")


def test_criterion_09_gauss_modulus_squares_to_group_order():
    checked = 0
    for rows in CORPUS_MATRICES:
        m = intmatrix(rows)
        data = discriminant(m)
        order = data.torsion_order
        if order > 200:
            continue
        d = _det(rows)
        vectors = (
            canonical_chern_vectors(m)
            if d != 0 and abs(d) <= 30
            else [tuple(rows[i][i] for i in range(len(rows)))]
        )
        for c in vectors:
            g = invariants_report(presentation(rows, c)).gauss
            assert g * g.conjugate() == cyclo_from_angles([Fraction(0)]) * order
            checked += 1
    assert checked > 30
    print(f"criterion 9 PASS: |gauss|^2 = group order for {checked} functions")


def test_criterion_10_spin_set_size_and_images():
    for rows in CORPUS_MATRICES:
        m = intmatrix(rows)
        p = presentation(rows, [m.data[i][i] for i in range(m.rows)])
        wu = wu_classes(m)
        assert len(wu) == 2 ** _mod2_kernel_dim(rows)
        for spun in spin_structures(p):
            assert is_characteristic(m, spun.chern)
            report = invariants_report(spun)
            # a vanishing defect: every residue is 0
            assert all(v == 0 for v in report.defect_multiset)
            assert all(s == 0 for s in report.radical_slopes)
    print("criterion 10 PASS: spin counts and homogeneous images check out")
