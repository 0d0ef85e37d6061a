"""End-to-end checks of the command line layer: files, formats, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from quadlink.cli import (
    EXIT_CAP,
    EXIT_CLOSED_PIPE,
    EXIT_EVEN_ORDER,
    EXIT_INEQUIVALENT,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNKNOWN,
    MAX_COMPONENTS,
    MAX_ENTRY_BITS,
    MAX_LENS_ORDER,
    MAX_SPIN_STRUCTURES,
    dump_document,
    first_differing_field,
    load_presentation_file,
    main,
    presentation_payload,
)
import quadlink.classify as classify_module
import quadlink.cli as cli_module
from quadlink.classify import invariants_report
from quadlink.lattice import wu_classes
from quadlink.presentation import HandleSlide, apply_move, presentation, spin_structures
from quadlink.spaces import e8


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_document(doc) if isinstance(doc, dict) else doc)
    return str(path)


def test_presentation_file_round_trip(tmp_path):
    doc = {"matrix": [[0, 1], [1, 0]], "chern": [2, -4], "name": "twist"}
    path = write_doc(tmp_path, "p.json", doc)
    p, name = load_presentation_file(path)
    assert name == "twist"
    again = dump_document(presentation_payload(p, name))
    assert json.loads(again) == doc
    # byte-for-byte stability, including field order
    assert again == (tmp_path / "p.json").read_text()


def test_name_field_is_optional(tmp_path):
    path = write_doc(tmp_path, "p.json", {"matrix": [[2]], "chern": [0]})
    p, name = load_presentation_file(path)
    assert name is None
    assert "name" not in json.loads(dump_document(presentation_payload(p)))


def test_invariants_json_format(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[2]], "chern": [2]})
    assert main(["invariants", path, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["torsion_factors"] == [2]
    assert doc["value_multiset"] == ["0/1", "3/4"]
    assert doc["gauss"]["modulus"] == 4
    assert doc["gauss"]["coeffs"] == [1, -1, 0, 0]
    # approximation is display only and rendered to 12 significant digits
    assert doc["gauss"]["approx"] == "1-1j"


def test_invariants_text_mentions_exact_gauss(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[2]], "chern": [0]})
    assert main(["invariants", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "modulus 4" in out
    assert "display only" in out


def test_compare_projective_pair_names_gauss(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", {"matrix": [[2]], "chern": [0]})
    b = write_doc(tmp_path, "b.json", {"matrix": [[2]], "chern": [2]})
    assert main(["compare", a, b]) == EXIT_INEQUIVALENT
    out = capsys.readouterr().out
    assert "Inequivalent" in out
    assert "gauss_sum" in out


def test_compare_equivalent_reports_witness(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", {"matrix": [[5]], "chern": [5]})
    b = write_doc(tmp_path, "b.json", {"matrix": [[-5]], "chern": [5]})
    assert main(["compare", a, b]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Equivalent" in out
    assert "witness" in out


def test_compare_budget_exhaustion_is_unknown(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", {"matrix": [[0, 0], [0, 2]], "chern": [2, 0]})
    b = write_doc(tmp_path, "b.json", {"matrix": [[0, 0], [0, 2]], "chern": [2, 2]})
    assert main(["compare", a, b, "--budget", "1"]) == EXIT_UNKNOWN
    assert "Unknown" in capsys.readouterr().out
    assert main(["compare", a, b]) == EXIT_OK


def test_compare_cap_exceeded(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", {"matrix": [[9]], "chern": [9]})
    assert main(["compare", a, a, "--cap", "4"]) == EXIT_CAP
    assert "error" in capsys.readouterr().err


def test_invariants_cap_exceeded(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", {"matrix": [[2, 1], [1, 5]], "chern": [0, 1]})
    assert main(["invariants", a, "--cap", "8"]) == EXIT_CAP
    assert "group order 9 exceeds the cap 8" in capsys.readouterr().err
    assert main(["invariants", a, "--cap", "9"]) == EXIT_OK


def test_walk_certificate(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[2]], "chern": [0], "name": "rp"})
    out_path = tmp_path / "walked.json"
    code = main(["walk", path, "--steps", "12", "--seed", "5", "--out", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"] == {"invariants_preserved": True, "verdict": "equivalent"}
    assert doc["seed"] == 5
    assert doc["steps_applied"] == 12
    # the emitted presentation file loads back and matches the start
    start, name = load_presentation_file(path)
    emitted = json.loads(out_path.read_text())["presentation"]
    assert emitted.get("name") == "rp"
    inner = write_doc(tmp_path, "inner.json", emitted)
    p2, _ = load_presentation_file(inner)
    assert invariants_report(start).stable_profile() == invariants_report(p2).stable_profile()


def test_walk_is_deterministic_per_seed(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[3]], "chern": [3]})
    main(["walk", path, "--steps", "9", "--seed", "42"])
    first = capsys.readouterr().out
    main(["walk", path, "--steps", "9", "--seed", "42"])
    assert capsys.readouterr().out == first
    main(["walk", path, "--steps", "9", "--seed", "43"])
    assert capsys.readouterr().out != first


def test_spins_on_circle_bundle(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[0]], "chern": [4]})
    assert main(["spins", path, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2
    assert [s["chern"] for s in doc["spins"]] == [[0], [0]]
    assert sorted(s["wu_class"] for s in doc["spins"]) == [[0], [1]]


def test_spins_text_output(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[3]], "chern": [1]})
    assert main(["spins", path]) == EXIT_OK
    assert "1 spin structure" in capsys.readouterr().out


def test_spins_lists_the_library_decorations(tmp_path, capsys):
    rows = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 0]]
    path = write_doc(tmp_path, "p.json", {"matrix": rows, "chern": [0, 0, 0, 0]})
    assert main(["spins", path, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    p = presentation(rows, [0, 0, 0, 0])
    assert doc["spins"] == [
        {"wu_class": list(w), "chern": list(d.chern)} for w, d in zip(wu_classes(p.matrix), spin_structures(p))
    ]
    assert doc["count"] == 4


def _zero_matrix_doc(components):
    # every vector is in the mod-2 kernel of the zero form: 2^components spin structures
    return {"matrix": [[0] * components for _ in range(components)], "chern": [0] * components}


@pytest.mark.parametrize("components, accepted", [(12, True), (13, False)])
def test_spins_limit(tmp_path, capsys, monkeypatch, components, accepted):
    assert 1 << 12 == MAX_SPIN_STRUCTURES
    calls = []
    monkeypatch.setattr(cli_module, "wu_classes", lambda m: calls.append(m) or wu_classes(m))
    path = write_doc(tmp_path, "p.json", _zero_matrix_doc(components))
    if accepted:
        assert main(["spins", path, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["count"] == MAX_SPIN_STRUCTURES
        assert len(calls) == 1
    else:
        assert main(["spins", path]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: 2^13 spin structures, more than the limit {MAX_SPIN_STRUCTURES}\n"
        assert calls == []


def test_spins_refuses_the_largest_accepted_matrix_quickly(tmp_path):
    # 64 components of zeros would list 2^64 decorations; the timeout
    # turns a regression into a failure instead of a hang
    path = write_doc(tmp_path, "p.json", _zero_matrix_doc(MAX_COMPONENTS))
    proc = subprocess.run(
        [sys.executable, "-m", "quadlink.cli", "spins", path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert "2^64 spin structures" in proc.stderr


def test_lens_census_output(capsys):
    assert main(["lens-census", "--p", "15", "--q1", "1", "--q2", "1"]) == EXIT_OK
    assert "yc 6, diffeo 8" in capsys.readouterr().out


def test_lens_census_defaults_to_unit_framings(capsys):
    assert main(["lens-census", "--p", "15"]) == EXIT_OK
    assert "yc 6, diffeo 8" in capsys.readouterr().out


def test_lens_census_even_order_exit(capsys):
    assert main(["lens-census", "--p", "8"]) == EXIT_EVEN_ORDER
    assert "odd" in capsys.readouterr().err


def test_lens_census_argument_errors(capsys):
    assert main(["lens-census", "--p", "15", "--q1", "2"]) == EXIT_INVALID
    assert main(["lens-census", "--p", "1"]) == EXIT_INVALID
    assert main(["lens-census", "--p", "0"]) == EXIT_INVALID
    assert main(["lens-census", "--p", "-4"]) == EXIT_INVALID
    assert main(["lens-census", "--p", "15", "--q1", "5", "--q2", "1"]) == EXIT_INVALID
    capsys.readouterr()


def test_lens_census_refuses_twists_before_counting(capsys, monkeypatch):
    # 3 divides 999999, so --q1 2 --q2 3 is refused without the O(p) count
    def refuse(p):
        raise AssertionError("counted the orbits of refused twisting parameters")

    monkeypatch.setattr(cli_module, "lens_yc_count", refuse)
    assert main(["lens-census", "--p", "999999", "--q1", "2", "--q2", "3"]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: twisting parameters must be invertible mod p\n"


def test_lens_census_order_limit(capsys, monkeypatch):
    # refused before counting, which takes O(p) time and memory
    counted = []
    monkeypatch.setattr(cli_module, "lens_yc_count", lambda p: counted.append(p) or 1)
    monkeypatch.setattr(cli_module, "lens_diffeo_count", lambda p, q1, q2: 1)
    for p in (MAX_LENS_ORDER + 1, 10**12, 2 * MAX_LENS_ORDER):
        assert main(["lens-census", "--p", str(p)]) == EXIT_INVALID
        assert f"more than the limit {MAX_LENS_ORDER}" in capsys.readouterr().err
    assert counted == []
    assert main(["lens-census", "--p", str(MAX_LENS_ORDER)]) == EXIT_OK
    assert counted == [MAX_LENS_ORDER]
    capsys.readouterr()


# A command line that does not parse is bad input (1); argparse's own 2 is
# the order-cap exit here.  The usage text is argparse's.
@pytest.mark.parametrize(
    "argv, needle",
    [
        (["compare", "a.json"], "the following arguments are required: second"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        (["lens-census", "--p", "x"], "invalid int value: 'x'"),
        (["compare", "a.json", "b.json", "--budget"], "expected one argument"),
        (["invariants", "s3.json", "--cap", "0"], "argument --cap: must be at least 1, got 0"),
        (["compare", "a.json", "b.json", "--budget", "-1"], "argument --budget: must be at least 0, got -1"),
    ],
)
def test_usage_errors_are_bad_input(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: quadlink")
    assert needle in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: quadlink compare")


def test_classes_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", {"matrix": [[9]]})
    assert main(["classes", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "9 decorations, 5 classes" in out


def test_the_primary_split_keeps_the_order_cap(tmp_path, capsys):
    # |G| = 3969 is over the cap, though |G_3| = 81 and |G_7| = 49 are not
    rows = [[63, 0], [0, 63]]
    a = write_doc(tmp_path, "a.json", {"matrix": rows, "chern": [1, 1]})
    b = write_doc(tmp_path, "b.json", {"matrix": rows, "chern": [3, 1]})
    assert main(["compare", a, b, "--cap", "1000"]) == EXIT_CAP
    assert capsys.readouterr().err == "error: group order 3969 exceeds the cap 1000\n"
    assert main(["classes", a, "--cap", "1000"]) == EXIT_CAP
    assert capsys.readouterr().err == "error: group order 3969 exceeds the cap 1000\n"


def _count_canonical_calls(monkeypatch):
    # yc_classes enumerates through the private helper, which takes the
    # decoration count it has already checked against the cap
    calls = []
    original = classify_module._canonical_chern_vectors

    def counted(matrix, count):
        calls.append(matrix)
        return original(matrix, count)

    monkeypatch.setattr(classify_module, "_canonical_chern_vectors", counted)
    return calls


def test_classes_checks_the_cap_before_enumerating(tmp_path, capsys, monkeypatch):
    calls = _count_canonical_calls(monkeypatch)
    path = write_doc(tmp_path, "m.json", {"matrix": [[300000]]})
    assert main(["classes", path]) == EXIT_CAP
    assert capsys.readouterr().err == "error: group order 300000 exceeds the cap 10000\n"
    assert calls == []


def test_classes_enumerates_decorations_once(tmp_path, capsys, monkeypatch):
    calls = _count_canonical_calls(monkeypatch)
    path = write_doc(tmp_path, "m.json", {"matrix": [[9]]})
    assert main(["classes", path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("9 decorations, 5 classes\n")
    assert len(calls) == 1


def test_classes_rejects_degenerate_matrix(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", {"matrix": [[0, 0], [0, 2]]})
    assert main(["classes", path]) == EXIT_INVALID
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({"matrix": [[2]]}, "chern"),
        ({"chern": [0]}, "matrix"),
        ({"matrix": [[2]], "chern": [1]}, "parity"),
        ({"matrix": [[2]], "chern": [0], "name": 7}, "name"),
        ({"matrix": [[2.5]], "chern": [2]}, "matrix"),
        ({"matrix": [[1, 0], [0, 1]], "chern": [1]}, "entries"),
    ],
)
def test_validation_diagnostics(tmp_path, capsys, doc, needle):
    path = write_doc(tmp_path, "bad.json", doc)
    assert main(["invariants", path]) == EXIT_INVALID
    assert needle in capsys.readouterr().err


def test_syntax_error_diagnostic_names_line(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", '{"matrix": [[2]],\n "chern": [0,}\n')
    assert main(["invariants", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "bad.json:2" in err


def test_missing_file_diagnostic(tmp_path, capsys):
    assert main(["invariants", str(tmp_path / "absent.json")]) == EXIT_INVALID
    assert "absent.json" in capsys.readouterr().err


def test_integer_beyond_the_digit_limit(tmp_path, capsys):
    # CPython 3.11 refuses integer literals over 4300 digits with a plain
    # ValueError; without that limit the entry parses, and the entry size
    # limit refuses it
    path = write_doc(tmp_path, "huge.json", '{"matrix": [[' + "2" * 4400 + ']], "chern": [0]}')
    assert main(["invariants", path]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def _sized_matrix(components, corner):
    # unimodular for any corner: the top-left 2x2 block [[corner, 1], [1, 0]]
    # has determinant -1, and the rest is the identity
    rows = [[1 if i == j else 0 for j in range(components)] for i in range(components)]
    rows[0][:2] = [corner, 1]
    rows[1][:2] = [1, 0]
    return rows


@pytest.mark.parametrize(
    "components, corner, accepted",
    [
        (MAX_COMPONENTS, 0, True),
        (MAX_COMPONENTS + 1, 0, False),
        (2, 2**MAX_ENTRY_BITS - 1, True),
        (2, -(2**MAX_ENTRY_BITS - 1), True),
        (2, 2**MAX_ENTRY_BITS, False),
        (2, -(2**MAX_ENTRY_BITS), False),
    ],
)
def test_matrix_size_limits(tmp_path, capsys, components, corner, accepted):
    rows = _sized_matrix(components, corner)
    chern = [rows[i][i] % 2 for i in range(components)]
    path = write_doc(tmp_path, "p.json", {"matrix": rows, "chern": chern})
    matrix_only = write_doc(tmp_path, "m.json", {"matrix": rows})
    if accepted:
        assert main(["invariants", path]) == EXIT_OK
    else:
        for argv in (["invariants", path], ["classes", matrix_only]):
            assert main(argv) == EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith(f"error: {argv[1]}: field 'matrix' has ")
            assert "more than the limit" in err


def test_non_utf8_file_diagnostic(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"matrix": [[2]], "chern": [0], "name": "\xe9"}')
    assert main(["invariants", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("command", ["invariants", "classes"])
def test_deeply_nested_json_diagnostic(tmp_path, capsys, command):
    # the decoder recurses once per level, so this nesting exceeds the interpreter's limit
    path = write_doc(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert main([command, path]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"


def test_walk_to_a_missing_directory(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[2]], "chern": [0]})
    out_path = tmp_path / "missing" / "walked.json"
    assert main(["walk", path, "--out", str(out_path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out_path}: ")


def test_walk_refuses_negative_steps(tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {"matrix": [[2]], "chern": [0]})
    assert main(["walk", path, "--steps", "-3"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: a walk needs a non-negative number of steps, got -3\n"


def test_differing_field_order_prefers_structure():
    r1 = invariants_report(presentation([[9]], [9]))
    r2 = invariants_report(presentation([[3]], [3]))
    assert first_differing_field(r1, r2) == "torsion_factors"
    assert first_differing_field(r1, r1) is None


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quadlink.cli", "lens-census", "--p", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "yc 3" in proc.stdout


def test_a_closed_stdout_ends_a_command_quietly(tmp_path):
    # the [[8192]] census lists about 75 KB, past a 64 KiB pipe buffer, so
    # the writer meets the closed pipe while printing, not only at exit
    path = write_doc(tmp_path, "l.json", {"matrix": [[8192]]})
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadlink.cli", "classes", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"8192 decorations, 3073 classes\n"
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    # no traceback, and no other word either
    assert (status, err) == (EXIT_CLOSED_PIPE, b"")


def _free_block_sum(c_zeros):
    """E8 + H + 0 + 0, decorated by c_zeros on the two 0-framed unknots."""
    rows = [[0] * 12 for _ in range(12)]
    for i, row in enumerate(e8().data):
        rows[i][:8] = row
    rows[8][9] = rows[9][8] = 1
    return presentation(rows, (2, 0, 0, -2, 0, 0, 0, 0, 0, 2) + tuple(c_zeros))


def _slid_file(p):
    """The matrix and decoration of p after a fixed sequence of handle slides."""
    for i, j, sign in ((10, 0, 1), (3, 10, -1), (11, 9, 1), (1, 11, 1), (10, 8, -1), (5, 11, -1), (8, 3, 1), (11, 2, -1)):
        p = apply_move(p, HandleSlide(i, j, sign))
    return _file(p)


def _file(p):
    return [list(row) for row in p.matrix.data], list(p.chern)


# Full stdout and exit code of the report and decision commands, pinned
# byte for byte: one input per regime (finite cyclic, finite with two
# generators, mixed with nonzero free-covector evaluations, mixed with a
# vanishing free decoration, torsion free), the chain of the lens space L(30, 7), whose
# residues in units of 1/60 reduce to many denominators, a mixed sweep pair at the default budget
# and at one the sweep exhausts, an inequivalent pair from the sweep and
# one from its radical-blind branch, a torsion-free pair of each verdict, and a census.
EXPECTED_CLI = Path(__file__).parent / "expected_cli"
TWISTED_A = [[-3, 1, 2, 1], [1, 2, 0, 1], [2, 0, -2, -2], [1, 1, -2, -3]]
MIXED = [[0, 0], [0, 2]]
LENS_30_7 = [[5, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 3]]
# slopes (2, 3) on the kernel, so chern free gcd 2; slopes (2, 4) give gcd 4
FREE = _slid_file(_free_block_sum((4, 6)))
PINNED_CLI = [
    ("invariants_z2", {"p.json": ([[2]], [0])}, ["invariants", "p.json"], EXIT_OK),
    ("invariants_z2_json", {"p.json": ([[2]], [0])}, ["invariants", "p.json", "--json"], EXIT_OK),
    ("invariants_z3_z15", {"p.json": ([[9, 3], [3, 6]], [1, 0])}, ["invariants", "p.json"], EXIT_OK),
    ("invariants_z3_z15_json", {"p.json": ([[9, 3], [3, 6]], [1, 0])}, ["invariants", "p.json", "--json"], EXIT_OK),
    ("invariants_twisted", {"p.json": (TWISTED_A, [1, -4, -2, 5])}, ["invariants", "p.json"], EXIT_OK),
    ("invariants_twisted_json", {"p.json": (TWISTED_A, [1, -4, -2, 5])}, ["invariants", "p.json", "--json"], EXIT_OK),
    ("invariants_lens_30_7", {"p.json": (LENS_30_7, [1, 2, 0, -1])}, ["invariants", "p.json"], EXIT_OK),
    ("invariants_lens_30_7_json", {"p.json": (LENS_30_7, [1, 2, 0, -1])}, ["invariants", "p.json", "--json"], EXIT_OK),
    ("invariants_mixed_blind", {"p.json": (MIXED, [0, 0])}, ["invariants", "p.json"], EXIT_OK),
    ("invariants_mixed_blind_json", {"p.json": (MIXED, [0, 0])}, ["invariants", "p.json", "--json"], EXIT_OK),
    ("compare_mixed", {"a.json": (MIXED, [2, 0]), "b.json": (MIXED, [2, 2])}, ["compare", "a.json", "b.json"], EXIT_OK),
    (
        "compare_mixed_budget_5",
        {"a.json": (MIXED, [2, 0]), "b.json": (MIXED, [2, 2])},
        ["compare", "a.json", "b.json", "--budget", "5"],
        EXIT_UNKNOWN,
    ),
    ("compare_mixed_split", {"a.json": (MIXED, [4, 0]), "b.json": (MIXED, [4, 2])}, ["compare", "a.json", "b.json"], EXIT_INEQUIVALENT),
    (
        "compare_mixed_blind_gauss",
        {"a.json": ([[0, 0], [0, 4]], [0, 0]), "b.json": ([[0, 0], [0, 4]], [0, 4])},
        ["compare", "a.json", "b.json"],
        EXIT_INEQUIVALENT,
    ),
    ("invariants_free", {"p.json": FREE}, ["invariants", "p.json"], EXIT_OK),
    ("invariants_free_json", {"p.json": FREE}, ["invariants", "p.json", "--json"], EXIT_OK),
    (
        "compare_free",
        {"a.json": FREE, "b.json": _file(_free_block_sum((4, 6)))},
        ["compare", "a.json", "b.json"],
        EXIT_OK,
    ),
    (
        "compare_free_gcd",
        {"a.json": FREE, "b.json": _file(_free_block_sum((4, 8)))},
        ["compare", "a.json", "b.json"],
        EXIT_INEQUIVALENT,
    ),
    ("classes_z3_z15", {"m.json": ([[9, 3], [3, 6]], None)}, ["classes", "m.json"], EXIT_OK),
]


@pytest.mark.parametrize("name, files, args, code", PINNED_CLI, ids=[case[0] for case in PINNED_CLI])
def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys, name, files, args, code):
    monkeypatch.chdir(tmp_path)
    for file_name, (matrix, chern) in files.items():
        write_doc(tmp_path, file_name, {"matrix": matrix} if chern is None else {"matrix": matrix, "chern": chern})
    assert main(args) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((EXPECTED_CLI / f"{name}.txt").read_text(), "")
