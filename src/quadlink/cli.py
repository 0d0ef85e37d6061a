"""Command line front end.

Subcommands:

    invariants   report the invariants of one presentation file
    compare      decide equivalence of two presentation files
    walk         apply a seeded random walk of moves, emit the result
    spins        list spin decorations and their induced functions
    lens-census  count equivalence classes versus homeomorphism classes
    classes      partition all canonical decorations of one matrix

A presentation file is a JSON object with fields, in this order:

    {"matrix": [[...], ...], "chern": [...], "name": "optional"}

Parsing then serializing reproduces the document byte for byte (two
space indent, fixed field order), so files can be piped back in.
Rationals in reports are rendered as reduced "num/den" strings, from
the report's int residues r standing for r/value_modulus; the exact
Gauss sum is an object {"modulus", "coeffs", "approx"} where "approx"
is a 12 significant digit complex rendering for display only, never
an input.

Exit codes:

    0  success (compare: equivalent)
    1  bad input, with a file/line/field diagnostic; a matrix over
       MAX_COMPONENTS components or MAX_ENTRY_BITS bits per entry is
       bad input, and so, for spins, is one with more than
       MAX_SPIN_STRUCTURES spin structures, for lens-census an order
       above MAX_LENS_ORDER, and a command line that does not parse
       or sets --cap below 1
    2  torsion group larger than the order cap, unless compare tells
       the pair apart by free rank, torsion factors or free gcd
    3  compare: inequivalent

Exits 4 and 5 are retired: every verdict is definite, and lens-census
counts every order from 2 to MAX_LENS_ORDER.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, NoReturn, Sequence

from .classify import (
    EQUIVALENT,
    INEQUIVALENT,
    InvariantReport,
    _decide,
    _report,
    _sides,
    invariants_report,
    lens_diffeo_count,
    lens_yc_count,
    yc_classes,
)
from .exact import CyclotomicSum
from .presentation import (
    DecoratedPresentation,
    PresentationError,
    presentation,
    random_walk,
)
from .lattice import wu_classes
from .quadfun import DEFAULT_ORDER_CAP, OrderCapExceeded
from .zlinalg import intmatrix, solve_mod2

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_INEQUIVALENT = 3
# 128 + SIGPIPE, the status a shell reports for a writer killed by a closed pipe
EXIT_CLOSED_PIPE = 141


# The largest matrix the commands accept.  Both limits are checked before
# any Smith elimination, whose cost grows steeply with size and entry
# length: invariants on a slide-scrambled 64-component form with entries
# of up to 32 bits takes about 1 s, and on a random symmetric one with
# 32-bit entries about 2.5 s to its order-cap exit (2-core x86_64,
# CPython 3.11).
MAX_COMPONENTS = 64
MAX_ENTRY_BITS = 32
# spins lists 2^dim decorations, dim <= MAX_COMPONENTS the mod-2 kernel
# dimension, checked first; 12 zero components give 4,096 in about 0.3 s
MAX_SPIN_STRUCTURES = 4096
# lens-census counts in O(p) time and constant memory, checked before
# counting; --p 999999 --q1 1 --q2 1000 takes about 0.45 s and 17 MB
# (2-core x86_64, CPython 3.11)
MAX_LENS_ORDER = 1_000_000


class InputError(Exception):
    """Bad command input; the message carries the diagnostic."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit as bad input (1), not 2, the order-cap exit."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


class _AtLeast(argparse.Action):
    """Stores an int option; a value below const is a usage error."""

    def __call__(
        self, parser: argparse.ArgumentParser, namespace: argparse.Namespace, value: Any, option_string: Any = None
    ) -> None:
        if value < self.const:
            raise argparse.ArgumentError(self, f"must be at least {self.const}, got {value}")
        setattr(namespace, self.dest, value)


def _angles(residues: Sequence[int], modulus: int) -> list[str]:
    """Each residue r as the reduced "a/b" equal to r/modulus (0 is "0/1"), each distinct residue rendered once."""
    rendered = {}
    for r in set(residues):
        g = math.gcd(r, modulus)
        rendered[r] = f"{r // g}/{modulus // g}"
    return [rendered[r] for r in residues]


def _approx(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _gauss_payload(g: CyclotomicSum) -> dict[str, Any]:
    return {
        "modulus": g.modulus,
        "coeffs": list(g.coeffs),
        "approx": _approx(g.approx()),
    }


def report_payload(r: InvariantReport) -> dict[str, Any]:
    return {
        "free_rank": r.free_rank,
        "torsion_factors": list(r.torsion_factors),
        "chern_free_gcd": r.chern_free_gcd,
        "chern_torsion": list(r.chern_torsion),
        "radical_slopes": list(r.radical_slopes),
        "value_multiset": _angles(r.value_multiset, r.value_modulus),
        "defect_multiset": _angles(r.defect_multiset, r.value_modulus),
        "linking_diagonal": _angles(r.linking_diagonal, r.value_modulus),
        "gauss": _gauss_payload(r.gauss),
    }


def presentation_payload(
    p: DecoratedPresentation, name: str | None = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "matrix": [list(row) for row in p.matrix.data],
        "chern": list(p.chern),
    }
    if name is not None:
        doc["name"] = name
    return doc


def dump_document(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _read_document(path: str) -> dict[str, Any]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # text that is not UTF-8, or an integer literal beyond the
        # interpreter's digit limit
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc


def _int_matrix_field(doc: dict[str, Any], path: str) -> list[list[int]]:
    rows = doc.get("matrix")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{path}: field 'matrix' must be a list of rows")
    if len(rows) > MAX_COMPONENTS:
        raise InputError(f"{path}: field 'matrix' has {len(rows)} rows, more than the limit {MAX_COMPONENTS}")
    for r in rows:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"{path}: field 'matrix' must hold integers")
            if x.bit_length() > MAX_ENTRY_BITS:
                raise InputError(
                    f"{path}: field 'matrix' has an entry of {x.bit_length()} bits, more than the limit {MAX_ENTRY_BITS}"
                )
    return rows


def _int_vector_field(doc: dict[str, Any], path: str, field: str) -> list[int]:
    vec = doc.get(field)
    if not isinstance(vec, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in vec
    ):
        raise InputError(f"{path}: field {field!r} must be a list of integers")
    return vec


def load_presentation_file(path: str) -> tuple[DecoratedPresentation, str | None]:
    doc = _read_document(path)
    for field in ("matrix", "chern"):
        if field not in doc:
            raise InputError(f"{path}: missing field {field!r}")
    rows = _int_matrix_field(doc, path)
    chern = _int_vector_field(doc, path, "chern")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{path}: field 'name' must be a string")
    try:
        p = presentation(rows, chern)
    except (PresentationError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return p, name


def load_matrix_file(path: str) -> list[list[int]]:
    doc = _read_document(path)
    if "matrix" not in doc:
        raise InputError(f"{path}: missing field 'matrix'")
    return _int_matrix_field(doc, path)


# (name, getter, stable_only) in the order first_differing_field consults them;
# a stable_only field is decoration sensitive, see InvariantReport.stable_profile.
# torsion_factors comes before every residue multiset, so those are compared
# only over one value modulus
_REPORT_FIELDS = (
    ("free_rank", lambda r: r.free_rank, False),
    ("torsion_factors", lambda r: r.torsion_factors, False),
    ("chern_free_gcd", lambda r: r.chern_free_gcd, False),
    ("linking_diagonal", lambda r: r.linking_diagonal, False),
    ("gauss_sum", lambda r: r.gauss, True),
    ("value_multiset", lambda r: r.value_multiset, True),
    ("defect_multiset", lambda r: r.defect_multiset, True),
)


def first_differing_field(r1: InvariantReport, r2: InvariantReport) -> str | None:
    """The name of the first report field telling the two inputs apart.

    Only fields that are themselves invariants are consulted, and the
    decoration sensitive ones only once both free parts contribute
    nothing (gcd zero); see InvariantReport.stable_profile.
    """
    for field, get, stable_only in _REPORT_FIELDS:
        if stable_only and (r1.chern_free_gcd or r2.chern_free_gcd):
            continue
        if get(r1) != get(r2):
            return field
    return None


def _print_report_text(r: InvariantReport, name: str | None) -> None:
    if name:
        print(f"name               {name}")
    print(f"free rank          {r.free_rank}")
    print(f"torsion factors    {list(r.torsion_factors)}")
    print(f"chern free gcd     {r.chern_free_gcd}")
    print(f"chern torsion      {list(r.chern_torsion)}")
    print(f"radical slopes     {list(r.radical_slopes)}")
    print(f"values             {_angles(r.value_multiset, r.value_modulus)}")
    print(f"defects            {_angles(r.defect_multiset, r.value_modulus)}")
    print(f"linking diagonal   {_angles(r.linking_diagonal, r.value_modulus)}")
    g = r.gauss
    print(f"gauss sum          {_approx(g.approx())} (display only)")
    print(f"gauss exact        modulus {g.modulus}, coeffs {list(g.coeffs)}")


def cmd_invariants(args: argparse.Namespace) -> int:
    p, name = load_presentation_file(args.file)
    r = invariants_report(p, cap=args.cap)
    if args.json:
        doc = report_payload(r)
        if name is not None:
            doc = {"name": name, **doc}
        sys.stdout.write(dump_document(doc))
    else:
        _print_report_text(r, name)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    p1, name1 = load_presentation_file(args.first)
    p2, name2 = load_presentation_file(args.second)
    # one discriminant per side serves the verdict and, when an inequivalent one needs them, both reports
    sides = _sides(p1, p2)
    verdict = _decide(*sides, args.cap)
    label1 = name1 or args.first
    label2 = name2 or args.second
    if verdict.status == EQUIVALENT:
        print(f"Equivalent: {label1} ~ {label2}")
        print(f"  {verdict.reason}")
        if verdict.witness is not None:
            print(f"  witness generator images: {list(verdict.witness.images)}")
        return EXIT_OK
    print(f"Inequivalent: {label1} !~ {label2}")
    print(f"  {verdict.reason}")
    field = None
    if all(side.data.torsion_order <= args.cap for side in sides):  # a report reads every torsion element
        # free rank, torsion factors and free gcd lead _REPORT_FIELDS and need no report
        cheap = zip(_REPORT_FIELDS, *((side.data.free_rank, side.data.torsion_factors, side.free_gcd) for side in sides))
        field = next((f[0] for f, a, b in cheap if a != b), None)
        if field is None:
            field = first_differing_field(*(_report(side, args.cap) for side in sides))
    if field is not None:
        print(f"  first differing invariant: {field}")
    return EXIT_INEQUIVALENT


def cmd_walk(args: argparse.Namespace) -> int:
    p, name = load_presentation_file(args.file)
    try:
        walked, trail = random_walk(p, args.steps, args.seed)
    except ValueError as exc:
        raise InputError(f"{args.file}: {exc}") from exc
    # both reports need the torsion part within the cap, so it is checked before any replay
    sides = _sides(p, walked, args.cap)
    before, after = (_report(side, args.cap) for side in sides)
    preserved = before.stable_profile() == after.stable_profile()
    verdict = _decide(*sides, args.cap)
    doc = {
        "presentation": presentation_payload(walked, name),
        "steps_applied": len(trail),
        "seed": args.seed,
        "certificate": {
            "invariants_preserved": preserved,
            "verdict": verdict.status,
        },
    }
    text = dump_document(doc)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InputError(f"{args.out}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)
    if not preserved or verdict.status == INEQUIVALENT:
        return EXIT_INEQUIVALENT
    return EXIT_OK


def cmd_spins(args: argparse.Namespace) -> int:
    p, name = load_presentation_file(args.file)
    _, kernel = solve_mod2(p.matrix, p.matrix.diagonal())
    if 1 << len(kernel) > MAX_SPIN_STRUCTURES:
        raise InputError(f"{args.file}: 2^{len(kernel)} spin structures, more than the limit {MAX_SPIN_STRUCTURES}")
    wu = wu_classes(p.matrix)
    decorations = [p.matrix.matvec(w) for w in wu]  # those of spin_structures, in its order
    if args.json:
        doc = {
            "count": len(wu),
            "spins": [
                {"wu_class": list(w), "chern": list(d)}
                for w, d in zip(wu, decorations)
            ],
        }
        sys.stdout.write(dump_document(doc))
    else:
        print(f"{len(wu)} spin structure(s)")
        for w, d in zip(wu, decorations):
            print(f"  wu class {list(w)} -> decoration {list(d)}")
    return EXIT_OK


def cmd_lens_census(args: argparse.Namespace) -> int:
    if (args.q1 is None) != (args.q2 is None):
        raise InputError("--q1 and --q2 must be given together")
    if args.p > MAX_LENS_ORDER:
        raise InputError(f"--p {args.p} is more than the limit {MAX_LENS_ORDER}")
    q1 = 1 if args.q1 is None else args.q1
    q2 = 1 if args.q2 is None else args.q2
    try:
        # lens_diffeo_count refuses a bad order or twist before any O(p) work
        diffeo = lens_diffeo_count(args.p, q1, q2)
        yc = lens_yc_count(args.p)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(f"p={args.p}: yc {yc}, diffeo {diffeo}")
    return EXIT_OK


def cmd_classes(args: argparse.Namespace) -> int:
    rows = load_matrix_file(args.file)
    try:
        partition = yc_classes(intmatrix(rows), cap=args.cap)
    except ValueError as exc:
        raise InputError(f"{args.file}: {exc}") from exc
    print(f"{sum(map(len, partition))} decorations, {len(partition)} classes")
    for block in partition:
        print("  " + "  ".join(str(list(v)) for v in block))
    return EXIT_OK


def _add_cap(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cap",
        type=int,
        action=_AtLeast,
        const=1,
        default=DEFAULT_ORDER_CAP,
        help="largest torsion group order handled exactly",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadlink",
        description="degree zero invariants of decorated surgery presentations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="report invariants of one presentation")
    inv.add_argument("file")
    fmt = inv.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", action="store_true")
    _add_cap(inv)
    inv.set_defaults(func=cmd_invariants)

    cmp_ = sub.add_parser("compare", help="decide equivalence of two presentations")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    _add_cap(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    walk = sub.add_parser("walk", help="random walk of moves with a certificate")
    walk.add_argument("file")
    walk.add_argument("--steps", type=int, default=20)
    walk.add_argument("--seed", type=int, default=1)
    walk.add_argument("--out", help="also write the result document here")
    _add_cap(walk)
    walk.set_defaults(func=cmd_walk)

    spins = sub.add_parser("spins", help="spin structures and their decorations")
    spins.add_argument("file")
    spins.add_argument("--json", action="store_true")
    spins.set_defaults(func=cmd_spins)

    lens = sub.add_parser("lens-census", help="class counts for lens spaces")
    lens.add_argument("--p", type=int, required=True)
    lens.add_argument("--q1", type=int)
    lens.add_argument("--q2", type=int)
    lens.set_defaults(func=cmd_lens_census)

    classes = sub.add_parser("classes", help="partition canonical decorations")
    classes.add_argument("file")
    _add_cap(classes)
    classes.set_defaults(func=cmd_classes)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # surface a closed pipe here rather than in the interpreter's final flush
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone: point stdout at os.devnull so that the final
        # flush cannot raise again, and end with no word on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OrderCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
