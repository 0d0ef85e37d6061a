"""Closed-loop benchmark of quadlink: one process, one thread, one operation at a time.

    python3 bench/run.py --workload report --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all

A run builds its workload's inputs from the seed, warms up, then makes
passes over the workload's fixed list of operations until ``--seconds``
is used up.  Every answer is checked against an oracle after the pass,
outside the timed region; a wrong answer ends the run with exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, then makes one count-only pass, and reports
the per-layer metrics (see README.md).  The last line of standard
output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it,
``record {...}``, carries the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from spans import LAYERS, CountProbe, SpanProbe, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("report", "decide", "wide")
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
SETUP_OP = -1  # operation id of spans recorded while the inputs are built

# The CPU speed of a shared host drifts by a third within seconds, so
# every end-to-end time is scaled to a reference speed: an operation's
# latency is multiplied by CAL_REF over the mean time of a fixed kernel
# (``calibrate``) run just before and just after it.  The kernel takes
# CAL_REF seconds at the reference speed.  It never calls the library,
# so a change to the library moves only the measured latency.  Raw
# times stay in the record.
CAL_REF = 1.5e-3

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "definite_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

FUNCTION_STATS = {
    "zlinalg.smith_normal_form": ("calls", "self_ms", "max_transform_bits"),
    "zlinalg.determinant": ("calls", "self_ms"),
    "lattice.discriminant": ("calls", "self_ms"),
    "lattice.phi_eval": ("calls", "self_ms"),
    "lattice.radical_slope": ("calls",),
    "lattice.chern_coordinates": ("calls",),
    "quadfun.QuadraticFunction.from_callable": ("calls", "elements", "self_ms"),
    "quadfun.invariant_fingerprint": ("calls", "self_ms"),
    "quadfun.defect_of": ("calls",),
    "quadfun.is_isomorphic": ("calls", "found", "self_ms"),
    "exact.cyclo_from_angles": ("calls", "angles", "self_ms"),
    "exact.CyclotomicSum.canonical": ("calls", "self_ms"),
    "exact.cyclo_equals": ("calls", "equal", "self_ms"),
    "classify.invariants_report": ("calls", "self_ms"),
    "classify.yc_classes": ("calls", "self_ms"),
    "classify.canonical_chern_vectors": ("calls", "self_ms"),
    "classify.yc_equivalent": ("calls", "self_ms"),
    "presentation.random_walk": ("calls", "self_ms"),
}
STAT_UNITS = {"self_ms": "ms", "max_transform_bits": "bits"}
COUNTERS = (
    "exact.QmodZ.created",
    "classify.verdict.equivalent",
    "classify.verdict.inequivalent",
    "classify.verdict.unknown",
)


PER_LAYER = {
    **{f"{fn}.{stat}": STAT_UNITS.get(stat, "count") for fn, stats in FUNCTION_STATS.items() for stat in stats},
    **{name: "count" for name in COUNTERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_share": "ratio",
}


_CAL_VECTORS = [tuple(Fraction((7 * i + 3 * k) % 101 - 50, 1 + (5 * i + k) % 60) for k in range(12)) for i in range(40)]


def calibrate() -> float:
    """Seconds taken by a fixed kernel that never calls the library.

    It mimics the library's two hot paths: dot products of rational
    vectors and row operations on big integers.
    """
    started = time.perf_counter()
    total = Fraction(0)
    for a, b in zip(_CAL_VECTORS, _CAL_VECTORS[1:]):
        total += sum((x * y for x, y in zip(a, b)), start=Fraction(0))
    rows = [[i * 3**k for k in range(8)] for i in range(1, 9)]
    for t in range(40):
        i, j = t % 8, (3 * t + 1) % 8
        if i != j:
            rows[i] = [x - 5 * y for x, y in zip(rows[i], rows[j])]
    return time.perf_counter() - started


def speed_samples() -> list[float]:
    return [calibrate() for _ in range(5)]


def scaled(raw: float, kernel_times: list[float]) -> float:
    """A raw duration expressed at the reference speed."""
    return raw * CAL_REF / statistics.median(kernel_times)


@dataclass
class PassTiming:
    raw: list[float]  # per-operation latency in seconds, as measured
    scaled: list[float]  # the same at the reference speed
    elapsed: float  # seconds the pass took, kernel runs included, checks excluded

    @property
    def wall(self) -> float:
        return sum(self.scaled)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


class Session:
    """Inputs of one workload and the answers already checked for them."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ops = workload.ops
        self.reference: list = [None] * len(self.ops)
        self.definite: list = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.definite_count = 0

    def run_pass(self, probe=None) -> PassTiming:
        """Time every operation once, between runs of the kernel, then check the answers."""
        latencies, kernel, outcomes = [], [], []
        started = time.perf_counter()
        for op_id, op in enumerate(self.ops):
            kernel.append(calibrate())
            t0 = time.perf_counter()
            try:
                if probe is None:
                    outcome = (op.run(), None)
                else:
                    with probe.operation(op_id):
                        outcome = (op.run(), None)
            except Exception as exc:  # a raising operation is a counted failure, not a crash
                outcome = (None, exc)
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        kernel.append(calibrate())
        elapsed = time.perf_counter() - started
        self.check(outcomes)
        return PassTiming(latencies, [scaled(lat, kernel[i : i + 2]) for i, lat in enumerate(latencies)], elapsed)

    def check(self, outcomes: list) -> None:
        from workloads import WrongAnswer

        for i, (op, (result, exc)) in enumerate(zip(self.ops, outcomes)):
            self.attempted += 1
            if exc is not None:
                self.failed += 1
                print(f"failed: {op.label}: {exc!r}", file=sys.stderr)
                continue
            if self.reference[i] is None:
                self.definite[i] = op.check(result)
                self.reference[i] = result
            elif result != self.reference[i]:
                raise WrongAnswer(f"{op.label}: answer changed between passes")
            self.definite_count += self.definite[i]


def build(name: str, seed: int):
    import workloads

    return workloads.BUILDERS[name](seed)


def load(name: str, seed: int) -> Session:
    """Import the library, build the inputs and warm up on each stratum's first operation."""
    session = Session(build(name, seed))
    seen = set()
    for op in session.ops:
        if op.stratum not in seen:
            seen.add(op.stratum)
            op.check(op.run())
    return session


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Interpreter start to first operation in fresh processes: (raw, scaled) seconds."""
    raw, out = [], []
    for _ in range(SETUP_SAMPLES):
        kernel = speed_samples()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {name} failed in a child process")
        raw.append(t1 - t0)
        out.append(scaled(t1 - t0, kernel + speed_samples()))
    return raw, out


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(session, seed: int) -> dict:
    return {
        "workload": session.workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "ops_per_stratum": session.workload.strata(),
    }


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict, Session]:
    session = load(name, seed)
    passes: list[PassTiming] = []
    started = time.perf_counter()
    while True:
        passes.append(session.run_pass())
        if time.perf_counter() - started + statistics.median(p.elapsed for p in passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_raw, setup = measure_setup(name, seed)
    op_ms = [lat * 1000 for p in passes for lat in p.scaled]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "definite_share": session.definite_count / session.attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_raw_wall_s": [p.raw_wall for p in passes],
        "latency_samples": len(op_ms),
        "latency_note": "every operation of every pass; p90 has latency_samples/10 samples above it",
        "setup_samples_s": setup,
        "setup_raw_samples_s": setup_raw,
        "trace_overhead": None,
    }
    return metrics, notes, session


def span_pass(name: str, seed: int, session: Session) -> tuple[PassTiming, Any]:
    """One pass with every layer call timed; set-up is rebuilt under the probe."""
    probe = SpanProbe()
    with instrument(probe):
        with probe.operation(SETUP_OP):
            build(name, seed)
        timing = session.run_pass(probe)
    return timing, probe


def count_pass(name: str, seed: int, session: Session):
    """One pass, set-up included, with the work counters and no clock."""
    counter = CountProbe()
    with instrument(counter):
        with counter.operation(SETUP_OP):
            build(name, seed)
        session.run_pass(counter)
    return counter


def layer_metrics(counter, probe, timing: PassTiming) -> dict[str, float]:
    """Per-layer values for set-up plus one pass.

    Self times are scaled by the pass's average speed factor; a layer's
    share is its self time in the pass over the pass's operation time.
    """
    pass_times = probe.self_times(set(range(len(timing.raw))))
    setup_times = probe.self_times({SETUP_OP})
    to_ms = 1000 * timing.wall / timing.raw_wall
    metrics: dict[str, float] = {}
    for fn, stats in FUNCTION_STATS.items():
        for stat in stats:
            if stat == "self_ms":
                value = (pass_times.get(fn, (0, 0.0))[1] + setup_times.get(fn, (0, 0.0))[1]) * to_ms
            elif stat == "max_transform_bits":
                value = counter.max_transform_bits
            else:
                value = counter.counts.get(f"{fn}.{stat}", 0)
            metrics[f"{fn}.{stat}"] = value
    for key in COUNTERS:
        metrics[key] = counter.counts.get(key, 0)
    for layer in LAYERS:
        layer_self = sum(t for fn, (_, t) in pass_times.items() if fn.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = layer_self / timing.raw_wall
    return metrics


def top_spans(session: Session, probe, timing: PassTiming) -> dict[str, dict]:
    """The function with the most self time within each stratum."""
    strata: dict[str, set[int]] = {}
    for op_id, op in enumerate(session.ops):
        strata.setdefault(op.stratum, set()).add(op_id)
    top = {}
    for stratum, ids in strata.items():
        fn, (_, t) = max(probe.self_times(ids).items(), key=lambda kv: kv[1][1])
        top[stratum] = {"span": fn, "self_ms": t * 1000, "ops_ms": sum(timing.raw[i] for i in ids) * 1000}
    return top


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, dict, Session]:
    session = load(name, seed)
    untraced: list[PassTiming] = []
    traced: list[tuple[PassTiming, Any]] = []
    started = time.perf_counter()
    while True:
        untraced.append(session.run_pass())
        traced.append(span_pass(name, seed, session))
        if time.perf_counter() - started + untraced[-1].elapsed + traced[-1][0].elapsed > seconds:
            break
    counter = count_pass(name, seed, session)

    timing, probe = sorted(traced, key=lambda t: t[0].wall)[(len(traced) - 1) // 2]
    metrics = layer_metrics(counter, probe, timing)
    metrics["trace.overhead_share"] = (
        statistics.median(t.wall for t, _ in traced) / statistics.median(t.wall for t in untraced) - 1
    )
    notes = {
        "traced_passes": len(traced),
        "untraced_wall_s": [t.wall for t in untraced],
        "traced_wall_s": [t.wall for t, _ in traced],
        "trace_overhead": metrics["trace.overhead_share"],
        "spans_in_median_pass": len(probe.spans),
        "top_self_span_per_stratum": top_spans(session, probe, timing),
        "counts": dict(sorted(counter.counts.items())),
    }
    return metrics, notes, session


def run_one(args) -> int:
    from workloads import WrongAnswer

    runner = traced_run if args.trace else timed_run
    try:
        metrics, notes, session = runner(args.workload, args.seed, args.seconds)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        **provenance(session, args.seed),
        "trace": args.trace,
        "failed_share": 1 - session.definite_count / session.attempted,
        **notes,
        "metrics": metrics,
    }
    for key, value in metrics.items():
        print(f"{args.workload:7s} {key:48s} {value:14.6g} {units[key]}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": True,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed; 99 is held out for confirming gains")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "quadlink" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'quadlink'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        load(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
