"""Checks of the benchmark itself: repeatable counters and the intended layer split.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
Each workload is traced twice and counted twice on the default seed
(about two minutes on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

SEED = run.DEFAULT_SEED
_passes: dict[str, dict] = {}


def measured(name: str) -> dict:
    if name not in _passes:
        _passes[name] = _measure(name)
    return _passes[name]


def _measure(name: str) -> dict:
    """Two traced and two count-only passes of one workload."""
    session = run.Session(run.build(name, SEED))
    traced = [run.span_pass(name, SEED, session) for _ in range(2)]
    counted = [run.count_pass(name, SEED, session) for _ in range(2)]
    timing, probe = traced[0]
    return {
        "name": name,
        "session": session,
        "traced": traced,
        "counted": counted,
        "metrics": run.layer_metrics(counted[0], probe, timing),
    }


@pytest.fixture(params=run.WORKLOADS)
def passes(request):
    return measured(request.param)


def _calls(probe) -> dict[str, int]:
    return {fn: calls for fn, (calls, _) in probe.self_times().items()}


def test_counters_repeat_exactly(passes):
    first, second = passes["counted"]
    assert first.counts == second.counts
    assert first.max_transform_bits == second.max_transform_bits
    traced_calls = [_calls(probe) for _, probe in passes["traced"]]
    assert traced_calls[0] == traced_calls[1]
    counted_calls = {k[: -len(".calls")]: v for k, v in first.counts.items() if k.endswith(".calls")}
    assert traced_calls[0] == counted_calls


def test_layer_split(passes):
    m = passes["metrics"]
    name = passes["name"]
    if name == "report":
        assert m["quadfun.is_isomorphic.calls"] == 0
        assert m["lattice.self_share"] + m["quadfun.self_share"] + m["exact.self_share"] > 0.5
    elif name == "wide":
        timing, probe = passes["traced"][0]
        discriminant = probe.self_times(set(range(len(timing.raw))))["lattice.discriminant"][1]
        assert m["zlinalg.self_share"] + discriminant / timing.raw_wall > 0.5
    else:
        session = passes["session"]
        assert session.definite_count < session.attempted  # failed_share > 0 at this commit
        assert m["classify.verdict.unknown"] >= 2
        timing, probe = passes["traced"][0]
        assert run.top_spans(session, probe, timing)["mixed"]["span"] == "classify.yc_equivalent"


def test_transform_growth_is_a_wide_property():
    bits = {name: measured(name)["metrics"]["zlinalg.smith_normal_form.max_transform_bits"] for name in ("report", "wide")}
    assert bits["wide"] > 20 * bits["report"]


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
