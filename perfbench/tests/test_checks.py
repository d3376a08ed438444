"""The benchmark's checks can fail, and failures reach ``failed_frac``.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import sqwbench  # noqa: E402
import sqwbench.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "line_walk": {"nodes": 41, "steps": 12},
    "lattice_evolve": {"dims": (9, 9), "steps": 6},
    "schedule_roundtrip": {"dims": (6, 6), "steps": 3},
    "greedy_walk": {"left": 30, "right": 30, "degree": 3, "steps": 2},
}


def measure(name, tmp_path):
    """A warm-up and one timed operation of a small instance; returns (failed_frac, failure texts)."""
    workload = workloads.WORKLOADS[name](3, **SMALL[name])
    workload.prepare(tmp_path)
    result = bench.measure(workload, sqwbench, tmp_path / "out", 0.0, trace=False)
    _, extra = bench.end_to_end(workload, result)
    return extra["failed_frac"], result["run"].failures


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_stock_program_passes(name, tmp_path):
    failed_frac, failures = measure(name, tmp_path)
    assert failures == []
    assert failed_frac == 0.0


def _identity_kernel(state, h, cfg):
    return np.array(state, dtype=complex)


@pytest.mark.parametrize("name", ["line_walk", "lattice_evolve", "greedy_walk"])
def test_identity_kernel_fails(name, tmp_path, monkeypatch):
    monkeypatch.setattr(sqwbench.walk, "local_unitary", _identity_kernel)
    failed_frac, failures = measure(name, tmp_path)
    assert failed_frac == 1.0
    assert all("from the reference" in text for text in failures)


def test_all_off_schedule_fails(tmp_path, monkeypatch):
    emit = sqwbench.cli.emit_schedule

    def emit_all_off(schedule):
        off = tuple(sqwbench.PulseInterval(index=iv.index, on_pairs=()) for iv in schedule.intervals)
        return emit(dataclasses.replace(schedule, intervals=off))

    monkeypatch.setattr(sqwbench.cli, "emit_schedule", emit_all_off)
    failed_frac, failures = measure("schedule_roundtrip", tmp_path)
    assert failed_frac == 1.0
    # the program's own validate_schedule accepts the all-off schedule; the decode check does not
    assert all("do not cover every edge" in text for text in failures)


def test_truncated_csv_fails(tmp_path, monkeypatch):
    write = sqwbench.cli._guarded_write

    def write_truncated(path, text, force):
        if path.name == "distribution.csv":
            text = text[: 2 * len(text) // 3]
        write(path, text, force)

    monkeypatch.setattr(sqwbench.cli, "_guarded_write", write_truncated)
    failed_frac, failures = measure("line_walk", tmp_path)
    assert failed_frac == 1.0
    assert all("distribution.csv" in text for text in failures)


def test_spans_nest_and_wrappers_are_restored(tmp_path):
    workload = workloads.LineWalk(3, **SMALL["line_walk"])
    original = sqwbench.walk.local_unitary
    tracer = tracing.Tracer()
    with tracer:
        workload.op(sqwbench, tmp_path / "out")
    assert sqwbench.walk.local_unitary is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    kernels = [span for span in tracer.spans if span[0] == "walk.kernel"]
    assert len(kernels) == 2 * SMALL["line_walk"]["steps"]
    assert all(tracer.spans[span[3]][0] == "walk.evolve" for span in kernels)
    whole = tracer.spans[0][2] - tracer.spans[0][1]
    assert 0.0 < tracing.self_s(tracer.spans, "cli.main") < whole


def test_self_and_inclusive_time():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 6.0, 0, None],
    ]
    assert tracing.self_s(spans, "a") == pytest.approx(6.0)
    assert tracing.self_s(spans, "b") == pytest.approx(2.0 + 1.0)
    assert tracing.inclusive_s(spans, {"b"}) == pytest.approx(3.0)
    assert tracing.inclusive_s(spans, {"b", "c"}) == pytest.approx(4.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(bench.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER_UNITS.items())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in workloads.WORKLOADS.items()}
