"""sqwbench benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload line_walk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Operations run closed-loop, one after another, in this one process for
``--seconds`` (the first operation is a warm-up that is checked but not
timed).  Every operation's outputs are checked against an independent
reference after it finishes, untimed.  A fixed calibration workload is
timed between operations, so each operation's wall time can also be
stated relative to the machine's speed at that moment (``wall_p50_rel``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics and the
tracing overhead.
The last line of standard output is one JSON object; a detailed record
(machine, versions, samples, spans) goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 9
COPY_FLOOR_REPEATS = 200

# end-to-end metrics in the final JSON line (the ones BENCHMARK.json bounds)
E2E_UNITS = {
    "wall_p50_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "format.dumps_17g_s": "s",
    "svgplot.render_s": "s",
    "walk.kernel_s": "s",
    "walk.kernel_calls": "count",
    "walk.ns_per_amp": "ns",
    "walk.copy_floor_ns_per_amp": "ns",
    "walk.bytes_computed": "bytes",
    "walk.state_bytes": "bytes",
    "walk.spec_s": "s",
    "walk.evolve_self_s": "s",
    "walk.norm_drift": "abs",
    "graph.build_s": "s",
    "graph.validate_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.greedy_s": "s",
    "graph.tessellations": "count",
    "graph.max_degree": "count",
    "schedule.compile_s": "s",
    "schedule.emit_s": "s",
    "schedule.emit_mb_per_s": "MB/s",
    "schedule.bytes": "bytes",
    "schedule.intervals": "count",
    "schedule.distinct_intervals": "count",
    "schedule.parse_s": "s",
    "schedule.parse_mb_per_s": "MB/s",
    "schedule.validate_s": "s",
    "circuit.operating_point_s": "s",
    "circuit.solve_mode_calls": "count",
    "output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cache_bytes(text: str) -> int:
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def machine_info() -> dict:
    import numpy

    info = {
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3") and (index / "type").read_text().strip() in ("Unified", "Data"):
                info[f"l{level}_bytes"] = _cache_bytes((index / "size").read_text().strip())
    except (OSError, StopIteration, ValueError):
        pass
    return info


def setup_probe(modules) -> float:
    """Seconds to import ``modules`` in a fresh interpreter (bytecode caches already written)."""
    command = [sys.executable, "-c", _PROBE, str(SRC), *modules]
    return float(subprocess.run(command, check=True, capture_output=True, text=True, timeout=120).stdout)


def tail(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, if that is at or above the median."""
    n = len(samples)
    if n < 20:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


class Calibration:
    """A fixed reference workload timed before and after every operation.

    On a shared virtual machine the CPU's speed can drift by up to ~70%
    for minutes at a time (seen on a 2-vCPU Xeon VM), which moves the
    median wall time of every workload together.  Dividing each
    operation's wall time by the mean of the calibrations just before and
    just after it cancels most of that drift.  The work mixes what the program
    spends its time on: float formatting into a joined string, and a
    numpy gather and axpy on a 3.2 MB complex vector, ~80 ms in all.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.values = rng.random(20_000).tolist()
        self.state = rng.random(200_000) + 0j
        self.order = rng.permutation(200_000)

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(3):
            "\n".join([f"{i},{v:.17g}" for i, v in enumerate(self.values)])
            self.state[self.order] * 0.5 + self.state
        return perf_counter() - t0


def copy_floor_ns_per_amp(n: int) -> float:
    import numpy as np

    src = np.full(n, 0.5 + 0.5j)
    dst = np.empty_like(src)
    times = []
    for _ in range(COPY_FLOOR_REPEATS):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    return statistics.median(times) / n * 1e9


def layer_metrics(spans, facts: dict) -> dict:
    import tracing as tr

    amplitudes = tr.count_sum(spans, "walk.kernel", "amplitudes")
    kernel_s = tr.inclusive_s(spans, {"walk.kernel"})
    emit_s = tr.inclusive_s(spans, {"schedule.emit"})
    parse_s = tr.inclusive_s(spans, {"schedule.parse"})
    schedule_mb = facts.get("schedule_bytes", 0) / 1e6
    return {
        "cli.self_s": tr.self_s(spans, "cli.main"),
        "cli.csv_rows": facts.get("csv_rows", 0),
        "cli.csv_bytes": facts.get("csv_bytes", 0),
        "format.dumps_17g_s": tr.inclusive_s(spans, {"format.dumps_17g"}),
        "svgplot.render_s": tr.inclusive_s(spans, {"svgplot.render"}),
        "walk.kernel_s": kernel_s,
        "walk.kernel_calls": tr.calls(spans, "walk.kernel"),
        "walk.ns_per_amp": kernel_s / amplitudes * 1e9 if amplitudes else 0.0,
        # computed, not measured: each call reads and writes the whole complex128 state once
        "walk.bytes_computed": 32 * amplitudes,
        "walk.spec_s": tr.inclusive_s(spans, {"walk.spec"}),
        "walk.evolve_self_s": tr.self_s(spans, "walk.evolve"),
        "walk.norm_drift": facts.get("norm_drift", 0.0),
        "graph.build_s": tr.inclusive_s(spans, {"graph.build"}),
        "graph.validate_s": tr.inclusive_s(spans, {"graph.validate"}),
        "graph.nodes": tr.count_max(spans, {"graph.build"}, "nodes"),
        "graph.edges": tr.count_max(spans, {"graph.build"}, "edges"),
        "graph.greedy_s": tr.inclusive_s(spans, {"graph.greedy"}),
        "graph.tessellations": tr.count_max(spans, {"graph.build", "graph.greedy"}, "tessellations"),
        "graph.max_degree": facts.get("max_degree", 0),
        "schedule.compile_s": tr.inclusive_s(spans, {"schedule.compile"}),
        "schedule.emit_s": emit_s,
        "schedule.emit_mb_per_s": schedule_mb / emit_s if emit_s else 0.0,
        "schedule.bytes": facts.get("schedule_bytes", 0),
        "schedule.intervals": facts.get("intervals", 0),
        "schedule.distinct_intervals": facts.get("distinct_intervals", 0),
        "schedule.parse_s": parse_s,
        "schedule.parse_mb_per_s": schedule_mb / parse_s if parse_s else 0.0,
        "schedule.validate_s": tr.inclusive_s(spans, {"schedule.validate"}),
        "circuit.operating_point_s": tr.inclusive_s(spans, {"circuit.operating_point"}),
        "circuit.solve_mode_calls": tr.calls(spans, "circuit.solve_mode"),
        "output_bytes": facts.get("output_bytes", 0),
    }


class Run:
    """Closed-loop operations of one workload for a fixed time, each checked after it finishes."""

    def __init__(self, workload, sq, out: Path):
        self.workload, self.sq, self.out = workload, sq, out
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = None

    def operation(self, tracer=None, calibrate=None):
        """Run, time and check one operation; return (seconds, calibration seconds, facts).

        ``facts`` is None when the operation failed.  With ``calibrate``,
        the calibration is timed right before and right after the operation,
        ahead of its check, and their mean is returned.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        sink = io.StringIO()
        calibration = calibrate() if calibrate else 0.0
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
            t0 = perf_counter()
            try:
                result = self.workload.op(self.sq, self.out)
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
            seconds = perf_counter() - t0
        if calibrate:
            calibration = (calibration + calibrate()) / 2
        if self.peak_rss_mb is None:
            # read before any check runs, so the reference's memory is not counted
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if error is None:
            try:
                facts = self.workload.check(self.sq, result, self.out)
                facts["output_bytes"] = sum(f.stat().st_size for f in self.out.rglob("*") if f.is_file())
                return seconds, calibration, facts
            except Exception:
                error = traceback.format_exc(limit=3)
        self.failures.append(error)
        print(f"operation {self.attempted} failed:\n{error}{sink.getvalue()[-2000:]}", file=sys.stderr)
        return seconds, calibration, None


def measure(workload, sq, out: Path, seconds: float, trace: bool) -> dict:
    """Warm-up operation, then operations until ``seconds`` after the warm-up started.

    Returns per-operation samples ``(wall_s, wall_s / calibration_s)`` for
    successful untraced (``plain``), traced and failed operations.  An
    untraced run also times up to SETUP_PROBES set-up probes, one after
    each operation so that they sample the whole run, and at least three.
    """
    import tracing

    run = Run(workload, sq, out)
    deadline = perf_counter() + seconds
    run.operation()
    calibrate = Calibration()  # after the warm-up, whose peak memory is the one reported
    samples = {"plain": [], "traced": [], "failed": []}
    calibrations, setup, traced_metrics, spans, facts_seen, cycles = [], [], [], [], {}, []
    while True:
        cycle_start = perf_counter()
        tracer = tracing.Tracer() if trace and len(samples["traced"]) < len(samples["plain"]) else None
        wall, calibration, facts = run.operation(tracer, calibrate)
        kind = "failed" if facts is None else "plain" if tracer is None else "traced"
        samples[kind].append((wall, wall / calibration))
        calibrations.append(calibration)
        if kind == "traced":
            traced_metrics.append(layer_metrics(tracer.spans, facts))
            spans.append(tracer.spans)
        elif kind == "plain":
            facts_seen = facts
        if not trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(workload.modules))
        cycles.append(perf_counter() - cycle_start)
        enough = samples["plain"] and (samples["traced"] or not trace)
        # stop at the deadline, or before it when the next operation would not finish in time
        if perf_counter() + statistics.median(cycles) > deadline and (enough or run.attempted >= 2 + 2 * trace):
            break
    while not trace and len(setup) < 3:
        setup.append(setup_probe(workload.modules))
    return {
        "run": run,
        **samples,
        "calibration_s": calibrations,
        "setup_s": setup,
        "traced_metrics": traced_metrics,
        "spans": spans,
        "facts": facts_seen,
    }


def end_to_end(workload, result: dict) -> tuple[dict, dict]:
    """Bounded metrics, and the ones only printed."""
    run = result["run"]
    # a run where every operation failed still reports finite times
    samples = result["plain"] or result["failed"]
    walls = [wall for wall, _ in samples]
    p50 = statistics.median(walls)
    metrics = {
        "wall_p50_rel": statistics.median(rel for _, rel in samples),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": run.peak_rss_mb,
    }
    extra = {
        "samples": len(walls),
        "wall_p50_s": p50,
        "node_steps_per_s": workload.nodes * workload.steps / p50,
        "calibration_p50_s": statistics.median(result["calibration_s"]),
        "output_bytes": result["facts"].get("output_bytes", 0),
        "failed_frac": len(run.failures) / run.attempted,
    }
    tail_value = tail(walls)
    if tail_value is not None:
        extra["wall_tail_s"] = {"percentile": tail_value[0], "value": tail_value[1]}
    return metrics, extra


def per_layer(workload, result: dict) -> dict:
    traced = result["traced_metrics"]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["walk.copy_floor_ns_per_amp"] = copy_floor_ns_per_amp(workload.nodes)
    metrics["walk.state_bytes"] = 16 * workload.nodes
    plain = statistics.median(rel for _, rel in result["plain"])
    metrics["trace.overhead_frac"] = statistics.median(rel for _, rel in result["traced"]) / plain - 1
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def print_table(title: str, metrics: dict, units: dict, op_seconds: float | None = None) -> None:
    print(title)
    for name, value in metrics.items():
        share = ""
        if op_seconds and value and units.get(name) == "s":
            share = f"  ({100 * value / op_seconds:5.1f}% of a traced operation)"
        print(f"  {name:28s} {value:>16.6g} {units.get(name, '')}{share}")


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    scratch = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(scratch)
        sys.path.insert(0, str(SRC))
        import sqwbench
        import sqwbench.cli  # noqa: F401  (the CLI workloads call sqwbench.cli.main)

        result = measure(workload, sqwbench, scratch / "out", args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    run = result["run"]
    machine = machine_info()
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}; machine {json.dumps(machine)}")
    print(f"operations: {run.attempted} attempted ({len(result['plain'])} timed untraced, "
          f"{len(result['traced'])} traced), {len(run.failures)} failed")
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "machine": machine,
              "attempted": run.attempted, "failures": run.failures, "calibration_s": result["calibration_s"],
              "plain": result["plain"], "traced": result["traced"], "failed": result["failed"]}
    if args.trace:
        metrics = per_layer(workload, result) if result["plain"] and result["traced"] else {}
        units = PER_LAYER_UNITS
        print_table("per-layer metrics (median over traced operations; *_s are per operation)", metrics, units,
                    statistics.median(wall for wall, _ in result["traced"]) if result["traced"] else None)
        state_mb = 16 * workload.nodes / 1e6
        print(f"kernel state {state_mb:.3g} MB (n = {workload.nodes}) against L2 "
              f"{machine.get('l2_bytes', 0) / 1e6:.3g} MB and L3 {machine.get('l3_bytes', 0) / 1e6:.3g} MB; "
              "the n = 1e6 (16 MB) copy-floor target is not covered by any workload")
        record["spans"] = [[[s[0], s[1], s[2], s[3]] for s in op] for op in result["spans"]]
    else:
        metrics, extra = end_to_end(workload, result)
        units = E2E_UNITS
        print_table("end-to-end metrics (untraced; bounded in BENCHMARK.json)", metrics, units)
        print_table("end-to-end metrics (untraced; printed only)", {
            "wall_p50_s": extra["wall_p50_s"],
            "node_steps_per_s": extra["node_steps_per_s"],
            "calibration_p50_s": extra["calibration_p50_s"],
        }, {"wall_p50_s": "s", "node_steps_per_s": "1/s", "calibration_p50_s": "s"})
        tail_text = ("n/a (fewer than 20 samples)" if "wall_tail_s" not in extra else
                     f"{extra['wall_tail_s']['value']:.6g} s at p{extra['wall_tail_s']['percentile']}")
        print(f"  {'wall_tail_s':28s} {tail_text} over {extra['samples']} samples")
        print(f"  {'output_bytes':28s} {extra['output_bytes']:>16d} bytes per operation")
        print(f"  {'failed_frac':28s} {extra['failed_frac']:>16.6g} ({len(run.failures)}/{run.attempted})")
        record.update(extra, setup_s=result["setup_s"])
    record["metrics"] = metrics
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    correct = not run.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sqwbench" / "__init__.py").is_file():
        print(f"error: no sqwbench sources at {SRC}; run from the root of a sqwbench checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
