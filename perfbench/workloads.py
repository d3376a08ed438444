"""The benchmark's workloads: inputs made from a seed, one timed operation, and its check.

Operations drive sqwbench only through ``sqwbench.cli.main(argv)`` and the
package's public functions, looked up on the module at call time so that
the tracer's wrappers see them.  Checks run untimed after every operation
and compare its outputs with ``reference``; a check raises
``reference.CheckFailed`` (or any other exception) to fail the operation.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

import reference as ref
from reference import TOL, require

THETA_TEXT = "pi/3"
THETA = math.pi / 3
# stock Phi_off / Phi_0 of the default circuit; acceptance criterion 4 uses the same tolerance
STOCK_FLUX_OFF = 0.4801
FLUX_OFF_TOL = 5e-4


class OperationFailed(Exception):
    """The program exited non-zero or reported its own output invalid."""


def run_cli(sq, argv: list[str]) -> None:
    code = sq.cli.main(argv)
    if code != 0:
        raise OperationFailed(f"sqwbench {argv[0]} exited with code {code}")


def check_distribution_csv(path: Path, expected: np.ndarray) -> dict:
    """Every (step, node) row present in order, each step sums to 1, and every probability matches."""
    with open(path) as f:
        header = f.readline()
    require(header == "step,node,probability\n", f"distribution.csv header is {header!r}")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ref.CheckFailed(f"distribution.csv does not parse: {exc}") from None
    records, n = expected.shape
    require(rows.shape == (records * n, 3), f"distribution.csv has shape {rows.shape}, expected ({records * n}, 3)")
    require(
        np.array_equal(rows[:, 0], np.repeat(np.arange(records), n))
        and np.array_equal(rows[:, 1], np.tile(np.arange(n), records)),
        "distribution.csv step/node columns are not the full grid in order",
    )
    probabilities = rows[:, 2].reshape(records, n)
    drift = float(np.abs(probabilities.sum(axis=1) - 1.0).max())
    require(drift <= TOL, f"a step's probabilities sum to 1 +- {drift:.3g} (tolerance {TOL})")
    error = float(np.abs(probabilities - expected).max())
    require(error <= TOL, f"probabilities differ from the reference by {error:.3g} (tolerance {TOL})")
    return {"csv_rows": rows.shape[0], "csv_bytes": path.stat().st_size, "norm_drift": drift}


def check_run_json(path: Path, n: int, steps: int, source: str) -> None:
    meta = json.loads(path.read_text())
    require(
        meta.get("n") == n
        and meta.get("steps") == steps
        and meta.get("convention") == "physical"
        and meta.get("tessellation_source") == source
        and abs(meta.get("theta", math.nan) - THETA) <= 1e-15,
        f"run.json does not describe the run: {meta}",
    )


def check_state(final, expected: np.ndarray) -> float:
    final = np.asarray(final)
    require(final.shape == expected.shape, f"final state has shape {final.shape}, expected {expected.shape}")
    error = float(np.abs(final - expected).max())
    require(error <= TOL, f"final state differs from the reference by {error:.3g} (tolerance {TOL})")
    return abs(float(np.vdot(final, final).real) - 1.0)


def check_schedule(schedule, n: int, edges: np.ndarray, tessellations, theta: float, steps: int, start: int) -> dict:
    """Decode the schedule's own intervals and execute them; never looks at the compiler's tessellations."""
    require(math.isfinite(schedule.tau_seconds) and schedule.tau_seconds > 0, f"tau_s = {schedule.tau_seconds!r}")
    require(
        abs(schedule.flux_off_ratio - STOCK_FLUX_OFF) <= FLUX_OFF_TOL,
        f"flux_off = {schedule.flux_off_ratio!r}, stock value is {STOCK_FLUX_OFF} +- {FLUX_OFF_TOL}",
    )
    require(schedule.repetitions == steps, f"schedule repeats {schedule.repetitions} steps, expected {steps}")
    period = len(tessellations)
    intervals = schedule.intervals
    require(len(intervals) == period * steps, f"{len(intervals)} intervals, expected {period} x {steps}")
    decoded = []
    for position, interval in enumerate(intervals):
        require(interval.index == position, f"interval {position} carries index {interval.index}")
        decoded.append(np.array(interval.on_pairs, dtype=np.int64).reshape(-1, 2))
    keys = [np.sort(ref.edge_keys(pairs, n)) for pairs in decoded]
    for position in range(period, len(keys)):
        require(
            np.array_equal(keys[position], keys[position % period]),
            f"interval {position} differs from interval {position % period}: not {period}-periodic",
        )
    for step in range(steps):
        ref.check_tessellations(n, edges, decoded[step * period : (step + 1) * period])
    psi0 = ref.basis_state(n, start)
    error = float(np.abs(ref.walk(psi0, decoded, theta, 1) - ref.walk(psi0, tessellations, theta, steps)).max())
    require(error <= TOL, f"the decoded schedule's walk differs from the intended walk by {error:.3g}")
    return {
        "intervals": len(intervals),
        "distinct_intervals": len({k.tobytes() for k in keys}),
    }


class Workload:
    """Inputs from a seed, one timed operation, and its untimed check."""

    name: str
    why: str
    modules = ("sqwbench", "sqwbench.cli")  # imported by the program before its first operation
    nodes: int
    steps: int

    def prepare(self, workdir: Path) -> None:
        """Write input files the operation reads (not timed, not set-up)."""

    def op(self, sq, out: Path):
        raise NotImplementedError

    def check(self, sq, result, out: Path) -> dict:
        """Raise on a wrong output; return counts measured from the outputs."""
        raise NotImplementedError


class LineWalk(Workload):
    name = "line_walk"
    why = (
        "paper's line walk scaled up: walk --path 2001 --steps 500 --svg, start 1000+-16 from --seed; "
        "1M CSV rows, so cli/_format output dominates and the kernel is ~3%"
    )

    def __init__(self, seed: int, nodes: int = 2001, steps: int = 500):
        rng = np.random.default_rng(seed)
        self.nodes, self.steps = nodes, steps
        self.start = min(max(nodes // 2 + int(rng.integers(-16, 17)), 0), nodes - 1)
        self._expected = None

    def op(self, sq, out: Path):
        run_cli(
            sq,
            ["walk", "--path", str(self.nodes), "--theta", THETA_TEXT, "--steps", str(self.steps),
             "--start", str(self.start), "--svg", "--out", str(out)],
        )

    def check(self, sq, result, out: Path) -> dict:
        if self._expected is None:
            psi0 = ref.basis_state(self.nodes, self.start)
            _, self._expected = ref.walk(psi0, ref.path_tessellations(self.nodes), THETA, self.steps, True)
        facts = check_distribution_csv(out / "distribution.csv", self._expected)
        check_run_json(out / "run.json", self.nodes, self.steps, f"path:{self.nodes}")
        svg = (out / "distribution.svg").read_text()
        require(svg.startswith("<svg") and svg.endswith("</svg>\n"), "distribution.svg is not a complete SVG")
        facts["max_degree"] = min(self.nodes - 1, 2)
        return facts


class LatticeEvolve(Workload):
    name = "lattice_evolve"
    why = (
        "library only, no files: generate_lattice_tessellations((200,200)), evolve 200 steps (800 kernel calls), "
        "distribution, spread; start near centre from --seed; graph + kernel"
    )
    modules = ("sqwbench",)

    def __init__(self, seed: int, dims=(200, 200), steps: int = 200):
        rng = np.random.default_rng(seed)
        self.dims, self.steps = tuple(dims), steps
        self.nodes = math.prod(self.dims)
        centre = [min(max(d // 2 + int(rng.integers(-8, 9)), 0), d - 1) for d in self.dims]
        self.start = int(np.ravel_multi_index(centre, self.dims))
        self._expected = None

    def op(self, sq, out: Path):
        g, ts = sq.generate_lattice_tessellations(self.dims)
        psi0 = sq.initial_basis_state(g.node_count, self.start)
        final = sq.evolve(psi0, ts, sq.WalkConfig(theta=THETA, steps=self.steps), graph=g)
        dist = sq.probability_distribution(final)
        sigma = sq.spread_statistics([dist], self.start)
        return final, dist, sigma

    def check(self, sq, result, out: Path) -> dict:
        if self._expected is None:
            psi0 = ref.basis_state(self.nodes, self.start)
            self._expected = ref.walk(psi0, ref.lattice_tessellations(self.dims), THETA, self.steps)
            self._max_degree = ref.max_degree(self.nodes, ref.lattice_edges(self.dims))
        final, dist, sigma = result
        drift = check_state(final, self._expected)
        p = np.abs(self._expected) ** 2
        require(float(np.abs(np.asarray(dist) - p).max()) <= TOL, "probability_distribution differs from |psi|^2")
        x = np.arange(self.nodes, dtype=float) - self.start
        mean = float(p @ x)
        want = math.sqrt(max(float(p @ (x * x)) - mean * mean, 0.0))
        require(len(sigma) == 1 and abs(sigma[0] - want) <= 1e-6 * max(want, 1.0), f"spread {sigma} != {want}")
        return {"norm_drift": drift, "max_degree": self._max_degree}


class ScheduleRoundtrip(Workload):
    name = "schedule_roundtrip"
    why = (
        "schedule --lattice 100,100 --steps 5, theta k*pi/24 from --seed, then parse_schedule + validate_schedule "
        "on the 5 MB file: JSON write and read side by side; kernel never runs"
    )

    def __init__(self, seed: int, dims=(100, 100), steps: int = 5):
        rng = np.random.default_rng(seed)
        self.dims, self.steps = tuple(dims), steps
        self.nodes = math.prod(self.dims)
        k = int(rng.integers(5, 12))
        self.theta_text, self.theta = f"{k}pi/24", k * math.pi / 24
        self.start = self.nodes // 2
        self._edges = ref.lattice_edges(self.dims)
        self._tessellations = ref.lattice_tessellations(self.dims)

    def op(self, sq, out: Path):
        run_cli(
            sq,
            ["schedule", "--lattice", ",".join(map(str, self.dims)), "--theta", self.theta_text,
             "--steps", str(self.steps), "--out", str(out)],
        )
        schedule = sq.parse_schedule((out / "schedule.json").read_text())
        g, _ = sq.generate_lattice_tessellations(self.dims)
        violations = sq.validate_schedule(schedule, g)
        if violations:
            raise OperationFailed(f"validate_schedule: {violations[0]}")
        return schedule

    def check(self, sq, schedule, out: Path) -> dict:
        facts = check_schedule(
            schedule, self.nodes, self._edges, self._tessellations, self.theta, self.steps, self.start
        )
        facts["schedule_bytes"] = (out / "schedule.json").stat().st_size
        facts["max_degree"] = ref.max_degree(self.nodes, self._edges)
        return facts


class GreedyWalk(Workload):
    name = "greedy_walk"
    why = (
        "walk --graph <random bipartite 4000+4000 nodes, 4 edges per left node, right degree <= 8, from --seed> "
        "--steps 2: graph_from_json, is_triangle_free and greedy_tessellate dominate"
    )

    def __init__(
        self, seed: int, left: int = 4000, right: int = 4000, degree: int = 4, max_right: int = 8, steps: int = 2
    ):
        # The cap keeps the maximum degree, and with it greedy_tessellate's round count and the
        # operation's cost, the same from seed to seed; uncapped it ranged over 11-14.
        rng = np.random.default_rng(seed)
        right_degree = np.zeros(right, dtype=int)
        partners = []
        for _ in range(left):
            pick = rng.choice(right, size=degree, replace=False)
            while (right_degree[pick] >= max_right).any():
                pick = rng.choice(right, size=degree, replace=False)
            right_degree[pick] += 1
            partners.append(pick)
        self.edges = np.stack([np.repeat(np.arange(left), degree), left + np.concatenate(partners)], axis=1)
        self.nodes, self.steps = left + right, steps
        if not ref.is_triangle_free(self.nodes, self.edges):
            raise ValueError("generated graph has a triangle")
        self.graph_file = None
        self._expected = None

    def prepare(self, workdir: Path) -> None:
        self.graph_file = workdir / "graph.json"
        self.graph_file.write_text(json.dumps({"nodes": self.nodes, "edges": self.edges.tolist()}))

    def op(self, sq, out: Path):
        run_cli(sq, ["walk", "--graph", str(self.graph_file), "--steps", str(self.steps), "--out", str(out)])

    def check(self, sq, result, out: Path) -> dict:
        if self._expected is None:
            # the tessellations are the program's choice; they are validated here before use
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ts = sq.greedy_tessellate(sq.build_graph(self.nodes, self.edges.tolist()))
            tessellations = [np.array(t.pairs, dtype=np.int64).reshape(-1, 2) for t in ts]
            ref.check_tessellations(self.nodes, self.edges, tessellations)
            psi0 = ref.basis_state(self.nodes, (self.nodes - 1) // 2)
            _, self._expected = ref.walk(psi0, tessellations, THETA, self.steps, True)
        facts = check_distribution_csv(out / "distribution.csv", self._expected)
        check_run_json(out / "run.json", self.nodes, self.steps, f"file+greedy:{self.graph_file}")
        facts["max_degree"] = ref.max_degree(self.nodes, self.edges)
        return facts


WORKLOADS = {w.name: w for w in (LineWalk, LatticeEvolve, ScheduleRoundtrip, GreedyWalk)}
