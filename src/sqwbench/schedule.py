"""Compile walk programs into per-SQUID flux pulse schedules.

A schedule is a sequence of equal-length intervals.  During each
interval the SQUIDs of one tessellation's pairs are driven at the
on-flux while every other SQUID sits at the off-flux, so the array
realizes that tessellation's local operator.  One walk step consumes
one interval per tessellation, back to back.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from ._format import dumps_17g
from .circuit import CircuitParams, pulse_duration, solve_operating_point
from .errors import ValidationError
from .graph import Graph, TessellationSet, validate_tessellation_set
from .walk import WalkConfig, evolve

__all__ = [
    "SCHEDULE_SCHEMA_VERSION",
    "SWITCHING_BUDGET_SECONDS",
    "PulseInterval",
    "PulseSchedule",
    "CompiledRun",
    "compile_schedule",
    "simulate_compiled",
    "validate_schedule",
    "feasibility_notes",
    "emit_schedule",
    "parse_schedule",
]

SCHEDULE_SCHEMA_VERSION = 1

# switching-speed budget of the flux drive lines
SWITCHING_BUDGET_SECONDS = 1e-7


@dataclass(frozen=True)
class PulseInterval:
    """One interval: the SQUID edges driven at the on-flux."""

    index: int
    on_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "on_pairs", tuple(tuple(p) for p in self.on_pairs))


@dataclass(frozen=True)
class PulseSchedule:
    """Per-SQUID flux timeline: interval length, flux levels, and drive pattern.

    Structural soundness against a graph (matching property, edge
    membership, positive interval length) is checked by
    :func:`validate_schedule`, which reports violations as data so that
    hand-built schedules can be inspected.
    """

    tau_seconds: float
    flux_on_ratio: float
    flux_off_ratio: float
    repetitions: int
    intervals: tuple[PulseInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))


@dataclass(frozen=True)
class CompiledRun:
    """A schedule together with the tessellation/angle program it encodes.

    ``tessellations`` and ``theta`` form the predicted unitary: applying
    the tessellations in order with rotation angle theta, once per step.
    Simulating them through :func:`simulate_compiled` uses the exact
    same code path as :func:`sqwbench.walk.evolve`.
    """

    schedule: PulseSchedule
    tessellations: TessellationSet
    theta: float


def compile_schedule(
    g: Graph,
    ts: TessellationSet,
    theta: float,
    params: CircuitParams,
    steps: int,
) -> CompiledRun:
    """Lower (graph, tessellations, theta, steps) to a flux pulse timeline.

    The interval length comes from the driven-link coupling at the
    solved operating point; interval k of step s turns on exactly the
    pairs of tessellation k.  Warns (never fails) when the interval is
    shorter than the switching budget of the drive lines.
    """
    if not isinstance(steps, int) or steps < 0:
        raise ValidationError(f"steps must be a non-negative integer, got {steps!r}")
    violations = validate_tessellation_set(g, ts)
    if violations:
        raise ValidationError("cannot compile invalid tessellations: " + "; ".join(violations))
    operating = solve_operating_point(params)
    tau = pulse_duration(theta, operating.coupling_on.kappa_total, reduce_period=True)
    if tau <= 0.0:
        raise ValidationError(
            f"theta {theta!r} yields non-positive interval length {tau!r}; use an angle with a positive reduced value"
        )
    on_pairs = [tuple(map(tuple, t.pairs.tolist())) for t in ts]
    intervals = []
    index = 0
    for _ in range(steps):
        for pairs in on_pairs:
            intervals.append(PulseInterval(index=index, on_pairs=pairs))
            index += 1
    schedule = PulseSchedule(
        tau_seconds=tau,
        flux_on_ratio=operating.flux_on,
        flux_off_ratio=operating.flux_off,
        repetitions=steps,
        intervals=tuple(intervals),
    )
    for note in feasibility_notes(schedule):
        warnings.warn(note, RuntimeWarning, stacklevel=2)
    return CompiledRun(schedule=schedule, tessellations=ts, theta=theta)


def simulate_compiled(run: CompiledRun, state, graph: Graph, convention: str = "physical") -> np.ndarray:
    """Evolve a state under the compiled program (same code path as walk.evolve)."""
    cfg = WalkConfig(theta=run.theta, steps=run.schedule.repetitions, convention=convention)
    return evolve(state, run.tessellations, cfg, graph=graph)


def validate_schedule(s: PulseSchedule, g: Graph) -> list[str]:
    """Check matching property, edge membership, and positive interval length.

    Returns violations as a list of messages; empty means the schedule
    is sound for the graph.
    """
    violations = []
    if not s.tau_seconds > 0.0:
        violations.append(f"interval length {s.tau_seconds!r} is not positive")
    edge_set = g.edge_set()
    for interval in s.intervals:
        driven: set[int] = set()
        for pair in interval.on_pairs:
            i, j = pair
            key = (min(i, j), max(i, j))
            if key not in edge_set:
                violations.append(f"interval {interval.index}: pair {pair} is not an edge of the graph")
            for v in (i, j):
                if v in driven:
                    violations.append(f"interval {interval.index}: node {v} is driven by more than one pair")
                driven.add(v)
    return violations


def feasibility_notes(s: PulseSchedule) -> list[str]:
    """Hardware-budget warnings (never failures) for a schedule."""
    notes = []
    if 0.0 < s.tau_seconds < SWITCHING_BUDGET_SECONDS:
        notes.append(
            f"interval length {s.tau_seconds:.4g} s is below the 0.1 us switching budget; "
            "flux pulses cannot settle within one interval"
        )
    return notes


def emit_schedule(s: PulseSchedule) -> str:
    """Serialize a schedule to its versioned JSON wire format."""
    payload = {
        "version": SCHEDULE_SCHEMA_VERSION,
        "tau_s": float(s.tau_seconds),
        "flux_on": float(s.flux_on_ratio),
        "flux_off": float(s.flux_off_ratio),
        "steps": int(s.repetitions),
        "intervals": [
            {"idx": int(iv.index), "on": [[int(i), int(j)] for i, j in iv.on_pairs]}
            for iv in s.intervals
        ],
    }
    return dumps_17g(payload) + "\n"


def parse_schedule(text: str) -> PulseSchedule:
    """Parse and structurally validate the schedule JSON wire format.

    Rejects malformed JSON (naming the byte offset), unknown schema
    versions, missing or mistyped fields, non-positive interval length,
    and intervals that drive a node twice.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed schedule JSON at byte offset {exc.pos}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValidationError("schedule JSON must be an object")
    for key in ("version", "tau_s", "flux_on", "flux_off", "steps", "intervals"):
        if key not in obj:
            raise ValidationError(f'schedule JSON is missing key "{key}"')
    if obj["version"] != SCHEDULE_SCHEMA_VERSION:
        raise ValidationError(f"unsupported schedule schema version {obj['version']!r}")
    tau = obj["tau_s"]
    if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not tau > 0:
        raise ValidationError(f"tau_s must be a positive number, got {tau!r}")
    for key in ("flux_on", "flux_off"):
        if not isinstance(obj[key], (int, float)) or isinstance(obj[key], bool):
            raise ValidationError(f"{key} must be a number, got {obj[key]!r}")
    steps = obj["steps"]
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise ValidationError(f"steps must be a non-negative integer, got {steps!r}")
    if not isinstance(obj["intervals"], list):
        raise ValidationError("intervals must be a list")
    intervals = []
    for raw in obj["intervals"]:
        if not isinstance(raw, dict) or "idx" not in raw or "on" not in raw:
            raise ValidationError(f"interval entry {raw!r} needs 'idx' and 'on'")
        if not isinstance(raw["idx"], int) or isinstance(raw["idx"], bool):
            raise ValidationError(f"interval idx must be an integer, got {raw['idx']!r}")
        pairs = []
        driven: set[int] = set()
        for pair in raw["on"]:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            ):
                raise ValidationError(f"interval {raw['idx']}: pair {pair!r} must be a list of two node indices")
            i, j = pair
            if i == j:
                raise ValidationError(f"interval {raw['idx']}: pair {pair!r} repeats a node")
            for v in (i, j):
                if v in driven:
                    raise ValidationError(f"interval {raw['idx']}: node {v} is driven by more than one pair")
                driven.add(v)
            pairs.append((i, j))
        intervals.append(PulseInterval(index=raw["idx"], on_pairs=tuple(pairs)))
    return PulseSchedule(
        tau_seconds=float(tau),
        flux_on_ratio=float(obj["flux_on"]),
        flux_off_ratio=float(obj["flux_off"]),
        repetitions=steps,
        intervals=tuple(intervals),
    )
