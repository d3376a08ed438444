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

from ._format import json_float
from .circuit import CircuitParams, OperatingPoint, pulse_duration, solve_operating_point
from .errors import ValidationError, _collector_paused, _int_pairs, _is_index, _is_number, _load_json, _not_finite
from .graph import _MAX_INDEX, Graph, Tessellation, TessellationSet, _canonical_pairs, validate_tessellation_set
from .walk import CONVENTION_PHYSICAL, WalkConfig, evolve

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

SCHEDULE_SCHEMA_VERSION = 2

# switching-speed budget of the flux drive lines
SWITCHING_BUDGET_SECONDS = 1e-7


def _budget_text() -> str:  # as every feasibility line names it: "0.1 us switching budget"
    return f"{SWITCHING_BUDGET_SECONDS * 1e6:g} us switching budget"


@dataclass(frozen=True)
class PulseInterval:
    """One interval: the SQUID edges driven at the on-flux, a read-only ``(p, 2)`` intp array in the order given.

    Such an array is kept as given, so the intervals that drive one pattern share it.  Other pairs of Python or numpy
    ints are copied into one; a pair that is not two ints or holds a node outside the intp range is rejected.
    The index, a Python or numpy int, is stored as an int.
    """

    index: int
    on_pairs: np.ndarray

    def __post_init__(self):
        if not (_is_index(self.index) or isinstance(self.index, np.integer)):
            raise ValidationError(f"interval index must be an integer, got {self.index!r}")
        if type(self.index) is not int:
            object.__setattr__(self, "index", int(self.index))
        on = self.on_pairs
        if not (isinstance(on, np.ndarray) and on.dtype == np.intp and on.shape[1:] == (2,) and not on.flags.writeable):
            on = on.tolist() if isinstance(on, np.ndarray) else on if isinstance(on, (list, tuple)) else list(on)
            object.__setattr__(self, "on_pairs", _pair_array(f"interval {self.index}", on))

    def __eq__(self, other):
        if not isinstance(other, PulseInterval):
            return NotImplemented
        return self.index == other.index and np.array_equal(self.on_pairs, other.on_pairs)

    def __hash__(self):
        return hash((self.index, self.on_pairs.tobytes()))


@dataclass(frozen=True)
class PulseSchedule:
    """Per-SQUID flux timeline: interval length, flux levels, and drive pattern.

    The header is checked when a schedule is built, however it is built: one
    that :func:`parse_schedule` would reject raises its ``ValidationError``.
    Soundness against a graph (matching property, edge membership) is checked
    by :func:`validate_schedule`, which reports violations as data so that
    hand-built schedules can be inspected.
    """

    tau_seconds: float
    flux_on_ratio: float
    flux_off_ratio: float
    repetitions: int
    intervals: tuple[PulseInterval, ...]

    def __post_init__(self):
        _check_header(self.tau_seconds, self.flux_on_ratio, self.flux_off_ratio, self.repetitions)
        object.__setattr__(self, "intervals", tuple(self.intervals))


@dataclass(frozen=True)
class CompiledRun:
    """A schedule together with the tessellation/angle program it encodes.

    ``tessellations`` and ``theta`` form the predicted unitary: applying
    the tessellations in order with rotation angle theta, once per step.
    :func:`simulate_compiled` executes the schedule's intervals instead,
    so comparing the two checks what the compiler emitted.
    """

    schedule: PulseSchedule
    tessellations: TessellationSet
    theta: float


def compile_schedule(g: Graph, ts: TessellationSet, theta: float, params: CircuitParams, steps: int) -> CompiledRun:
    """Lower (graph, tessellations, theta, steps) to a flux pulse timeline.

    The interval length comes from the driven-link coupling at the
    solved operating point; interval k of step s turns on exactly the
    pairs of tessellation k.  Warns (never fails) when the interval is
    shorter than the switching budget of the drive lines.
    """
    WalkConfig(theta=theta, steps=steps)  # the walk's own rules for theta and the step count
    if violations := validate_tessellation_set(g, ts):
        raise ValidationError("cannot compile invalid tessellations: " + "; ".join(violations))
    operating = solve_operating_point(params)
    tau = _interval_length(theta, operating)
    intervals = (PulseInterval(k, ts[k % len(ts)].pairs) for k in range(steps * len(ts)))
    schedule = PulseSchedule(tau, operating.flux_on, operating.flux_off, repetitions=steps, intervals=intervals)
    for note in feasibility_notes(schedule):
        warnings.warn(note, RuntimeWarning, stacklevel=2)
    return CompiledRun(schedule=schedule, tessellations=ts, theta=theta)


def _interval_length(theta: float, operating: OperatingPoint) -> float:
    """The interval length realizing theta at the driven coupling, theta reduced modulo 2*pi; it must be positive."""
    tau = pulse_duration(theta, operating.coupling_on.kappa_total)
    if tau <= 0.0:
        raise ValidationError(
            f"theta {theta!r} yields non-positive interval length {tau!r}; use an angle with a positive reduced value"
        )
    return tau


def simulate_compiled(run: CompiledRun, state, graph: Graph, convention: str = CONVENTION_PHYSICAL) -> np.ndarray:
    """Evolve a state by executing the schedule's intervals, in order.

    Each interval decodes to the tessellation that drives its on-pairs
    and leaves every other node of the graph a singleton; the decoded
    tessellations go through :func:`sqwbench.walk.evolve` as one step.
    The compiler's own ``run.tessellations`` are not consulted.
    """
    if violations := validate_schedule(run.schedule, graph):
        raise ValidationError("cannot simulate an invalid schedule: " + "; ".join(violations))
    # one tessellation per distinct on_pairs array, which may hold its pairs in any order and orientation
    distinct = {id(iv.on_pairs): iv.on_pairs for iv in run.schedule.intervals}
    by_id = {key: Tessellation._from_pairs(_canonical_pairs(on), graph.node_count) for key, on in distinct.items()}
    decoded = tuple(by_id[id(iv.on_pairs)] for iv in run.schedule.intervals)
    return evolve(state, decoded, WalkConfig(theta=run.theta, steps=1, convention=convention), graph=graph)


def validate_schedule(s: PulseSchedule, g: Graph) -> list[str]:
    """Check the matching property and edge membership; the header was checked when ``s`` was built.

    Returns violations as a list of messages; empty means the schedule is sound for the graph.  Per interval they
    come pair by pair: "not an edge" first, then each node already driven by an earlier pair.  Each distinct
    ``on_pairs`` array is checked once, as arrays; one with a fault is walked, and reported, for each interval.
    """
    violations = []
    faults = {}  # id(on_pairs) -> which of its pairs are edges, or None if it is sound; s keeps each array alive
    for interval in s.intervals:
        if id(on := interval.on_pairs) not in faults:
            low_high = np.stack((np.minimum(*on.T), np.maximum(*on.T)), axis=1)  # ~8x faster than np.sort(axis=1)
            is_edge, nodes = g._edge_index(low_high) >= 0, np.sort(on, axis=None)
            faults[id(on)] = None if is_edge.all() and (nodes[1:] != nodes[:-1]).all() else is_edge.tolist()
        if (is_edge := faults[id(on)]) is not None:  # walked pair by pair only to word the violations
            driven: set[int] = set()
            for (i, j), edge in zip(on.tolist(), is_edge):
                if not edge:
                    violations.append(f"interval {interval.index}: pair {(i, j)} is not an edge of the graph")
                for v in (i, j):
                    if v in driven:
                        violations.append(f"interval {interval.index}: node {v} is driven by more than one pair")
                    driven.add(v)
    return violations


def feasibility_notes(s: PulseSchedule) -> list[str]:
    """Hardware-budget warnings (never failures) for a schedule, whose interval length is positive."""
    notes = []
    if s.tau_seconds < SWITCHING_BUDGET_SECONDS:
        notes.append(
            f"interval length {s.tau_seconds:.4g} s is below the {_budget_text()}; "
            "flux pulses cannot settle within one interval"
        )
    return notes


_HEADER = ("tau_s", "flux_on", "flux_off")  # the wire names of the header floats, in PulseSchedule field order


def _check_header(tau, flux_on, flux_off, steps) -> None:
    """Raise the first fault of a header that ``parse_schedule`` would reject, for it and for ``PulseSchedule``."""
    if not _is_number(tau) or not tau > 0:
        raise ValidationError(f"tau_s must be a positive number, got {tau!r}")
    for key, value in zip(_HEADER, (tau, flux_on, flux_off)):
        if not _is_number(value):
            raise ValidationError(f"{key} must be a number, got {value!r}")
        if fault := _not_finite(key, value):
            raise ValidationError(fault)
    WalkConfig(theta=0.0, steps=steps)  # the walk's own rule for the step count


_LAYOUT = (
    '{\n  "version": %d,\n  "tau_s": %s,\n  "flux_on": %s,\n  "flux_off": %s,\n  "steps": %d,\n'
    '  "patterns": %s,\n  "intervals": %s\n}\n'
)


def emit_schedule(s: PulseSchedule) -> str:
    """Serialize a schedule to its versioned JSON wire format, version 2.

    Keys one per line, as ``json.dumps(payload, indent=2)`` places them, floats at 17 significant digits.
    Each distinct ``on_pairs`` array, keyed by ``id`` and then by its bytes, is one ``[[%d, %d], ...]`` line of the
    ``"patterns"`` table in first-use order; ``"intervals"`` is one line of ``[idx, pattern]`` entries.
    The header needs no check here: a :class:`PulseSchedule` holds only one that :func:`parse_schedule` reads back.
    """
    header = s.tau_seconds, s.flux_on_ratio, s.flux_off_ratio
    numbers = {}  # id(on_pairs) -> pattern number; s keeps each array alive, so no id is reused
    table = {}  # on_pairs bytes -> (pattern number, array), so equal arrays that are not shared make one pattern
    entries = []
    for iv in s.intervals:
        p = numbers.get(id(iv.on_pairs))
        if p is None:
            p = numbers[id(iv.on_pairs)] = table.setdefault(iv.on_pairs.tobytes(), (len(table), iv.on_pairs))[0]
        entries.append((iv.index, p))
    lines = ("    [" + ("[%d, %d], " * len(on))[:-2] % tuple(on.ravel().tolist()) + "]" for _, on in table.values())
    patterns = "[\n" + ",\n".join(lines) + "\n  ]" if table else "[]"
    return _LAYOUT % (SCHEDULE_SCHEMA_VERSION, *map(json_float, header), s.repetitions, patterns, json.dumps(entries))


@_collector_paused
def parse_schedule(text: str) -> PulseSchedule:
    """Parse and structurally validate the schedule JSON wire format, version 1 or 2.

    Rejects malformed JSON (naming the byte offset), unknown versions, missing or mistyped fields, non-positive
    interval length, an ``on`` list or pattern that is not int pairs, drives a node twice or holds a node outside
    the intp range, and an interval naming no pattern.  Each pair list goes straight to an intp array, and the
    intervals whose arrays hold the same bytes share the first one, checked once.
    """
    obj = _load_json(text, "schedule JSON")
    if not isinstance(obj, dict):
        raise ValidationError("schedule JSON must be an object")
    if "version" in obj and not (_is_index(obj["version"]) and obj["version"] in (1, 2)):  # true == 1.0 == 1
        raise ValidationError(f"unsupported schedule schema version {obj['version']!r}")
    for key in ("version", "tau_s", "flux_on", "flux_off", "steps", "intervals", "patterns"):
        if key not in obj and (key != "patterns" or obj["version"] == 2):  # only version 2 has patterns
            raise ValidationError(f'schedule JSON is missing key "{key}"')
    _check_header(*(obj[key] for key in (*_HEADER, "steps")))
    if not isinstance(obj["intervals"], list):
        raise ValidationError("intervals must be a list")
    floats = [float(obj[key]) for key in _HEADER]
    patterns: dict[bytes, np.ndarray] = {}  # the bytes of a checked pairs array -> that array
    if obj["version"] == 2:
        return PulseSchedule(*floats, obj["steps"], _v2_intervals(obj["patterns"], obj["intervals"], patterns))
    intervals = []
    for raw in obj["intervals"]:
        if not isinstance(raw, dict) or "idx" not in raw or "on" not in raw:
            raise ValidationError(f"interval entry {raw!r} needs 'idx' and 'on'")
        if not _is_index(raw["idx"]):
            raise ValidationError(f"interval idx must be an integer, got {raw['idx']!r}")
        if not isinstance(raw["on"], list):
            raise ValidationError(f"interval {raw['idx']}: on must be a list of pairs")
        intervals.append(PulseInterval(raw["idx"], _pattern(f"interval {raw['idx']}", raw["on"], patterns)))
    return PulseSchedule(*floats, obj["steps"], intervals)


def _v2_intervals(table, entries: list, patterns: dict) -> list[PulseInterval]:
    """The ``[idx, pattern]`` entries, each naming a table pattern; every pattern is checked, once."""
    if not isinstance(table, list):
        raise ValidationError("patterns must be a list")
    for p, on in enumerate(table):
        if not isinstance(on, list):
            raise ValidationError(f"pattern {p}: must be a list of pairs")
        table[p] = _pattern(f"pattern {p}", on, patterns)
    flat = _int_pairs(entries)
    if flat is None:
        bad = next(entry for entry in entries if _int_pairs([entry]) is None)
        raise ValidationError(f"interval entry {bad!r} must be [idx, pattern], two integers")
    for idx, p in zip(flat[0::2], flat[1::2]):
        if not 0 <= p < len(table):
            raise ValidationError(f"interval {idx}: pattern {p} outside [0, {len(table)})")
    return [PulseInterval(idx, table[p]) for idx, p in zip(flat[0::2], flat[1::2])]


def _pattern(where: str, on: list, patterns: dict) -> np.ndarray:
    """``on`` as a read-only ``(p, 2)`` intp array, checked once per distinct pattern, which ``patterns`` maps from
    its bytes; the pairs are walked only to word a fault, so the first bad pair in ``on`` is the one named."""
    try:
        pairs = _pair_array(where, on)
    except ValidationError:  # a pair ahead of the one named may repeat a node or drive one twice
        _raise_first_bad_pair(where, on)
        raise
    if (shared := patterns.get(key := pairs.tobytes())) is not None:
        return shared
    nodes = np.sort(pairs, axis=None)  # not bincount: a node may be as large as the intp maximum
    if (nodes[1:] == nodes[:-1]).any():
        _raise_first_bad_pair(where, on)
    patterns[key] = pairs
    return pairs


def _pair_array(where: str, on) -> np.ndarray:
    """``on`` as a read-only ``(p, 2)`` intp array; else names the first pair that is not two ints, Python or numpy
    (a bool is neither), or holds a node outside the intp range."""
    if (flat := _int_pairs(on)) is None:
        for pair in on:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(
                type(v) is int or isinstance(v, np.integer) for v in pair  # type() is int excludes bool
            ):
                raise ValidationError(f"{where}: pair {pair!r} must be a list of two node indices")
        flat = [int(v) for pair in on for v in pair]
    try:
        pairs = np.array(flat, dtype=np.intp).reshape(-1, 2)
    except OverflowError:
        bad = next(pair for pair in on if not all(-_MAX_INDEX - 1 <= int(v) <= _MAX_INDEX for v in pair))
        raise ValidationError(f"{where}: pair {bad!r} has a node outside [{-_MAX_INDEX - 1}, {_MAX_INDEX}]") from None
    pairs.flags.writeable = False
    return pairs


def _raise_first_bad_pair(where: str, on: list) -> None:
    """Name the first pair that repeats a node or drives one again, up to the first that is not two ints."""
    driven: set[int] = set()
    for pair in on:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_index, pair))):
            return
        i, j = pair
        if i == j:
            raise ValidationError(f"{where}: pair {pair!r} repeats a node")
        for v in (i, j):
            if v in driven:
                raise ValidationError(f"{where}: node {v} is driven by more than one pair")
            driven.add(v)
