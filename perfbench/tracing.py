"""Spans around sqwbench's public functions, installed from outside the package.

Each wrapper replaces a function under the name its callers look it up
by (``sqwbench.cli.evolve``, ``sqwbench.walk.local_unitary``, ...), so a
span covers exactly one call as that caller sees it.  Spans stay in
memory as ``[name, start, end, parent, counts]`` and are written out by
the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _graph_counts(args, result):
    g, ts = result
    return {"nodes": g.node_count, "edges": len(g.edges), "tessellations": len(ts) if ts is not None else 0}


def _amplitudes(args, result):
    return {"amplitudes": len(result)}


# (module, attribute, span name, counts taken from the call's arguments and result)
TARGETS = [
    ("sqwbench.cli", "main", "cli.main", None),
    ("sqwbench.cli", "generate_path_tessellations", "graph.build", _graph_counts),
    ("sqwbench.cli", "generate_lattice_tessellations", "graph.build", _graph_counts),
    ("sqwbench", "generate_lattice_tessellations", "graph.build", _graph_counts),
    ("sqwbench.cli", "graph_from_json", "graph.build", _graph_counts),
    ("sqwbench.cli", "greedy_tessellate", "graph.greedy", lambda a, r: {"tessellations": len(r)}),
    ("sqwbench.graph", "is_triangle_free", "graph.validate", None),
    ("sqwbench.graph", "validate_tessellation", "graph.validate", None),
    ("sqwbench.graph", "validate_tessellation_set", "graph.validate", None),
    ("sqwbench.walk", "validate_tessellation", "graph.validate", None),
    ("sqwbench.schedule", "validate_tessellation_set", "graph.validate", None),
    ("sqwbench.cli", "initial_basis_state", "walk.initial_state", None),
    ("sqwbench", "initial_basis_state", "walk.initial_state", None),
    ("sqwbench.cli", "evolve", "walk.evolve", None),
    ("sqwbench", "evolve", "walk.evolve", None),
    ("sqwbench.walk", "hamiltonian_from_tessellation", "walk.spec", None),
    ("sqwbench.walk", "local_unitary", "walk.kernel", _amplitudes),
    ("sqwbench.cli", "probability_distribution", "walk.probability", None),
    ("sqwbench", "probability_distribution", "walk.probability", None),
    ("sqwbench", "spread_statistics", "walk.spread", None),
    ("sqwbench.cli", "dumps_17g", "format.dumps_17g", None),
    ("sqwbench.schedule", "dumps_17g", "format.dumps_17g", None),
    ("sqwbench.cli", "distribution_svg", "svgplot.render", None),
    ("sqwbench.cli", "compile_schedule", "schedule.compile", None),
    ("sqwbench.cli", "emit_schedule", "schedule.emit", None),
    ("sqwbench", "parse_schedule", "schedule.parse", None),
    ("sqwbench.cli", "validate_schedule", "schedule.validate", None),
    ("sqwbench", "validate_schedule", "schedule.validate", None),
    ("sqwbench.cli", "solve_operating_point", "circuit.operating_point", None),
    ("sqwbench.schedule", "solve_operating_point", "circuit.operating_point", None),
    ("sqwbench.circuit", "solve_mode", "circuit.solve_mode", None),
]


class Tracer:
    """Records nested spans while installed; ``with tracer:`` installs and restores the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, result)
            return result

        return wrapper

    def __enter__(self):
        for module_name, attribute, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                print(f"trace: {module_name}.{attribute} not found; its span is missing", file=sys.stderr)
                continue
            self._restore.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original, counts))
        return self

    def __exit__(self, *exc):
        for module, attribute, original in reversed(self._restore):
            setattr(module, attribute, original)
        self._restore.clear()
        return False


def inclusive_s(spans, names) -> float:
    """Time covered by spans named in ``names``, counting a span nested in another of them once."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def self_s(spans, name) -> float:
    """Duration of the spans called ``name`` minus the time their direct children cover."""
    total = 0.0
    for span in spans:
        if span[0] == name:
            total += span[2] - span[1]
        if span[3] >= 0 and spans[span[3]][0] == name:
            total -= span[2] - span[1]
    return total


def calls(spans, name) -> int:
    return sum(1 for span in spans if span[0] == name)


def count_sum(spans, name, key) -> int:
    return sum(span[4][key] for span in spans if span[0] == name and span[4])


def count_max(spans, names, key) -> int:
    return max((span[4][key] for span in spans if span[0] in names and span[4] and key in span[4]), default=0)
