"""Graphs, triangle-free checks, and tessellations.

A tessellation partitions the node set into cliques.  On triangle-free
graphs cliques have at most two nodes, so every tessellation element is
either a single node or an edge.  A tessellation set is an ordered list
of tessellations whose two-node elements jointly cover every edge; the
order fixes the order in which the walk's local operators are applied.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

__all__ = [
    "Graph",
    "Tessellation",
    "TessellationSet",
    "build_graph",
    "is_triangle_free",
    "validate_tessellation",
    "validate_tessellation_set",
    "generate_path_tessellations",
    "generate_lattice_tessellations",
    "greedy_tessellate",
    "graph_to_json",
    "graph_from_json",
]


_MAX_INDEX = np.iinfo(np.intp).max


def _is_index(value) -> bool:
    # bool is an int subclass; JSON true/false must not pass as node indices
    return isinstance(value, int) and not isinstance(value, bool)


def _pair_keys(pairs: np.ndarray, node_count: int) -> np.ndarray:
    """Key i*n + j of each low-high pair; -1 (no edge's key) where j lies outside the graph."""
    keys = pairs[:, 0].astype(np.int64) * node_count + pairs[:, 1]
    keys[pairs[:, 1] >= node_count] = -1
    return keys


def _among(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    return sorted_keys[np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)] == keys


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..node_count-1.

    Edges are stored canonically: each pair ordered low-high, the whole
    tuple sorted, no duplicates, no self-loops.  Use :func:`build_graph`
    to construct from unnormalized input.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not _is_index(self.node_count) or self.node_count < 0:
            raise ValidationError(f"node_count must be a non-negative integer, got {self.node_count!r}")
        seen = set()
        normalized = []
        for edge in self.edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not a pair") from None
            if not (_is_index(i) and _is_index(j)):
                raise ValidationError(f"edge {edge!r} has non-integer endpoints")
            if i == j:
                raise ValidationError(f"self-loop on node {i} is not allowed")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ValidationError(f"edge {edge!r} references a node outside [0, {self.node_count})")
            key = (min(i, j), max(i, j))
            if key not in seen:
                seen.add(key)
                normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.node_count)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def max_degree(self) -> int:
        if not self.edges:
            return 0
        return max(len(nbrs) for nbrs in self.adjacency().values())

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        # sorted, because the edges are
        return _pair_keys(np.array(self.edges, dtype=np.intp).reshape(-1, 2), self.node_count)


class Tessellation:
    """A candidate partition of the node set into 1- and 2-node elements.

    ``pairs`` is a ``(p, 2)`` int array, each row ordered low-high and
    the rows sorted; ``singletons`` is a sorted int array.  Both are
    read-only, so two tessellations with the same elements compare
    equal regardless of the order they were given in.  Whether the
    elements actually partition a given graph's nodes is checked by
    :func:`validate_tessellation`.
    """

    __slots__ = ("pairs", "singletons", "_partition_size")

    def __init__(self, elements):
        pairs, singletons = [], []
        for element in elements:
            try:
                nodes = tuple(sorted(element))
            except TypeError:
                raise ValidationError(f"tessellation element {element!r} is not a node collection") from None
            if len(nodes) not in (1, 2):
                raise ValidationError(f"tessellation element {element!r} must have 1 or 2 nodes")
            if any(not _is_index(v) or not 0 <= v <= _MAX_INDEX for v in nodes):
                raise ValidationError(f"tessellation element {element!r} has invalid node indices")
            if len(nodes) == 2 and nodes[0] == nodes[1]:
                raise ValidationError(f"tessellation element {element!r} repeats a node")
            if len(nodes) == 2:
                pairs.append(nodes)
            else:
                singletons.append(nodes[0])
        self._set(np.array(pairs, dtype=np.intp).reshape(-1, 2), np.array(singletons, dtype=np.intp))

    @classmethod
    def _from_pairs(cls, pairs, node_count: int) -> Tessellation:
        """The given disjoint in-range pairs, with every other node of range(node_count) a singleton."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        paired = np.zeros(node_count, dtype=bool)
        paired[pairs] = True
        t = cls.__new__(cls)
        t._set(pairs, np.flatnonzero(~paired))
        return t

    def _set(self, pairs: np.ndarray, singletons: np.ndarray) -> None:
        pairs = np.sort(pairs, axis=1)
        # column-major, so each column is a contiguous index array for the kernel's gathers
        self.pairs = np.asfortranarray(pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])
        self.singletons = np.sort(singletons)
        self.pairs.flags.writeable = False
        self.singletons.flags.writeable = False
        self._partition_size = None

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All elements as sorted node tuples, in sorted order."""
        return tuple(sorted([(v,) for v in self.singletons.tolist()] + list(map(tuple, self.pairs.tolist()))))

    def partitions(self, n: int) -> bool:
        """True iff the elements partition range(n); the verdict is computed once."""
        if self._partition_size is None:
            nodes = np.concatenate((self.pairs.ravel(), self.singletons))
            # nodes are non-negative, so n distinct values below n are exactly range(n)
            distinct = nodes.size == 0 or (nodes.max() < nodes.size and np.bincount(nodes).max() == 1)
            self._partition_size = nodes.size if distinct else -1
        return self._partition_size == n

    def __eq__(self, other):
        if not isinstance(other, Tessellation):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs) and np.array_equal(self.singletons, other.singletons)

    def __hash__(self):
        return hash((self.pairs.tobytes(), self.singletons.tobytes()))

    def __repr__(self):
        return f"Tessellation({self.elements!r})"


@dataclass(frozen=True)
class TessellationSet:
    """Ordered tessellations; the order is the operator application order."""

    tessellations: tuple[Tessellation, ...]

    def __post_init__(self):
        object.__setattr__(self, "tessellations", tuple(self.tessellations))

    def __iter__(self):
        return iter(self.tessellations)

    def __len__(self):
        return len(self.tessellations)

    def __getitem__(self, idx):
        return self.tessellations[idx]


def build_graph(node_count: int, edges) -> Graph:
    """Build a normalized Graph, rejecting self-loops and out-of-range nodes."""
    return Graph(node_count, tuple(tuple(e) for e in edges))


def is_triangle_free(g: Graph) -> bool:
    """True iff no three nodes of ``g`` are mutually adjacent."""
    adj = g.adjacency()
    return all(not (adj[i] & adj[j]) for i, j in g.edges)


def validate_tessellation(g: Graph, t: Tessellation) -> list[str]:
    """Check that ``t`` partitions the nodes of ``g`` into cliques.

    Returns a list of human-readable violations; an empty list means the
    tessellation is valid.  Violations are data, not exceptions.
    """
    violations = [] if t.partitions(g.node_count) else _partition_violations(t, g.node_count)
    off_graph = t.pairs[~_among(_pair_keys(t.pairs, g.node_count), g._edge_keys)]
    violations.extend(f"element {tuple(p)} is not an edge of the graph" for p in off_graph.tolist())
    return violations


def _partition_violations(t: Tessellation, node_count: int) -> list[str]:
    violations = []
    covered: set[int] = set()
    for element in t.elements:
        for v in element:
            if v >= node_count:
                violations.append(f"element {element} references node {v} outside [0, {node_count})")
            elif v in covered:
                violations.append(f"node {v} appears in more than one element (second: {element})")
            covered.add(v)
    missing = set(range(node_count)) - covered
    if missing:
        violations.append(f"nodes {sorted(missing)} are not covered by any element")
    return violations


def validate_tessellation_set(g: Graph, ts: TessellationSet) -> list[str]:
    """Validate every tessellation and the union edge-cover requirement."""
    violations = []
    for k, t in enumerate(ts):
        violations.extend(f"tessellation {k}: {msg}" for msg in validate_tessellation(g, t))
    covered = np.concatenate([np.empty(0, dtype=np.int64)] + [_pair_keys(t.pairs, g.node_count) for t in ts])
    uncovered = np.flatnonzero(~_among(g._edge_keys, np.sort(covered)))
    if uncovered.size:
        violations.append(f"edges {[g.edges[k] for k in uncovered.tolist()]} are not covered by any tessellation")
    return violations


def generate_path_tessellations(node_count: int) -> tuple[Graph, TessellationSet]:
    """Open path graph with its two alternating tessellations.

    Tessellation 0 pairs nodes (2k, 2k+1), tessellation 1 pairs
    (2k+1, 2k+2); boundary nodes left over by either pairing become
    singletons.  This is the 1-D lattice.
    """
    if node_count < 1:
        raise ValidationError("path needs at least one node")
    return generate_lattice_tessellations([node_count])


def generate_lattice_tessellations(dims) -> tuple[Graph, TessellationSet]:
    """Open N-dimensional lattice with its 2N staggered tessellations.

    Nodes are indexed row-major over ``dims``.  For each axis there are
    two tessellations: the edge from a node to its axis-successor goes
    into the tessellation selected by the parity of the node's
    coordinate sum.  Both parities together cover every edge of the
    axis, every interior node is paired in all 2N tessellations, and the
    1-D case is the path construction.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValidationError("lattice needs at least one dimension")
    if any(d < 1 for d in dims):
        raise ValidationError(f"lattice dimensions must be >= 1, got {dims}")
    nodes = np.arange(math.prod(dims), dtype=np.intp).reshape(dims)
    parity = sum(np.ix_(*(np.arange(d) for d in dims))) % 2

    axis_pairs = []
    for axis in range(len(dims)):
        # each node that has an axis-successor, beside that successor
        head = tuple(slice(0, -1) if a == axis else slice(None) for a in range(len(dims)))
        tail = tuple(slice(1, None) if a == axis else slice(None) for a in range(len(dims)))
        axis_pairs.append((nodes[head], nodes[tail], parity[head]))

    edges = np.concatenate([np.stack((lo.ravel(), hi.ravel()), axis=1) for lo, hi, _ in axis_pairs])
    g = build_graph(nodes.size, edges.tolist())
    tessellations = [
        Tessellation._from_pairs(np.stack((lo[par == p], hi[par == p]), axis=1), nodes.size)
        for lo, hi, par in axis_pairs
        for p in (0, 1)
    ]
    return g, TessellationSet(tuple(tessellations))


def greedy_tessellate(g: Graph) -> TessellationSet:
    """Cover all edges of a triangle-free graph with maximal matchings.

    Each round takes a maximal matching of the still-uncovered edges,
    preferring edges whose endpoints have the highest remaining degree
    (this keeps the round count at or below max_degree + 1 on every
    graph family we have exercised).  A warning is issued when the count
    exceeds the maximum degree, which can happen on class-2 graphs such
    as odd cycles.
    """
    if not is_triangle_free(g):
        raise ValidationError("graph contains a triangle; staggered tessellations need triangle-free input")
    max_degree = g.max_degree()
    uncovered = set(g.edges)
    tessellations = []
    while uncovered:
        degree: dict[int, int] = {}
        for i, j in uncovered:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        order = sorted(
            uncovered,
            key=lambda e: (-max(degree[e[0]], degree[e[1]]), -min(degree[e[0]], degree[e[1]]), e),
        )
        used: set[int] = set()
        matching = []
        for i, j in order:
            if i not in used and j not in used:
                matching.append((i, j))
                used.add(i)
                used.add(j)
        tessellations.append(Tessellation._from_pairs(matching, g.node_count))
        uncovered.difference_update(matching)
        if len(tessellations) > max_degree + 1:
            raise ValidationError(
                f"matching decomposition needed more than max_degree+1 = {max_degree + 1} rounds; "
                "supply explicit tessellations for this graph"
            )
    if not tessellations:
        tessellations.append(Tessellation._from_pairs([], g.node_count))
    if len(tessellations) > max_degree > 0:
        warnings.warn(
            f"needed {len(tessellations)} tessellations for maximum degree {max_degree}",
            RuntimeWarning,
            stacklevel=2,
        )
    return TessellationSet(tuple(tessellations))


def graph_to_json(g: Graph, ts: TessellationSet | None = None) -> str:
    """Serialize a graph (and optional tessellations) to the JSON wire format."""
    payload: dict = {"nodes": g.node_count, "edges": [list(e) for e in g.edges]}
    if ts is not None:
        payload["tessellations"] = [[list(el) for el in t.elements] for t in ts]
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> tuple[Graph, TessellationSet | None]:
    """Parse and validate the graph JSON wire format.

    Expects ``{"nodes": int, "edges": [[i, j], ...]}`` with an optional
    ``"tessellations"`` list.  Any supplied tessellation must validate
    against the graph.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed graph JSON at byte offset {exc.pos}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValidationError("graph JSON must be an object")
    if "nodes" not in obj or "edges" not in obj:
        raise ValidationError('graph JSON needs "nodes" and "edges" keys')
    if not _is_index(obj["nodes"]):
        raise ValidationError('"nodes" must be an integer')
    if not isinstance(obj["edges"], list) or not all(isinstance(e, list) for e in obj["edges"]):
        raise ValidationError('"edges" must be a list of [i, j] pairs')
    g = build_graph(obj["nodes"], [tuple(e) for e in obj["edges"]])
    ts = None
    if "tessellations" in obj and obj["tessellations"] is not None:
        if not isinstance(obj["tessellations"], list):
            raise ValidationError('"tessellations" must be a list of tessellations')
        tessellations = []
        for raw in obj["tessellations"]:
            if not isinstance(raw, list) or not all(isinstance(el, list) for el in raw):
                raise ValidationError(f"tessellation entry {raw!r} must be a list of node lists")
            tessellations.append(Tessellation(tuple(tuple(el) for el in raw)))
        ts = TessellationSet(tuple(tessellations))
        violations = validate_tessellation_set(g, ts)
        if violations:
            raise ValidationError("invalid tessellations in graph JSON: " + "; ".join(violations))
    return g, ts
