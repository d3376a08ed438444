"""Graphs, triangle-free checks, and tessellations.

A tessellation partitions the node set into cliques.  On triangle-free
graphs cliques have at most two nodes, so every tessellation element is
either a single node or an edge.  A tessellation set is an ordered tuple
of tessellations whose two-node elements jointly cover every edge; the
order fixes the order in which the walk's local operators are applied.
"""

from __future__ import annotations

import json
import math
import warnings
from functools import cached_property
from itertools import chain, count, islice

import numpy as np

from .errors import ValidationError, _int_pairs, _is_index, _load_json

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
_KEY_BOUND = math.isqrt(_MAX_INDEX + 1)  # b <= this keeps keys low * b + high of nodes below b within an intp


class Graph:
    """Simple undirected graph on nodes 0..node_count-1.

    ``edge_array`` holds the edges once, canonically: a read-only ``(m, 2)`` int array, each row low-high, the rows
    sorted, no duplicates and no self-loops.  ``edges`` is the same list as int tuples.
    """

    def __init__(self, node_count: int, edges=()):
        if not _is_index(node_count) or node_count < 0:
            raise ValidationError(f"node_count must be a non-negative integer, got {node_count!r}")
        if node_count > _MAX_INDEX:
            raise ValidationError(f"node_count must be at most {_MAX_INDEX}, got {node_count}")
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        # the endpoint list, rebound to its array so that the list is freed before the sort
        pairs = _int_pairs(edges)
        try:
            pairs = None if pairs is None else np.array(pairs, dtype=np.intp).reshape(-1, 2)
        except OverflowError:
            pairs = None
        # all at once when every pair is in range and joins two nodes; else edge by edge, naming the first bad edge
        if pairs is None or pairs.size and (
            pairs.min() < 0 or pairs.max() >= node_count or (pairs[:, 0] == pairs[:, 1]).any()
        ):
            pairs = _checked_edges(node_count, edges)
        self._set(node_count, pairs)

    @classmethod
    def _from_array(cls, node_count: int, pairs) -> Graph:
        """The given in-range pairs of distinct nodes, in any order and orientation."""
        g = cls.__new__(cls)
        g._set(node_count, pairs)
        return g

    def _set(self, node_count: int, pairs) -> None:
        pairs = _canonical_pairs(pairs)
        if len(pairs):  # compress and take move (m, 2) rows several times faster than a mask or an index array
            new = (pairs[1:, 0] != pairs[:-1, 0]) | (pairs[1:, 1] != pairs[:-1, 1])
            pairs = pairs.compress(np.r_[True, new], axis=0)
        pairs.flags.writeable = False
        self.node_count, self.edge_array = node_count, pairs

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    def max_degree(self) -> int:
        endpoints, keys = self._ranks
        return int(np.bincount(np.concatenate(np.divmod(keys, endpoints.size))).max()) if keys.size else 0

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.node_count, self.edge_array.tobytes()))

    def __repr__(self):  # from edge_array, so printing a graph does not cache its m edge tuples in ``edges``
        return f"Graph(node_count={self.node_count!r}, edges={tuple(map(tuple, self.edge_array.tolist()))!r})"

    @cached_property
    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The e sorted endpoints that index the nodes, and each row's key ``low * e + high`` on those indices.

        When the largest endpoint is below 4m a node is its own index: the endpoints are ``arange(e)``, some perhaps
        on no edge.  Otherwise a node's index is its rank among them.  So e <= 4m, and arrays indexed by nodes are
        sized by the edges, not by ``node_count``.  Keys sort like the rows; ``np.divmod(keys, e)`` gives the indices.
        """
        low, high = self.edge_array.T
        size = int(high.max(initial=-1)) + 1
        if size <= 4 * len(high):
            return np.arange(size), low * size + high
        # sort and compare neighbours: faster than np.unique's hash path, and a lower peak than its return_inverse
        flat = np.sort(self.edge_array, axis=None)
        endpoints = np.r_[flat[:1], flat[1:][flat[1:] != flat[:-1]]]
        low, high = (np.searchsorted(endpoints, column) for column in (low, high))
        return endpoints, low * endpoints.size + high

    def _edge_index(self, pairs: np.ndarray) -> np.ndarray:
        """Row of ``edge_array`` equal to each low-high row of ``pairs``, or -1 for a non-edge."""
        endpoints, keys = self._ranks
        if not keys.size:
            return np.full(len(pairs), -1, dtype=np.intp)
        size = endpoints.size
        # a node is its own index when the endpoints are 0..size-1 (see _ranks); one clipped into range fails below
        query = np.clip(pairs if endpoints[-1] < size else np.searchsorted(endpoints, pairs), 0, size - 1)
        key = query[:, 0] * size + query[:, 1]
        row = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        same = endpoints[query] == pairs  # compared column by column: .all(axis=1) is several times slower
        return np.where(same[:, 0] & same[:, 1] & (keys[row] == key), row, -1)


def _canonical_pairs(pairs) -> np.ndarray:
    """``pairs`` as a ``(p, 2)`` intp array, each row ordered low-high and the rows sorted: by one key
    ``low * b + high``, b the largest node + 1, when every node is in [0, ``_KEY_BOUND``), else by ``np.lexsort``."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    low, high = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    b = int(high.max(initial=-1)) + 1
    if b > _KEY_BOUND or low.min(initial=0) < 0:
        return np.stack((low, high), axis=1).take(np.lexsort((high, low)), axis=0)
    out = np.empty_like(pairs)
    np.divmod(np.sort(low * b + high), b, out=(out[:, 0], out[:, 1]))
    return out


def _checked_edges(node_count: int, edges) -> np.ndarray:
    """The edges checked one at a time; the first that fails :class:`Graph`'s whole-list test is named."""
    checked = []
    for edge in edges:
        try:
            edge = tuple(edge)
            i, j = edge
        except (TypeError, ValueError):
            raise ValidationError(f"edge {edge!r} is not a pair") from None
        if not (_is_index(i) and _is_index(j)):
            raise ValidationError(f"edge {edge!r} has non-integer endpoints")
        if i == j:
            raise ValidationError(f"self-loop on node {i} is not allowed")
        if not (0 <= i < node_count and 0 <= j < node_count):
            raise ValidationError(f"edge {edge!r} references a node outside [0, {node_count})")
        checked.append(edge)
    return np.fromiter(chain.from_iterable(checked), dtype=np.intp, count=2 * len(checked))


class Tessellation:
    """A candidate partition of the node set into 1- and 2-node elements.

    ``pairs`` is a ``(p, 2)`` int array, each row ordered low-high and the rows sorted; ``singletons`` is a sorted
    int array.  Both are read-only, so two tessellations with the same elements compare equal regardless of the
    order they were given in.  Whether the elements actually partition a given graph's nodes is checked by
    :func:`validate_tessellation`.
    """

    __slots__ = ("pairs", "singletons", "_partner")

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
        self._set(_canonical_pairs(pairs), np.sort(np.array(singletons, dtype=np.intp)))

    @classmethod
    def _from_pairs(cls, pairs, node_count: int) -> Tessellation:
        """Disjoint in-range canonical rows, stored as given; every other node of range(node_count) is a singleton."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        paired = np.zeros(node_count, dtype=bool)
        paired[pairs] = True
        t = cls.__new__(cls)
        t._set(pairs, np.flatnonzero(~paired))
        return t

    def _set(self, pairs: np.ndarray, singletons: np.ndarray) -> None:
        pairs.flags.writeable = singletons.flags.writeable = False
        self.pairs, self.singletons, self._partner = pairs, singletons, None

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All elements as sorted node tuples, in sorted order."""
        return tuple(sorted([(v,) for v in self.singletons.tolist()] + list(map(tuple, self.pairs.tolist()))))

    def partitions(self, n: int) -> bool:
        """True iff the elements partition range(n); the verdict is computed once.

        It is cached as ``_partner``: for a partition, the reflection H as a permutation
        (pair nodes swapped, singletons fixed); otherwise ``False``, which fails every n, 0 too.
        """
        if self._partner is None:
            nodes = np.concatenate((self.pairs.ravel(), self.singletons))
            # nodes are non-negative, so n distinct values below n are exactly range(n)
            self._partner = False
            if nodes.size == 0 or (nodes.max() < nodes.size and np.bincount(nodes).max() == 1):
                self._partner = np.empty(nodes.size, dtype=np.intp)
                self._partner[self.pairs] = self.pairs[:, ::-1]
                self._partner[self.singletons] = self.singletons
        return self._partner is not False and self._partner.size == n

    def _swaps(self, n: int) -> np.ndarray:
        """The cached permutation of :meth:`partitions`; raises unless the elements partition range(n)."""
        if not self.partitions(n):
            raise ValidationError(f"pairs and singletons must partition the node range [0, {n})")
        return self._partner

    def __eq__(self, other):
        if not isinstance(other, Tessellation):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs) and np.array_equal(self.singletons, other.singletons)

    def __hash__(self):
        return hash((self.pairs.tobytes(), self.singletons.tobytes()))

    def __repr__(self):
        return f"Tessellation({self.elements!r})"


# ordered tessellations, a plain tuple; the order is the operator application order
TessellationSet = tuple


def build_graph(node_count: int, edges) -> Graph:
    """Build a normalized Graph, rejecting self-loops and out-of-range nodes."""
    return Graph(node_count, edges)


def is_triangle_free(g: Graph) -> bool:
    """True iff no three nodes of ``g`` are mutually adjacent.

    Each edge points from the node earlier in the order (degree, lowest neighbour, node) to the later one, so a
    triangle a < b < c holds the directed 2-path a -> b -> c and the edge (a, c).  Every directed 2-path u -> v -> w
    is listed and (u, w) looked up.  A node of degree d has at most min(d, 2m/d) <= sqrt(2m) out-neighbours, as each
    has degree d or more, so there are at most m*sqrt(2m) paths (Chiba & Nishizeki 1985); they are listed in slices
    of about m, so memory stays O(m).  The lowest-neighbour tie-break points every edge of a complete bipartite
    graph from one side to the other, which leaves no 2-paths however ids interleave.
    """
    endpoints, keys = g._ranks
    m, size = len(keys), len(endpoints)
    if not m:
        return True
    lo, hi = np.divmod(keys, size)
    # the row keys (see Graph._ranks) in both orientations, sorted, group each node's neighbours
    node, neighbour = np.divmod(np.sort(np.concatenate((keys, hi * size + lo))), size)
    first = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    # an index may be on no edge (see Graph._ranks), so degrees are counted and lowest neighbours scattered
    degree, lowest = np.bincount(node, minlength=size), np.zeros(size, dtype=np.intp)
    lowest[node[first]] = neighbour[first]
    # (degree, lowest neighbour, index) of lo against hi; lo < hi settles a tie
    forward = (degree[lo] < degree[hi]) | ((degree[lo] == degree[hi]) & (lowest[lo] <= lowest[hi]))
    tail, head = np.where(forward, lo, hi), np.where(forward, hi, lo)
    # out-neighbours of node v: out_heads[out_start[v] : out_start[v] + out_count[v]]
    out_heads = np.sort(tail * size + head) % size
    out_count = np.bincount(tail, minlength=size)
    out_start = np.cumsum(out_count) - out_count
    # edge e = u -> v begins the out_count[v] paths u -> v -> w, numbered from ends[e] - paths[e]
    paths = out_count[head]
    ends = np.cumsum(paths)
    begin = 0
    while begin < m:
        base = int(ends[begin - 1]) if begin else 0
        end = max(int(np.searchsorted(ends, base + m, side="right")), begin + 1)
        edge = np.repeat(np.arange(begin, end), paths[begin:end])
        offset = np.arange(edge.size) - np.repeat(ends[begin:end] - paths[begin:end] - base, paths[begin:end])
        u, w = tail[edge], out_heads[out_start[head[edge]] + offset]
        # sorted queries make searchsorted walk the keys once instead of jumping about
        closing = np.sort(np.minimum(u, w) * size + np.maximum(u, w))
        if (keys[np.minimum(np.searchsorted(keys, closing), m - 1)] == closing).any():
            return False
        begin = end
    return True


def validate_tessellation(g: Graph, t: Tessellation) -> list[str]:
    """Check that ``t`` partitions the nodes of ``g`` into cliques.

    Returns a list of human-readable violations; an empty list means the
    tessellation is valid.  Violations are data, not exceptions.
    """
    return _violations(g, t, g._edge_index(t.pairs))


def _violations(g: Graph, t: Tessellation, rows: np.ndarray) -> list[str]:
    """``validate_tessellation``'s violations, given the edge row ``g._edge_index`` finds for each pair of ``t``."""
    off_graph = [f"element {tuple(p)} is not an edge of the graph" for p in t.pairs.compress(rows < 0, axis=0).tolist()]
    if t.partitions(node_count := g.node_count):
        return off_graph
    violations, covered = [], set()
    for element in t.elements:
        for v in element:
            if v >= node_count:
                violations.append(f"element {element} references node {v} outside [0, {node_count})")
            elif v in covered:
                violations.append(f"node {v} appears in more than one element (second: {element})")
            covered.add(v)
    # count the uncovered nodes, and name the first 20 walking up from 0, so nothing is sized by node_count
    gap = node_count - sum(v < node_count for v in covered)
    first = list(islice((v for v in count() if v not in covered), min(gap, 20)))
    if gap > 20:
        violations.append(f"nodes {first} and {gap - 20} more ({gap} in all) are not covered by any element")
    elif gap:
        violations.append(f"nodes {first} are not covered by any element")
    return violations + off_graph


def validate_tessellation_set(g: Graph, ts: TessellationSet) -> list[str]:
    """Validate every tessellation and the union edge-cover requirement."""
    violations = []
    covered = np.zeros(len(g.edge_array), dtype=bool)
    for k, t in enumerate(ts):
        rows = g._edge_index(t.pairs)
        violations.extend(f"tessellation {k}: {msg}" for msg in _violations(g, t, rows))
        covered[rows[rows >= 0]] = True
    if not covered.all():
        uncovered = list(map(tuple, g.edge_array[~covered].tolist()))
        violations.append(f"edges {uncovered} are not covered by any tessellation")
    return violations


def generate_path_tessellations(node_count: int) -> tuple[Graph, TessellationSet]:
    """Open path graph with its two alternating tessellations.

    Tessellation 0 pairs nodes (2k, 2k+1), tessellation 1 pairs
    (2k+1, 2k+2); boundary nodes left over by either pairing become
    singletons.  This is the 1-D lattice.
    """
    if not _is_index(node_count):
        raise ValidationError(f"path node count must be an integer, got {node_count!r}")
    if node_count < 1:
        raise ValidationError("path needs at least one node")
    return generate_lattice_tessellations([node_count])


def generate_lattice_tessellations(dims) -> tuple[Graph, TessellationSet]:
    """Open N-dimensional lattice with its 2N staggered tessellations.

    Nodes are indexed row-major over ``dims``.  For each axis there are two tessellations: the edge from a node to
    its axis-successor goes into the tessellation selected by the parity of the node's coordinate sum.  Both parities
    together cover every edge of the axis, every interior node is paired in all 2N tessellations, and the 1-D case
    is the path construction.
    """
    dims = list(dims)
    if not dims:
        raise ValidationError("lattice needs at least one dimension")
    if not all(map(_is_index, dims)):
        raise ValidationError(f"lattice dimensions must be integers, got {dims}")
    if any(d < 1 for d in dims):
        raise ValidationError(f"lattice dimensions must be >= 1, got {dims}")
    try:
        nodes = np.arange(math.prod(dims), dtype=np.intp).reshape(dims)
    except (ValueError, OverflowError):  # numpy refuses to size 2**60 nodes or more, past any address space
        raise MemoryError(f"cannot allocate a lattice of {math.prod(dims)} nodes") from None
    parity = sum(np.ix_(*(np.arange(d) for d in dims))) % 2

    axis_pairs = []
    for axis in range(len(dims)):
        # each node that has an axis-successor, beside that successor
        head = tuple(slice(0, -1) if a == axis else slice(None) for a in range(len(dims)))
        tail = tuple(slice(1, None) if a == axis else slice(None) for a in range(len(dims)))
        axis_pairs.append((nodes[head], nodes[tail], parity[head]))

    edges = np.concatenate([np.stack((lo.ravel(), hi.ravel()), axis=1) for lo, hi, _ in axis_pairs])
    g = Graph._from_array(nodes.size, edges)
    tessellations = [
        Tessellation._from_pairs(np.stack((lo[par == p], hi[par == p]), axis=1), nodes.size)
        for lo, hi, par in axis_pairs
        for p in (0, 1)
    ]
    return g, tuple(tessellations)


def greedy_tessellate(g: Graph) -> TessellationSet:
    """Cover all edges of a triangle-free graph with maximal matchings.

    Each round takes a maximal matching of the still-uncovered edges, preferring edges whose endpoints have the
    highest remaining degree.  A maximal matching of a non-empty edge set is non-empty, so the loop ends.  An edge
    (u, v) still uncovered after round r was blocked in each of those rounds by a matched edge at u or at v, and
    there are at most 2 * max_degree - 2 such edges, so every edge is covered within 2 * max_degree - 1 rounds.
    A warning is issued when the count exceeds the maximum degree, as it must on class-2 graphs such as odd cycles.
    """
    if not is_triangle_free(g):
        raise ValidationError("graph contains a triangle; staggered tessellations need triangle-free input")
    max_degree = g.max_degree()
    endpoints, keys = g._ranks
    uncovered = np.stack(np.divmod(keys, endpoints.size), axis=1)
    tessellations = []
    while uncovered.size:
        degree = np.bincount(uncovered.ravel())
        b = int(degree.max()) + 1
        # by higher then lower endpoint degree, both descending, as one key below b*b in the narrowest type that
        # holds b*b: numpy's stable sort radix-sorts keys of 16 bits or fewer; rows tie in their sorted order
        degree = degree.astype(np.min_scalar_type(b * b))
        lo_degree, hi_degree = degree[uncovered[:, 0]], degree[uncovered[:, 1]]
        key = np.maximum(lo_degree, hi_degree) * b + np.minimum(lo_degree, hi_degree)
        order = np.argsort(b * b - 1 - key, kind="stable")
        matched = _greedy_matching(uncovered, order)
        tessellations.append(Tessellation._from_pairs(endpoints[uncovered.compress(matched, axis=0)], g.node_count))
        uncovered = uncovered.compress(~matched, axis=0)
    if not tessellations:
        tessellations.append(Tessellation._from_pairs([], g.node_count))
    if len(tessellations) > max_degree > 0:
        warnings.warn(
            f"needed {len(tessellations)} tessellations for maximum degree {max_degree}",
            RuntimeWarning,
            stacklevel=2,
        )
    return tuple(tessellations)


def _greedy_matching(pairs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Mask of the rows a scan of ``pairs`` in ``order`` keeps, keeping each row whose two nodes are still free.

    A live row that comes first at both its nodes is kept by the scan, and the live rows that
    share a node with it are not; each numpy pass settles all of those at once, and the rest
    stay live (Blelloch, Fineman & Shun 2012).  Once a pass settles fewer than a quarter of the
    live rows, as it does on a path, the scan itself finishes them in order.
    """
    matched = np.zeros(len(pairs), dtype=bool)
    used = np.zeros(int(pairs.max(initial=-1)) + 1, dtype=bool)
    first = np.empty(used.size, dtype=np.intp)  # each node's first scan position among the live rows
    live = order
    while live.size:
        ends = pairs.take(live, axis=0)
        lo, hi, position = ends[:, 0], ends[:, 1], np.arange(live.size)
        first.fill(live.size)
        np.minimum.at(first, lo, position)
        np.minimum.at(first, hi, position)
        kept = (first[lo] == position) & (first[hi] == position)
        matched[live[kept]] = True
        used[lo[kept]] = used[hi[kept]] = True
        rest = live[~(used[lo] | used[hi])]
        if 4 * (live.size - rest.size) < live.size:
            taken = used.tolist()  # no node of a rest row is used yet
            for k, (i, j) in zip(rest.tolist(), pairs.take(rest, axis=0).tolist()):
                if not (taken[i] or taken[j]):
                    matched[k] = taken[i] = taken[j] = True
            break
        live = rest
    return matched


def graph_to_json(g: Graph, ts: TessellationSet | None = None) -> str:
    """Serialize a graph (and optional tessellations) to the JSON wire format."""
    payload: dict = {"nodes": g.node_count, "edges": g.edge_array.tolist()}
    if ts is not None:
        payload["tessellations"] = [[list(el) for el in t.elements] for t in ts]
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> tuple[Graph, TessellationSet | None]:
    """Parse and validate the graph JSON wire format.

    Expects ``{"nodes": int, "edges": [[i, j], ...]}`` with an optional
    ``"tessellations"`` list.  Any supplied tessellation must validate
    against the graph.
    """
    obj = _load_json(text, "graph JSON")
    if not isinstance(obj, dict):
        raise ValidationError("graph JSON must be an object")
    if "nodes" not in obj or "edges" not in obj:
        raise ValidationError('graph JSON needs "nodes" and "edges" keys')
    if not _is_index(obj["nodes"]):
        raise ValidationError('"nodes" must be an integer')
    edges = obj["edges"] if isinstance(obj["edges"], list) else None  # build_graph's list(None) raises TypeError
    try:
        g = build_graph(obj["nodes"], edges)
    except (ValidationError, TypeError):
        # a value or an entry that is not a list takes precedence; every such JSON value fails build_graph
        if edges is None or not all(isinstance(e, list) for e in edges):
            raise ValidationError('"edges" must be a list of [i, j] pairs') from None
        raise
    ts = None
    if "tessellations" in obj and obj["tessellations"] is not None:
        if not isinstance(obj["tessellations"], list):
            raise ValidationError('"tessellations" must be a list of tessellations')
        tessellations = []
        for raw in obj["tessellations"]:
            if not isinstance(raw, list) or not all(isinstance(el, list) for el in raw):
                raise ValidationError(f"tessellation entry {raw!r} must be a list of node lists")
            tessellations.append(Tessellation(tuple(tuple(el) for el in raw)))
        ts = tuple(tessellations)
        if violations := validate_tessellation_set(g, ts):
            raise ValidationError("invalid tessellations in graph JSON: " + "; ".join(violations))
    return g, ts
