"""Independent reference for the benchmark's correctness checks.

Nothing here calls into ``sqwbench``.  A tessellation is an ``(p, 2)``
integer array of its pairs; every node not in a pair is a singleton.
Its reflection operator H = 2 sum |a><a| - I swaps the two nodes of each
pair and fixes each singleton, so H is a permutation, H^2 = I, and

    exp(i theta H) = cos(theta) I + i sin(theta) H.

Under the physical convention singletons are left untouched instead of
picking up exp(i theta).
"""

from __future__ import annotations

import math

import numpy as np

# Amplitudes and probabilities from the program must agree with this
# reference to within TOL.  Both sides round in float64 only, so after the
# ~1000 local unitaries of the largest workload the expected difference is
# ~1e-13; a wrong operator differs by O(1) somewhere.
TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _pairs(lo: np.ndarray, stride: int) -> np.ndarray:
    return np.stack([lo, lo + stride], axis=1)


def path_tessellations(n: int) -> list[np.ndarray]:
    """Pairs (2k, 2k+1), then pairs (2k+1, 2k+2)."""
    return [_pairs(np.arange(0, n - 1, 2), 1), _pairs(np.arange(1, n - 1, 2), 1)]


def _lattice_coords(dims) -> tuple[np.ndarray, list[int]]:
    coords = np.indices(dims).reshape(len(dims), -1)
    strides = [math.prod(dims[axis + 1 :]) for axis in range(len(dims))]
    return coords, strides


def lattice_edges(dims) -> np.ndarray:
    coords, strides = _lattice_coords(dims)
    nodes = np.arange(coords.shape[1])
    return np.concatenate(
        [_pairs(nodes[coords[axis] + 1 < dims[axis]], strides[axis]) for axis in range(len(dims))]
    )


def lattice_tessellations(dims) -> list[np.ndarray]:
    """Two tessellations per axis, split by the parity of the coordinate sum."""
    coords, strides = _lattice_coords(dims)
    nodes = np.arange(coords.shape[1])
    parity = coords.sum(axis=0) % 2
    return [
        _pairs(nodes[(coords[axis] + 1 < dims[axis]) & (parity == p)], strides[axis])
        for axis in range(len(dims))
        for p in (0, 1)
    ]


def edge_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    lo = pairs.min(axis=1).astype(np.int64)
    hi = pairs.max(axis=1).astype(np.int64)
    return lo * n + hi


def max_degree(n: int, edges: np.ndarray) -> int:
    return int(np.bincount(edges.ravel(), minlength=n).max()) if len(edges) else 0


def is_triangle_free(n: int, edges: np.ndarray) -> bool:
    adjacency = [set() for _ in range(n)]
    for i, j in edges.tolist():
        adjacency[i].add(j)
        adjacency[j].add(i)
    return all(not (adjacency[i] & adjacency[j]) for i, j in edges.tolist())


def check_tessellations(n: int, edges: np.ndarray, tessellations: list[np.ndarray]) -> None:
    """Each tessellation is a matching of graph edges, and together they cover every edge."""
    graph_keys = np.unique(edge_keys(edges, n))
    require(len(graph_keys) == len(edges), "graph has repeated edges")
    covered = []
    for k, pairs in enumerate(tessellations):
        require(pairs.ndim == 2 and pairs.shape[1] == 2, f"tessellation {k}: pairs are not an (p, 2) array")
        if len(pairs) == 0:
            continue
        require(int(pairs.min()) >= 0 and int(pairs.max()) < n, f"tessellation {k}: node out of range")
        require(int(np.bincount(pairs.ravel(), minlength=n).max()) <= 1, f"tessellation {k}: node in two pairs")
        keys = edge_keys(pairs, n)
        require(bool(np.isin(keys, graph_keys).all()), f"tessellation {k}: pair is not a graph edge")
        covered.append(keys)
    union = np.unique(np.concatenate(covered)) if covered else np.empty(0, dtype=np.int64)
    require(np.array_equal(union, graph_keys), "tessellations do not cover every edge")


def walk(psi0: np.ndarray, tessellations: list[np.ndarray], theta: float, steps: int, keep_probabilities=False):
    """Apply exp(i theta H_k) for each tessellation k, ``steps`` times (physical convention).

    Returns the final state, or ``(final_state, probabilities)`` with one
    row per recorded step (row 0 is the input) when ``keep_probabilities``.
    """
    n = psi0.shape[0]
    c, s = math.cos(theta), math.sin(theta)
    operators = []
    for pairs in tessellations:
        swap = np.arange(n)
        swap[pairs[:, 0]] = pairs[:, 1]
        swap[pairs[:, 1]] = pairs[:, 0]
        operators.append((swap, swap == np.arange(n)))
    psi = np.array(psi0, dtype=complex)
    probabilities = [np.abs(psi) ** 2] if keep_probabilities else None
    for _ in range(steps):
        for swap, singleton in operators:
            nxt = c * psi + 1j * s * psi[swap]
            nxt[singleton] = psi[singleton]
            psi = nxt
        if keep_probabilities:
            probabilities.append(np.abs(psi) ** 2)
    if keep_probabilities:
        return psi, np.array(probabilities)
    return psi


def basis_state(n: int, node: int) -> np.ndarray:
    psi = np.zeros(n, dtype=complex)
    psi[node] = 1.0
    return psi
