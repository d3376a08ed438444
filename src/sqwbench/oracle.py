"""Brute-force dense-matrix references used by tests and acceptance runs.

Everything here trades speed for independence: dense operators are
assembled entry by entry and exponentials come from a truncated power
series with scaling and squaring.  None of it shares code with the
analytic 2x2 rotations in :mod:`sqwbench.walk`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError
from .graph import Tessellation, TessellationSet

__all__ = ["dense_hamiltonian", "taylor_expm", "brute_force_evolve"]

MAX_DENSE_DIMENSION = 256
MAX_EVOLVE_DIMENSION = 64


def dense_hamiltonian(t: Tessellation) -> np.ndarray:
    """Explicit reflection matrix 2*sum |a><a| - I for a tessellation of its own node range."""
    n = 2 * len(t.pairs) + len(t.singletons)
    if n > MAX_DENSE_DIMENSION:
        raise ValidationError(f"dense oracle limited to dimension {MAX_DENSE_DIMENSION}, got {n}")
    if not t.partitions(n):
        raise ValidationError(f"pairs and singletons must partition the node range [0, {n})")
    m = -np.eye(n)
    for i, j in t.pairs.tolist():
        m[i, i] += 1.0
        m[j, j] += 1.0
        m[i, j] += 1.0
        m[j, i] += 1.0
    for i in t.singletons.tolist():
        m[i, i] += 2.0
    return m


def taylor_expm(m: np.ndarray, scalar: complex = 1.0, tol: float = 1e-13, max_terms: int = 80) -> np.ndarray:
    """exp(scalar * m) by truncated power series with scaling and squaring.

    The matrix is halved until its 1-norm is at most 1/2, the series is
    summed until a geometric tail bound on the dropped terms falls below
    ``tol``, and the result is squared back up.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("taylor_expm needs a square matrix")
    if a.shape[0] > MAX_DENSE_DIMENSION:
        raise ValidationError(f"dense oracle limited to dimension {MAX_DENSE_DIMENSION}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite")
    if a.shape[0] == 0:
        return a.astype(complex)
    a = scalar * a
    norm = np.abs(a).sum(axis=0).max()
    squarings = 0
    while norm > 0.5:
        a = a / 2.0
        norm = norm / 2.0
        squarings += 1
    n = a.shape[0]
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, max_terms + 1):
        term = term @ a / k
        total += term
        term_norm = np.abs(term).sum(axis=0).max()
        ratio = norm / (k + 1)
        tail = term_norm * ratio / (1.0 - ratio)
        if tail < tol:
            break
    else:
        raise NumericError(f"power series did not reach tail bound {tol} within {max_terms} terms")
    for _ in range(squarings):
        total = total @ total
    return total


def brute_force_evolve(state, ts: TessellationSet, theta: float, steps: int) -> np.ndarray:
    """Dense-matrix staggered evolution: per step, apply exp(i*theta*H_k) in list order."""
    psi = np.asarray(state, dtype=complex)
    n = psi.shape[0]
    if n > MAX_EVOLVE_DIMENSION:
        raise ValidationError(f"brute-force evolution limited to dimension {MAX_EVOLVE_DIMENSION}, got {n}")
    if steps < 0:
        raise ValidationError("steps must be non-negative")
    operators = []
    for t in ts:
        h = dense_hamiltonian(t)
        if h.shape[0] != n:
            raise ValidationError(f"tessellation covers {h.shape[0]} nodes, state has dimension {n}")
        operators.append(taylor_expm(h, 1j * theta))
    for _ in range(steps):
        for u in operators:
            psi = u @ psi
    return psi
