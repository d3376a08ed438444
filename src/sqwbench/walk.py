"""Staggered-walk evolution of single-photon states.

Each tessellation yields a reflection operator H = 2*sum |a><a| - I
(one projector per element), which squares to the identity.  Its
exponential therefore acts on every 2-node element as the rotation

    [[cos(theta), i sin(theta)],
     [i sin(theta), cos(theta)]]

and the evolution never needs a dense matrix: amplitudes are updated
pair by pair.  Singleton elements pick up a phase that depends on the
convention: the abstract model applies exp(i*theta) (the reflection has
eigenvalue +1 there), while the hardware-facing physical convention
leaves them untouched (the uncoupled resonator contributes only its
bare frequency, dropped as a global phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import Graph, Tessellation, TessellationSet, validate_tessellation

__all__ = [
    "CONVENTION_ABSTRACT",
    "CONVENTION_PHYSICAL",
    "WalkConfig",
    "hamiltonian_from_tessellation",
    "initial_basis_state",
    "local_unitary",
    "evolve",
    "probability_distribution",
    "spread_statistics",
]

CONVENTION_ABSTRACT = "abstract"
CONVENTION_PHYSICAL = "physical"

# together these bound how far a state stored as float64 may drift from unit norm
_NORM_ATOL = 1e-8


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: rotation angle theta = kappa*tau, step count, and singleton convention."""

    theta: float
    steps: int = 1
    convention: str = CONVENTION_PHYSICAL

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValidationError(f"theta must be finite, got {self.theta!r}")
        if not isinstance(self.steps, int) or self.steps < 0:
            raise ValidationError(f"steps must be a non-negative integer, got {self.steps!r}")
        if self.convention not in (CONVENTION_ABSTRACT, CONVENTION_PHYSICAL):
            raise ValidationError(f"convention must be 'abstract' or 'physical', got {self.convention!r}")


def hamiltonian_from_tessellation(g: Graph, t: Tessellation) -> Tessellation:
    """The tessellation itself, once validated against its graph.

    A tessellation determines its reflection operator
    H = 2*sum |a><a| - I, with |a> = (|i> + |j>)/sqrt(2) for a pair and
    |a> = |i> for a singleton, hence H^2 = I.
    """
    violations = validate_tessellation(g, t)
    if violations:
        raise ValidationError("invalid tessellation: " + "; ".join(violations))
    return t


def _require_partition(t: Tessellation, n: int) -> Tessellation:
    if not t.partitions(n):
        raise ValidationError(f"pairs and singletons must partition the node range [0, {n})")
    return t


def initial_basis_state(n: int, node: int) -> np.ndarray:
    """Single photon localized in one resonator: amplitude 1 at ``node``."""
    if not 0 <= node < n:
        raise ValidationError(f"start node {node} outside [0, {n})")
    state = np.zeros(n, dtype=complex)
    state[node] = 1.0
    return state


def _as_state(state) -> np.ndarray:
    psi = np.asarray(state, dtype=complex)
    if psi.ndim != 1:
        raise ValidationError("state must be a one-dimensional amplitude vector")
    norm_sq = float(np.vdot(psi, psi).real)
    # inverted comparison so NaN amplitudes are rejected too
    if not abs(norm_sq - 1.0) <= _NORM_ATOL:
        raise ValidationError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
    return psi


def local_unitary(state, t: Tessellation, cfg: WalkConfig) -> np.ndarray:
    """Apply exp(i*theta*H) for one tessellation of the state's nodes.

    Pairs get the analytic 2x2 rotation; singletons get exp(i*theta)
    under the abstract convention and 1 under the physical one.
    """
    psi = _as_state(state)
    _require_partition(t, psi.shape[0])
    out = psi.copy()
    c = math.cos(cfg.theta)
    s = math.sin(cfg.theta)
    if len(t.pairs):
        rows = t.pairs[:, 0]
        cols = t.pairs[:, 1]
        a = out[rows]
        b = out[cols]
        out[rows] = c * a + 1j * s * b
        out[cols] = 1j * s * a + c * b
    if cfg.convention == CONVENTION_ABSTRACT and len(t.singletons):
        out[t.singletons] *= complex(c, s)
    return out


def evolve(
    state,
    ts: TessellationSet,
    cfg: WalkConfig,
    graph: Graph | None = None,
    keep_history: bool = False,
):
    """Apply one local unitary per tessellation, in order, ``cfg.steps`` times.

    With a graph, every tessellation is validated against it first;
    without one, only the partition structure is checked.  When
    ``keep_history`` is set, returns ``(final_state, history)`` where
    ``history[l]`` is the state after l full steps (index 0 is the
    input); otherwise just the final state.
    """
    psi = _as_state(state)
    n = psi.shape[0]
    if graph is not None:
        if graph.node_count != n:
            raise ValidationError(f"graph has {graph.node_count} nodes but state has dimension {n}")
        tessellations = [hamiltonian_from_tessellation(graph, t) for t in ts]
    else:
        tessellations = [_require_partition(t, n) for t in ts]
    history = [psi.copy()] if keep_history else None
    for _ in range(cfg.steps):
        for t in tessellations:
            psi = local_unitary(psi, t, cfg)
        if keep_history:
            history.append(psi.copy())
    if keep_history:
        return psi, history
    return psi


def probability_distribution(state) -> np.ndarray:
    """Node-occupation probabilities |amplitude|^2 of a unit-norm state."""
    psi = _as_state(state)
    return np.abs(psi) ** 2


def spread_statistics(history, origin: int) -> np.ndarray:
    """Standard deviation of the walker position about ``origin``, per recorded step."""
    if len(history) == 0:
        raise ValidationError("history must contain at least one distribution")
    sigmas = []
    for dist in history:
        p = np.asarray(dist, dtype=float)
        if not abs(p.sum() - 1.0) <= _NORM_ATOL:
            raise ValidationError(f"distribution sums to {p.sum()!r}, not 1")
        x = np.arange(p.shape[0], dtype=float) - origin
        mean = float(p @ x)
        second = float(p @ (x * x))
        sigmas.append(math.sqrt(max(second - mean * mean, 0.0)))
    return np.asarray(sigmas)
