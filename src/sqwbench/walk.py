"""Staggered-walk evolution of single-photon states.

Each tessellation yields a reflection operator H = 2*sum |a><a| - I
(one projector per element), which squares to the identity.  Its
exponential is therefore

    exp(i*theta*H) = cos(theta) + i sin(theta) H,

where H swaps the two nodes of each pair, so the evolution never needs
a dense matrix: H psi is one gather of the state through the swap
permutation.  Singleton elements pick up a phase that depends on the
convention: the abstract model applies exp(i*theta) (the reflection has
eigenvalue +1 there), while the hardware-facing physical convention
leaves them untouched (the uncoupled resonator contributes only its
bare frequency, dropped as a global phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _is_index, _is_number, _not_finite
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
        if not _is_number(self.theta):
            raise ValidationError(f"theta must be a number, got {self.theta!r}")
        if fault := _not_finite("theta", self.theta):
            raise ValidationError(fault)
        if not _is_index(self.steps) or self.steps < 0:
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


def initial_basis_state(n: int, node: int) -> np.ndarray:
    """Single photon localized in one resonator: amplitude 1 at ``node``."""
    if not _is_index(n) or n < 0:
        raise ValidationError(f"node count must be a non-negative integer, got {n!r}")
    if not _is_index(node):
        raise ValidationError(f"start node must be an integer, got {node!r}")
    if not 0 <= node < n:
        raise ValidationError(f"start node {node} outside [0, {n})")
    state = np.zeros(n, dtype=complex)
    state[node] = 1.0
    return state


class _Checked(np.ndarray):
    """A view of evolve's own working array: :func:`_as_state` passes it without summing |psi|^2,
    and :func:`local_unitary` overwrites it instead of allocating a temporary."""


def _as_state(state) -> np.ndarray:
    if type(state) is _Checked:
        return state.view(np.ndarray)
    psi = np.asarray(state, dtype=complex)
    if psi.ndim != 1:
        raise ValidationError("state must be a one-dimensional amplitude vector")
    # summed over the float view by einsum's own loop: np.vdot hands large arrays to BLAS threads, which can stall
    flat = np.ascontiguousarray(psi).view(np.float64)
    norm_sq = float(np.einsum("i,i->", flat, flat))
    # inverted comparison so NaN amplitudes are rejected too
    if not abs(norm_sq - 1.0) <= _NORM_ATOL:
        raise ValidationError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
    return psi


def local_unitary(state, t: Tessellation, cfg: WalkConfig) -> np.ndarray:
    """Apply exp(i*theta*H) for one tessellation of the state's nodes.

    Returns cos(theta)*psi + i*sin(theta)*H psi, with H psi gathered
    through the tessellation's swap permutation; singletons get
    exp(i*theta) under the abstract convention and 1 under the physical one.
    The input is never written, except evolve's own working array (a ``_Checked`` view),
    which holds c*psi afterwards.
    """
    owned = type(state) is _Checked
    psi = _as_state(state)
    partner = t._swaps(psi.shape[0])
    c = math.cos(cfg.theta)
    s = math.sin(cfg.theta)
    kept = psi[t.singletons]
    out = psi[partner]  # i*s*H psi + c*psi in the gathered array, each product's operands in that order
    np.multiply(1j * s, out, out=out)
    out += np.multiply(c, psi, out=psi if owned else None)
    # H fixes singletons, so the formula gave them c*psi + i*s*psi; restore them, and for the
    # abstract phase take one in-place complex product, which can round differently from that sum
    out[t.singletons] = kept
    if cfg.convention == CONVENTION_ABSTRACT:
        out[t.singletons] *= complex(c, s)
    return out


def evolve(state, ts: TessellationSet, cfg: WalkConfig, graph: Graph, on_step=None) -> np.ndarray:
    """Apply one local unitary per tessellation, in order, ``cfg.steps`` times; return the final state.

    Each distinct tessellation object is validated against ``graph`` once, first.
    The state is checked on entry and on exit, not on each kernel call: every step is unitary.
    ``on_step(l, psi)`` is called with the state after l full steps, l = 0 (the input array
    itself) to ``cfg.steps``; it must not modify ``psi`` (one that does is caught on exit at
    the latest), and must copy it to keep it: the kernel overwrites evolve's working array,
    so a ``psi`` kept without a copy changes at the next step.  The input itself is copied
    once, after ``on_step(0, ...)``, and never written.
    """
    psi = _as_state(state)
    if graph.node_count != psi.shape[0]:
        raise ValidationError(f"graph has {graph.node_count} nodes but state has dimension {psi.shape[0]}")
    tessellations = list(ts)
    for t in {id(t): t for t in tessellations}.values():  # each distinct object once, in first-use order
        hamiltonian_from_tessellation(graph, t)
    if on_step is not None:
        on_step(0, psi)
    psi = psi.copy()  # the working array, which local_unitary overwrites through its _Checked view
    for step in range(1, cfg.steps + 1):
        for t in tessellations:
            psi = local_unitary(psi.view(_Checked), t, cfg)
        if on_step is not None:
            on_step(step, psi)
    return _as_state(psi)


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
        # einsum's own loop, as in _as_state: p @ x hands the dot product to BLAS, whose worker then spins on
        mean = float(np.einsum("i,i->", p, x))
        second = float(np.einsum("i,i->", p, x * x))
        sigmas.append(math.sqrt(max(second - mean * mean, 0.0)))
    return np.asarray(sigmas)
