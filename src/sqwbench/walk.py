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

from ._format import _live_span
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
    """A view of a state array that :func:`local_unitary` may overwrite, already checked: it holds c*psi afterwards.

    ``window = (lo, hi, out)`` on it names the amplitudes to compute and the array to gather them into; every
    amplitude outside ``[lo, hi)`` is +0.0+0.0j in both arrays before the call, and stays so.  Without a window the
    kernel computes the whole state into a fresh array.
    """

    window = None


def _as_state(state) -> np.ndarray:
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

    Returns cos(theta)*psi + i*sin(theta)*H psi, with H psi gathered through the tessellation's swap permutation.
    H fixes singletons, so that gives them exp(i*theta), the abstract convention; the physical one restores them.
    One arithmetic rule: plain float64 products (each complex factor has a zero part), alike in every SIMD loop.
    Any state but a ``_Checked`` view is checked and copied into one, so the input is never written; the formula
    then runs in place on that view (see :class:`_Checked`), inside its window if it has one.
    """
    if type(state) is not _Checked:
        state = _as_state(state).copy().view(_Checked)
    psi = state.view(np.ndarray)
    n = psi.shape[0]
    partner = t._swaps(n)
    lo, hi, out = state.window or (0, n, np.empty(n, dtype=complex))
    c = math.cos(cfg.theta)
    s = math.sin(cfg.theta)
    kept = psi[t.singletons]
    # i*s*H psi + c*psi in the gathered window, each product's operands in that order; mode="wrap" gathers
    # straight into out (the default "raise" buffers it), and every partner index is in range anyway
    gathered = np.take(psi, partner[lo:hi], out=out[lo:hi], mode="wrap")
    np.multiply(1j * s, gathered, out=gathered)
    gathered += np.multiply(c, psi[lo:hi], out=psi[lo:hi])
    if cfg.convention == CONVENTION_PHYSICAL:  # H fixes singletons, so the formula gave them exp(i*theta)*psi
        out[t.singletons] = kept
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

    evolve holds two state arrays, the working copy and a zero-filled spare; each kernel call
    gathers into the spare and leaves c*psi in the working copy, and the two swap roles.  Each
    call computes only inside the light cone: the input's live span (a -0.0 part is live), widened
    before each call by the tessellation's reach (its longest pair, high - low).  Windows only grow,
    so both arrays are +0.0 outside the next one, whatever array the kernel returned.
    Amplitudes outside the window are exactly +0.0+0.0j, as the full formula leaves them: in each
    part of cos(theta)*0 + i*sin(theta)*0 one term is +0.0, so the sum is +0.0 whatever the signs.
    """
    psi = _as_state(state)
    n = psi.shape[0]
    if graph.node_count != n:
        raise ValidationError(f"graph has {graph.node_count} nodes but state has dimension {n}")
    tessellations = list(ts)
    reach = {}
    for t in {id(t): t for t in tessellations}.values():  # each distinct object once, in first-use order
        hamiltonian_from_tessellation(graph, t)
        reach[id(t)] = int((t.pairs[:, 1] - t.pairs[:, 0]).max()) if len(t.pairs) else 0
    if on_step is not None:
        on_step(0, psi)
    psi = psi.copy()  # the working array, which local_unitary overwrites through its _Checked view
    spare = np.zeros_like(psi)  # zero bytes, so its part outside every window is +0.0 already
    lo, hi = _live_span(psi)
    for step in range(1, cfg.steps + 1):
        for t in tessellations:
            lo, hi = max(lo - reach[id(t)], 0), min(hi + reach[id(t)], n)
            work = psi.view(_Checked)
            work.window = (lo, hi, spare)
            spare, psi = psi, local_unitary(work, t, cfg)
        if on_step is not None:
            on_step(step, psi)
    return _as_state(psi)


def _probabilities(psi: np.ndarray) -> np.ndarray:
    """|psi|^2 as re*re + im*im of the float64 parts: plain products, alike in every SIMD loop (np.abs is not)."""
    return psi.real * psi.real + psi.imag * psi.imag


def probability_distribution(state) -> np.ndarray:
    """Node-occupation probabilities |amplitude|^2 of a unit-norm state."""
    return _probabilities(_as_state(state))


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
