"""The staggered line walk against an independent momentum-space reference.

The path's two tessellations pair (2m, 2m+1) and (2m+1, 2m+2), so the
infinite line has a two-node unit cell (a_m, b_m) = (psi[2m], psi[2m+1])
and one walk step is a 2x2 matrix per momentum k:

    U0    = [[c, i s], [i s, c]]                      (pairs inside a cell)
    U1(k) = [[c, i s e^{-ik}], [i s e^{ik}, c]]       (b_m with a_{m+1})

with c = cos(theta), s = sin(theta).  Each tessellation moves amplitude by
at most one node, so on an open path whose ends are more than 2t nodes from
every occupied node, t steps equal the infinite line's (and the end
singletons, where the two conventions differ, hold zero amplitude).
"""

import math

import numpy as np
import pytest

from sqwbench.graph import generate_path_tessellations
from sqwbench.walk import CONVENTION_ABSTRACT, CONVENTION_PHYSICAL, WalkConfig, evolve, initial_basis_state

TOL = 1e-12


def k_space_line_walk(psi0, theta: float, steps: int) -> np.ndarray:
    """``steps`` steps of U(k) = U1(k) U0 on the periodic cells, with one FFT each way."""
    n = psi0.shape[0]
    # zero cells past the path's end change nothing; a power of two keeps the FFT fast for any n
    cells = 1 << max(n // 2, 1).bit_length()
    padded = np.zeros(2 * cells, dtype=complex)
    padded[:n] = psi0
    a, b = np.fft.fft(padded[0::2]), np.fft.fft(padded[1::2])
    phase = np.exp(2j * np.pi * np.fft.fftfreq(cells))  # e^{ik}
    c, s = math.cos(theta), math.sin(theta)
    # U1(k) U0, written out
    u00, u01 = c * c - s * s / phase, 1j * c * s * (1 + 1 / phase)
    u10, u11 = 1j * c * s * (1 + phase), c * c - s * s * phase
    for _ in range(steps):
        a, b = u00 * a + u01 * b, u10 * a + u11 * b
    out = np.empty(2 * cells, dtype=complex)
    out[0::2], out[1::2] = np.fft.ifft(a), np.fft.ifft(b)
    return out[:n]


def interior_state(n: int, lo: int, hi: int, seed: int) -> np.ndarray:
    """A random unit state supported on nodes lo..hi-1."""
    rng = np.random.default_rng(seed)
    psi = np.zeros(n, dtype=complex)
    psi[lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
    return psi / np.linalg.norm(psi)


# (nodes, steps, start): both ends lie more than 2 * steps nodes from the start
BASIS_CASES = [(41, 9, 20), (41, 9, 19), (200, 40, 101), (1001, 120, 500)]


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 4, 0.9, -0.7, 2.5])
@pytest.mark.parametrize("nodes,steps,start", BASIS_CASES)
def test_basis_start_matches_k_space(nodes, steps, start, theta):
    g, ts = generate_path_tessellations(nodes)
    psi0 = initial_basis_state(nodes, start)
    expected = k_space_line_walk(psi0, theta, steps)
    for convention in (CONVENTION_PHYSICAL, CONVENTION_ABSTRACT):
        got = evolve(psi0, ts, WalkConfig(theta=theta, steps=steps, convention=convention), graph=g)
        assert np.max(np.abs(got - expected)) <= TOL
    # the walk has spread: amplitude reaches 2 * steps - 1 nodes from the start on at least one side
    reach = np.flatnonzero(np.abs(expected) > 1e-30)
    assert max(start - reach.min(), reach.max() - start) >= 2 * steps - 1


def test_million_node_path_matches_k_space():
    nodes, steps, theta = 10**6 + 1, 3, math.pi / 3
    g, ts = generate_path_tessellations(nodes)
    # one start in the middle, one near the low end, each of both parities
    psi0 = np.zeros(nodes, dtype=complex)
    psi0[[7, 8, 500_000, 500_001]] = 0.5
    got = evolve(psi0, ts, WalkConfig(theta=theta, steps=steps), graph=g)
    assert np.max(np.abs(got - k_space_line_walk(psi0, theta, steps))) <= TOL


@pytest.mark.parametrize("theta", [math.pi / 3, 1.2])
def test_spread_start_matches_k_space(theta):
    nodes, steps = 301, 30
    g, ts = generate_path_tessellations(nodes)
    psi0 = interior_state(nodes, 2 * steps + 1, nodes - 2 * steps - 1, seed=5)
    got = evolve(psi0, ts, WalkConfig(theta=theta, steps=steps), graph=g)
    assert np.max(np.abs(got - k_space_line_walk(psi0, theta, steps))) <= TOL


def test_reference_tells_the_angle_and_order_apart():
    """The reference is not blind to what it checks: the negated angle and the swapped order differ from it."""
    nodes, steps, start, theta = 41, 6, 20, math.pi / 3
    g, ts = generate_path_tessellations(nodes)
    psi0 = initial_basis_state(nodes, start)
    expected = k_space_line_walk(psi0, theta, steps)
    negated = evolve(psi0, ts, WalkConfig(theta=-theta, steps=steps), graph=g)
    swapped = evolve(psi0, ts[::-1], WalkConfig(theta=theta, steps=steps), graph=g)
    assert np.max(np.abs(negated - expected)) > 0.1
    assert np.max(np.abs(swapped - expected)) > 0.1
