import math
import random
import re

import numpy as np
import pytest

from sqwbench.errors import NumericError, ValidationError
from sqwbench.graph import Tessellation, generate_path_tessellations, greedy_tessellate
from sqwbench.oracle import brute_force_evolve, dense_hamiltonian, taylor_expm

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestDenseHamiltonian:
    def test_single_pair_is_sigma_x(self):
        h = Tessellation(((0, 1),))
        assert np.array_equal(dense_hamiltonian(h), SIGMA_X)

    def test_single_singleton(self):
        h = Tessellation(((0,),))
        assert np.array_equal(dense_hamiltonian(h), np.array([[1.0]]))

    def test_path5_red_tessellation_block_structure(self):
        _, ts = generate_path_tessellations(5)
        h = ts[0]
        expected = np.zeros((5, 5))
        expected[0:2, 0:2] = SIGMA_X
        expected[2:4, 2:4] = SIGMA_X
        expected[4, 4] = 1.0
        assert np.array_equal(dense_hamiltonian(h), expected)

    def test_reflection_property_random(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 40)
            nodes = list(range(n))
            rng.shuffle(nodes)
            elements = []
            while nodes:
                if len(nodes) >= 2 and rng.random() < 0.7:
                    elements.append((nodes.pop(), nodes.pop()))
                else:
                    elements.append((nodes.pop(),))
            h = Tessellation(elements)
            m = dense_hamiltonian(h)
            assert np.max(np.abs(m @ m - np.eye(n))) < 1e-13

    @pytest.mark.parametrize(
        "elements,n",
        [(((0, 1), (1, 2), (3,)), 5), (((0, 1), (3,)), 3), (((0, 1), (2,), (4,)), 4)],
        ids=["node in two pairs", "gap", "node out of range"],
    )
    def test_non_partition_rejected(self, elements, n):
        with pytest.raises(ValidationError, match=re.escape(f"must partition the node range [0, {n})")):
            dense_hamiltonian(Tessellation(elements))

    def test_oversize_rejected(self):
        pairs = tuple((2 * k, 2 * k + 1) for k in range(150))
        h = Tessellation(pairs)
        with pytest.raises(ValidationError):
            dense_hamiltonian(h)


class TestTaylorExpm:
    def test_exp_zero_is_identity(self):
        assert np.array_equal(taylor_expm(np.zeros((3, 3))), np.eye(3))

    def test_matches_closed_form_rotation(self):
        theta = 0.7
        got = taylor_expm(SIGMA_X, 1j * theta)
        want = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * SIGMA_X
        assert np.max(np.abs(got - want)) < 1e-12

    def test_hadamard_like_angle(self):
        got = taylor_expm(SIGMA_X, 1j * math.pi / 4)
        want = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_scaling_and_squaring_large_angle(self):
        theta = 50.0
        got = taylor_expm(SIGMA_X, 1j * theta)
        want = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * SIGMA_X
        assert np.max(np.abs(got - want)) < 1e-11

    def test_unitarity_for_reflection_generators(self):
        _, ts = generate_path_tessellations(9)
        for t in ts:
            h = dense_hamiltonian(t)
            u = taylor_expm(h, 1j * 1.2345)
            assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-11

    def test_nonconvergence_reported(self):
        with pytest.raises(NumericError):
            taylor_expm(SIGMA_X, 1j * 0.4, max_terms=2)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            taylor_expm(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            taylor_expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestBruteForceEvolve:
    def test_zero_steps_is_identity(self):
        _, ts = generate_path_tessellations(7)
        psi = np.zeros(7, complex)
        psi[3] = 1.0
        out = brute_force_evolve(psi, ts, 0.9, 0)
        assert np.array_equal(out, psi)

    def test_cycle_preserves_norm(self):
        from sqwbench.graph import build_graph

        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        ts = greedy_tessellate(g)
        psi = np.zeros(4, complex)
        psi[0] = 1.0
        out = brute_force_evolve(psi, ts, math.pi / 3, 3)
        assert abs(np.vdot(out, out).real - 1.0) < 1e-12

    def test_oversize_rejected(self):
        _, ts = generate_path_tessellations(65)
        psi = np.zeros(65, complex)
        psi[0] = 1.0
        with pytest.raises(ValidationError):
            brute_force_evolve(psi, ts, 0.3, 1)
