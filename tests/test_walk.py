import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwbench import walk
from sqwbench.errors import ValidationError
from sqwbench.graph import (
    Tessellation,
    TessellationSet,
    build_graph,
    generate_lattice_tessellations,
    generate_path_tessellations,
    greedy_tessellate,
)
from sqwbench.oracle import brute_force_evolve, dense_hamiltonian, taylor_expm
from sqwbench.walk import (
    CONVENTION_ABSTRACT,
    CONVENTION_PHYSICAL,
    WalkConfig,
    evolve,
    hamiltonian_from_tessellation,
    initial_basis_state,
    local_unitary,
    probability_distribution,
    spread_statistics,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def operator_matrix(h, cfg):
    """Dense matrix of the local unitary, one basis column at a time."""
    n = 2 * len(h.pairs) + len(h.singletons)
    cols = []
    for k in range(n):
        cols.append(local_unitary(initial_basis_state(n, k), h, cfg))
    return np.stack(cols, axis=1)


class TestHamiltonianSpec:
    def test_path5_red(self):
        g, ts = generate_path_tessellations(5)
        h = hamiltonian_from_tessellation(g, ts[0])
        assert h.pairs.tolist() == [[0, 1], [2, 3]]
        assert h.singletons.tolist() == [4]

    def test_single_node(self):
        g, ts = generate_path_tessellations(1)
        h = hamiltonian_from_tessellation(g, ts[0])
        assert np.array_equal(dense_hamiltonian(h), np.array([[1.0]]))

    def test_two_pairs_squares_to_identity(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        h = hamiltonian_from_tessellation(g, Tessellation(((0, 1), (2, 3))))
        m = dense_hamiltonian(h)
        assert np.array_equal(m @ m, np.eye(4))

    def test_invalid_tessellation_rejected(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ValidationError):
            hamiltonian_from_tessellation(g, Tessellation(((0, 2), (1,))))

    def test_partition_violation_rejected(self):
        with pytest.raises(ValidationError):
            local_unitary(initial_basis_state(3, 0), Tessellation(((0, 1), (1,))), WalkConfig(0.3))


class TestLocalUnitary:
    def test_hadamard_like_block(self):
        g, ts = generate_path_tessellations(2)
        h = hamiltonian_from_tessellation(g, ts[0])
        cfg = WalkConfig(theta=math.pi / 4)
        got = operator_matrix(h, cfg)
        want = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("convention", [CONVENTION_ABSTRACT, CONVENTION_PHYSICAL])
    def test_theta_zero_is_identity(self, convention):
        g, ts = generate_path_tessellations(6)
        h = hamiltonian_from_tessellation(g, ts[1])
        cfg = WalkConfig(theta=0.0, convention=convention)
        rng = np.random.default_rng(1)
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(local_unitary(psi, h, cfg) - psi)) == 0.0

    def test_matches_dense_exponential_oracle(self):
        g, ts = generate_path_tessellations(9)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        cfg = WalkConfig(theta=0.7, convention=CONVENTION_ABSTRACT)
        for t in ts:
            h = hamiltonian_from_tessellation(g, t)
            u = taylor_expm(dense_hamiltonian(h), 1j * 0.7)
            assert np.max(np.abs(local_unitary(psi, h, cfg) - u @ psi)) < 1e-10

    def test_analytic_identity(self):
        # exp(i theta H) = cos(theta) I + i sin(theta) H for any reflection H
        g, ts = generate_lattice_tessellations([3, 3])
        theta = 1.234
        cfg = WalkConfig(theta=theta, convention=CONVENTION_ABSTRACT)
        for t in ts:
            h = hamiltonian_from_tessellation(g, t)
            dense = dense_hamiltonian(h)
            got = operator_matrix(h, cfg)
            want = math.cos(theta) * np.eye(9) + 1j * math.sin(theta) * dense
            assert np.max(np.abs(got - want)) < 1e-12

    def test_singleton_phase_conventions(self):
        g, ts = generate_path_tessellations(3)
        h = hamiltonian_from_tessellation(g, ts[0])  # singleton at node 2
        psi = initial_basis_state(3, 2)
        theta = 0.9
        abstract = local_unitary(psi, h, WalkConfig(theta, convention=CONVENTION_ABSTRACT))
        physical = local_unitary(psi, h, WalkConfig(theta, convention=CONVENTION_PHYSICAL))
        assert abs(abstract[2] - cmath.exp(1j * theta)) < 1e-15
        assert physical[2] == 1.0

    def test_dimension_mismatch_rejected(self):
        g, ts = generate_path_tessellations(4)
        h = hamiltonian_from_tessellation(g, ts[0])
        with pytest.raises(ValidationError):
            local_unitary(initial_basis_state(5, 0), h, WalkConfig(0.3))

    def test_periodicity_mod_two_pi(self):
        g, ts = generate_path_tessellations(5)
        h = hamiltonian_from_tessellation(g, ts[1])
        theta = 0.77
        a = operator_matrix(h, WalkConfig(theta, convention=CONVENTION_ABSTRACT))
        b = operator_matrix(h, WalkConfig(theta + 2 * math.pi, convention=CONVENTION_ABSTRACT))
        assert np.max(np.abs(a - b)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_norm_preserved(self, theta):
        g, ts = generate_path_tessellations(8)
        h = hamiltonian_from_tessellation(g, ts[0])
        rng = np.random.default_rng(42)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        out = local_unitary(psi, h, WalkConfig(theta))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestEvolve:
    def test_zero_steps_unchanged(self):
        g, ts = generate_path_tessellations(7)
        psi = initial_basis_state(7, 3)
        out = evolve(psi, ts, WalkConfig(theta=1.1, steps=0), graph=g)
        assert np.array_equal(out, psi)

    def test_three_node_single_step_frozen_amplitudes(self):
        # dense-matrix oracle value, theta = pi/3, start |1>:
        # U1 U0 |1> = (-3/4 + i sqrt(3)/4, 1/4, i sqrt(3)/4)
        g, ts = generate_path_tessellations(3)
        psi = initial_basis_state(3, 1)
        out = evolve(psi, ts, WalkConfig(math.pi / 3, 1, CONVENTION_ABSTRACT), graph=g)
        s3 = math.sqrt(3.0)
        want = np.array([-0.75 + 0.25j * s3, 0.25, 0.25j * s3])
        assert np.max(np.abs(out - want)) < 1e-14
        oracle = brute_force_evolve(psi, ts, math.pi / 3, 1)
        assert np.max(np.abs(out - oracle)) < 1e-12

    @pytest.mark.parametrize("convention", [CONVENTION_ABSTRACT, CONVENTION_PHYSICAL])
    def test_unitarity_many_steps(self, convention):
        g, ts = generate_path_tessellations(21)
        psi = initial_basis_state(21, 10)
        out = evolve(psi, ts, WalkConfig(0.9, 200, convention), graph=g)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_oracle_equivalence_random_tessellation_sets(self):
        rng = random.Random(99)
        thetas = [0.3, math.pi / 4, math.pi / 3, 2.0]
        for trial in range(12):
            n = rng.randint(2, 16)
            if trial % 3 == 0:
                g, ts = generate_path_tessellations(n)
            elif trial % 3 == 1:
                m = 2 * rng.randint(2, 8)
                n = m
                g = build_graph(m, [(i, (i + 1) % m) for i in range(m)])
                ts = greedy_tessellate(g)
            else:
                g = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
                ts = greedy_tessellate(g)
            theta = thetas[trial % len(thetas)]
            psi = initial_basis_state(g.node_count, rng.randrange(g.node_count))
            steps = rng.randint(1, 4)
            fast = evolve(psi, ts, WalkConfig(theta, steps, CONVENTION_ABSTRACT), graph=g)
            slow = brute_force_evolve(psi, ts, theta, steps)
            assert np.max(np.abs(fast - slow)) < 1e-9

    def test_locality_cone_on_path(self):
        g, ts = generate_path_tessellations(41)
        psi = initial_basis_state(41, 20)
        for steps in (1, 3, 7):
            out = evolve(psi, ts, WalkConfig(1.0, steps), graph=g)
            support = np.nonzero(np.abs(out) > 1e-14)[0]
            assert support.min() >= 20 - 2 * steps
            assert support.max() <= 20 + 2 * steps

    def test_conventions_agree_on_singleton_free_graph(self):
        n = 10
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        ts = greedy_tessellate(g)
        assert all(len(t.singletons) == 0 for t in ts)
        psi = initial_basis_state(n, 0)
        pa = probability_distribution(evolve(psi, ts, WalkConfig(0.8, 5, CONVENTION_ABSTRACT), graph=g))
        pp = probability_distribution(evolve(psi, ts, WalkConfig(0.8, 5, CONVENTION_PHYSICAL), graph=g))
        assert np.max(np.abs(pa - pp)) < 1e-12

    def test_history_recording(self):
        g, ts = generate_path_tessellations(9)
        psi = initial_basis_state(9, 4)
        final, history = evolve(psi, ts, WalkConfig(0.5, 3), graph=g, keep_history=True)
        assert len(history) == 4
        assert np.array_equal(history[0], psi)
        assert np.array_equal(history[-1], final)

    def test_dimension_mismatch_rejected(self):
        g, ts = generate_path_tessellations(5)
        with pytest.raises(ValidationError):
            evolve(initial_basis_state(4, 0), ts, WalkConfig(0.5), graph=g)

    def test_unnormalized_state_rejected(self):
        g, ts = generate_path_tessellations(3)
        with pytest.raises(ValidationError):
            evolve(np.array([1.0, 1.0, 0.0]), ts, WalkConfig(0.5), graph=g)

    def test_nan_state_rejected(self):
        g, ts = generate_path_tessellations(3)
        with pytest.raises(ValidationError):
            evolve(np.array([float("nan"), 0.0, 0.0]), ts, WalkConfig(0.5), graph=g)


class TestStateHelpers:
    def test_initial_basis_state_middle(self):
        psi = initial_basis_state(133, 66)
        assert psi[66] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_initial_basis_state_edge_cases(self):
        assert np.array_equal(initial_basis_state(1, 0), np.array([1.0 + 0j]))
        psi = initial_basis_state(5, 4)
        assert abs(np.linalg.norm(psi) - 1.0) == 0.0
        assert np.nonzero(psi)[0].tolist() == [4]

    def test_initial_basis_state_out_of_range(self):
        with pytest.raises(ValidationError):
            initial_basis_state(5, 5)
        with pytest.raises(ValidationError):
            initial_basis_state(5, -1)

    def test_probability_distribution_delta(self):
        p = probability_distribution(initial_basis_state(133, 66))
        assert p[66] == 1.0 and p.sum() == 1.0

    def test_probability_distribution_superposition(self):
        psi = np.array([1.0, 1.0j]) / math.sqrt(2)
        p = probability_distribution(psi)
        assert np.max(np.abs(p - 0.5)) < 1e-15

    def test_probability_requires_unit_norm(self):
        with pytest.raises(ValidationError):
            probability_distribution(np.array([2.0, 0.0]))


class TestSpreadStatistics:
    def test_delta_history_is_zero(self):
        delta = np.zeros(11)
        delta[5] = 1.0
        sigmas = spread_statistics([delta] * 4, origin=5)
        assert np.array_equal(sigmas, np.zeros(4))

    def test_ballistic_scaling_and_angle_ordering(self):
        g, ts = generate_path_tessellations(133)
        psi = initial_basis_state(133, 66)
        _, hist3 = evolve(psi, ts, WalkConfig(math.pi / 3, 32), graph=g, keep_history=True)
        sig3 = spread_statistics([probability_distribution(s) for s in hist3], 66)
        assert 1.9 <= sig3[32] / sig3[16] <= 2.1
        _, hist4 = evolve(psi, ts, WalkConfig(math.pi / 4, 32), graph=g, keep_history=True)
        sig4 = spread_statistics([probability_distribution(s) for s in hist4], 66)
        assert sig4[32] < sig3[32]

    def test_empty_history_rejected(self):
        with pytest.raises(ValidationError):
            spread_statistics([], origin=0)

    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(ValidationError):
            spread_statistics([np.array([0.5, 0.1])], origin=0)


class TestWalkConfig:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            WalkConfig(theta=float("nan"))
        with pytest.raises(ValidationError):
            WalkConfig(theta=1.0, steps=-1)
        with pytest.raises(ValidationError):
            WalkConfig(theta=1.0, convention="sideways")


# each fails to partition range(4) in one way
NON_PARTITIONS_OF_4 = {
    "node in two pairs": ((0, 1), (1, 2), (3,)),
    "missing node": ((0, 1), (2,)),
    "node out of range": ((0, 1), (2, 3), (4,)),
}


def kernel_operand(elements, n):
    """What local_unitary is handed for ``elements`` on n nodes when no graph is at hand.

    The kernel takes the tessellation itself; where a separate operator
    spec is its operand instead, that spec is built from the elements.
    """
    t = Tessellation(elements)
    build_spec = getattr(walk, "hamiltonian_spec_from_elements", None)
    return t if build_spec is None else build_spec(t.elements, n)


class TestPartitionGuarantee:
    @pytest.mark.parametrize("elements", NON_PARTITIONS_OF_4.values(), ids=NON_PARTITIONS_OF_4.keys())
    def test_local_unitary_rejects_non_partition(self, elements):
        with pytest.raises(ValidationError):
            local_unitary(initial_basis_state(4, 0), kernel_operand(elements, 4), WalkConfig(0.3))

    @pytest.mark.parametrize("elements", NON_PARTITIONS_OF_4.values(), ids=NON_PARTITIONS_OF_4.keys())
    def test_graph_free_evolve_rejects_non_partition(self, elements):
        ts = TessellationSet((Tessellation(((0, 1), (2, 3))), Tessellation(elements)))
        with pytest.raises(ValidationError):
            evolve(initial_basis_state(4, 0), ts, WalkConfig(0.3, 1))
