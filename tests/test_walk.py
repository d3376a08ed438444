import cmath
import inspect
import math
import random
import sys
import tracemalloc
import types
import warnings

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

    def test_two_dimensional_state_rejected(self):
        g, ts = generate_path_tessellations(4)
        # unit norm, so only the shape check can reject it
        psi = initial_basis_state(4, 0).reshape(2, 2)
        with pytest.raises(ValidationError, match="^state must be a one-dimensional amplitude vector$"):
            local_unitary(psi, ts[0], WalkConfig(0.3))

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
        history = []
        final = evolve(psi, ts, WalkConfig(0.5, 3), graph=g, on_step=lambda _, s: history.append(s.copy()))
        assert len(history) == 4
        assert np.array_equal(history[0], psi)
        assert np.array_equal(history[-1], final)

    def test_step_zero_observes_the_input_left_unchanged(self):
        g, ts = generate_path_tessellations(9)
        psi = initial_basis_state(9, 4)
        seen = []
        evolve(psi, ts, WalkConfig(0.5, 2), graph=g, on_step=lambda _, s: seen.append(s))
        assert seen[0] is psi
        assert np.array_equal(psi, initial_basis_state(9, 4))

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


class TestStepObserver:
    @staticmethod
    def observed(psi, ts, cfg, **kwargs):
        calls = []
        final = evolve(psi, ts, cfg, on_step=lambda step, s: calls.append((step, s.copy())), **kwargs)
        return final, calls

    def test_one_call_per_step_matching_history(self):
        g, ts = generate_lattice_tessellations((4, 3))
        psi = initial_basis_state(g.node_count, 5)
        cfg = WalkConfig(0.7, 4, CONVENTION_ABSTRACT)
        final, calls = self.observed(psi, ts, cfg, graph=g)
        assert [step for step, _ in calls] == list(range(cfg.steps + 1))
        for step, s in calls:  # each observed state is, bit for bit, a run of that many steps
            assert np.array_equal(s, evolve(psi, ts, WalkConfig(cfg.theta, step, cfg.convention), graph=g))
        assert np.array_equal(calls[-1][1], final)

    def test_zero_steps_is_one_call(self):
        g, ts = generate_path_tessellations(5)
        psi = initial_basis_state(5, 2)
        final, calls = self.observed(psi, ts, WalkConfig(0.5, 0), graph=g)
        assert len(calls) == 1 and calls[0][0] == 0
        assert np.array_equal(calls[0][1], psi) and np.array_equal(final, psi)

    def test_observer_beside_history(self):
        g, ts = generate_path_tessellations(7)
        psi = initial_basis_state(7, 3)
        final, calls = self.observed(psi, ts, WalkConfig(0.5, 3), graph=g)
        assert len(calls) == 4
        assert np.array_equal(final, evolve(psi, ts, WalkConfig(0.5, 3), graph=g))  # observing changes no bit

    def test_kernel_runs_once_per_tessellation_and_step(self, monkeypatch):
        g, ts = generate_lattice_tessellations((3, 3))
        kernel_calls = []

        def counting(psi, t, cfg):
            kernel_calls.append(t)
            return local_unitary(psi, t, cfg)

        monkeypatch.setattr(walk, "local_unitary", counting)
        _, calls = self.observed(initial_basis_state(9, 4), ts, WalkConfig(0.5, 5), graph=g)
        assert len(kernel_calls) == len(ts) * 5
        assert len(calls) == 6

    def test_each_distinct_tessellation_validated_once(self, monkeypatch):
        g, ts = generate_lattice_tessellations((3, 3))
        checked = []
        original = walk.hamiltonian_from_tessellation
        monkeypatch.setattr(
            walk, "hamiltonian_from_tessellation", lambda graph, t: checked.append(t) or original(graph, t)
        )
        psi = initial_basis_state(9, 4)
        repeated = ts * 3
        out = evolve(psi, repeated, WalkConfig(0.5, 2), graph=g)
        assert [id(t) for t in checked] == [id(t) for t in ts]
        assert np.array_equal(out, evolve(psi, ts, WalkConfig(0.5, 6), graph=g))
        monkeypatch.undo()
        bad = Tessellation(((0, 4), (1,), (2,), (3,), (5,), (6,), (7,), (8,)))
        with pytest.raises(ValidationError, match="invalid tessellation"):
            evolve(psi, (ts[0], bad, ts[0], bad), WalkConfig(0.5, 1), graph=g)


class TestStateCheckedOncePerRun:
    """evolve checks the state on entry and on exit; the kernel calls in between do not sum |psi|^2 again."""

    def test_norm_summed_at_most_twice(self, monkeypatch):
        g, ts = generate_lattice_tessellations((6, 6))
        sums = []
        einsum = walk.np.einsum
        monkeypatch.setattr(walk.np, "einsum", lambda *args: sums.append(1) or einsum(*args))
        cfg = WalkConfig(0.5, 50)
        out = evolve(initial_basis_state(36, 14), ts, cfg, graph=g)
        monkeypatch.undo()
        # one sum per kernel call would make 1 + 4 * 50; none would mean the norm is summed some other way
        assert 0 < len(sums) <= 2
        expected = initial_basis_state(36, 14)
        for _ in range(cfg.steps):
            for t in ts:
                expected = reference_local_unitary(expected, t, cfg)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("at_step", [0, 1, 7, 8])
    def test_observer_that_scales_the_state_is_caught(self, at_step):
        g, ts = generate_lattice_tessellations((4, 3))

        def scale(step, psi):
            if step == at_step:
                psi *= 2

        with pytest.raises(ValidationError, match="not normalized"):
            evolve(initial_basis_state(12, 5), ts, WalkConfig(0.7, 8), graph=g, on_step=scale)

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_result_and_observed_states_are_plain_arrays(self, steps):
        g, ts = generate_lattice_tessellations((4, 3))
        seen = []
        psi = initial_basis_state(12, 5)
        out = evolve(psi, ts, WalkConfig(0.7, steps), graph=g, on_step=lambda _, s: seen.append(s))
        assert len(seen) == steps + 1
        assert all(type(s) is np.ndarray for s in seen) and type(out) is np.ndarray

    class _Subclass(np.ndarray):
        pass

    @pytest.mark.parametrize(
        "state",
        [
            np.full(12, 0.5),
            np.full(12, 0.5).view(_Subclass),
            np.full(12, math.nan),
            [1.0] + [0.0] * 10 + [1.0],
            np.full(24, 0.5, dtype=complex)[::2],
        ],
        ids=["scaled", "ndarray-subclass", "nan", "list", "strided"],
    )
    def test_local_unitary_still_checks_its_input(self, state):
        _, ts = generate_lattice_tessellations((4, 3))
        with pytest.raises(ValidationError, match="not normalized"):
            local_unitary(state, ts[0], WalkConfig(0.7))

    @pytest.mark.parametrize("step", [2, -1, -2])
    def test_strided_state_accepted(self, step):
        g, ts = generate_lattice_tessellations((4, 3))
        psi = np.zeros(12 * abs(step), dtype=complex)
        psi[::step] = np.exp(1j * np.arange(12)) / math.sqrt(12)
        state = psi[::step]
        assert not state.flags.c_contiguous
        cfg = WalkConfig(0.7, 3)
        assert np.array_equal(local_unitary(state, ts[0], cfg), local_unitary(state.copy(), ts[0], cfg))
        assert np.array_equal(evolve(state, ts, cfg, graph=g), evolve(state.copy(), ts, cfg, graph=g))


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

    @pytest.mark.parametrize(
        "n,node,message",
        [
            (3, True, "start node must be an integer, got True"),
            (3, 1.5, "start node must be an integer, got 1.5"),
            (3, 1.0, "start node must be an integer, got 1.0"),
            (3, "1", "start node must be an integer, got '1'"),
            (3.0, 1, "node count must be a non-negative integer, got 3.0"),
            (True, 0, "node count must be a non-negative integer, got True"),
            (-1, 0, "node count must be a non-negative integer, got -1"),
        ],
    )
    def test_initial_basis_state_rejects_non_indices(self, n, node, message):
        with pytest.raises(ValidationError) as excinfo:
            initial_basis_state(n, node)
        assert str(excinfo.value) == message

    def test_probability_distribution_delta(self):
        p = probability_distribution(initial_basis_state(133, 66))
        assert p[66] == 1.0 and p.sum() == 1.0

    def test_probability_distribution_superposition(self):
        psi = np.array([1.0, 1.0j]) / math.sqrt(2)
        p = probability_distribution(psi)
        assert np.max(np.abs(p - 0.5)) < 1e-15

    def test_probability_distribution_is_re_squared_plus_im_squared(self):
        # Python's float products round once each, in no SIMD loop: np.abs(psi) ** 2 differs in most elements
        rng = np.random.default_rng(5)
        psi = rng.normal(size=997) + 1j * rng.normal(size=997)
        psi /= np.linalg.norm(psi)
        want = np.array([z.real * z.real + z.imag * z.imag for z in psi.tolist()])
        assert probability_distribution(psi).tobytes() == want.tobytes()

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
        dist3, dist4 = [], []
        evolve(psi, ts, WalkConfig(math.pi / 3, 32), graph=g,
               on_step=lambda _, s: dist3.append(probability_distribution(s)))
        sig3 = spread_statistics(dist3, 66)
        assert 1.9 <= sig3[32] / sig3[16] <= 2.1
        evolve(psi, ts, WalkConfig(math.pi / 4, 32), graph=g,
               on_step=lambda _, s: dist4.append(probability_distribution(s)))
        sig4 = spread_statistics(dist4, 66)
        assert sig4[32] < sig3[32]

    @pytest.mark.parametrize("n,origin", [(1, 0), (2001, 1000), (40_000, 20_100), (40_000, -7)])
    def test_matches_exactly_rounded_sums(self, n, origin):
        rng = np.random.default_rng(n + origin)
        p = rng.random(n) ** 4
        p /= math.fsum(p)
        x = [k - origin for k in range(n)]
        mean = math.fsum(pk * xk for pk, xk in zip(p.tolist(), x))
        second = math.fsum(pk * xk * xk for pk, xk in zip(p.tolist(), x))
        sigma = math.sqrt(max(second - mean * mean, 0.0))
        assert spread_statistics([p], origin)[0] == pytest.approx(sigma, rel=1e-12, abs=1e-12)

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
        with pytest.raises(ValidationError, match="steps must be a non-negative integer, got True"):
            WalkConfig(theta=1.0, steps=True)
        with pytest.raises(ValidationError):
            WalkConfig(theta=1.0, convention="sideways")

    @pytest.mark.parametrize("theta", [True, False, "1.0", None, 1j])
    def test_theta_must_be_a_number(self, theta):
        with pytest.raises(ValidationError, match="^theta must be a number, got "):
            WalkConfig(theta=theta)

    @pytest.mark.parametrize("theta", [float("inf"), -float("inf"), float("nan"), 10**400])
    def test_theta_must_be_finite(self, theta):
        with pytest.raises(ValidationError, match="^theta must be finite, got "):
            WalkConfig(theta=theta)

    @pytest.mark.parametrize("theta", [1, 0.5, np.float64(0.5)])
    def test_theta_numbers_accepted(self, theta):
        assert WalkConfig(theta=theta).theta == theta


# each fails to partition range(4) in one way
NON_PARTITIONS_OF_4 = {
    "node in two pairs": ((0, 1), (1, 2), (3,)),
    "missing node": ((0, 1), (2,)),
    "node out of range": ((0, 1), (2, 3), (4,)),
}


class TestPartitionGuarantee:
    @pytest.mark.parametrize(
        "elements,partitioned",
        [
            (((0, 1), (1, 2), (3,)), []),
            (((0, 1), (3,)), []),
            (((0, 1), (2, 3), (4,)), [5]),
            ((), [0]),
            (((1,), (0,)), [2]),
            (((0, 1), (2,)), [3]),
        ],
        ids=["duplicated node", "gap", "out of range for 4", "empty", "singletons", "pair and singleton"],
    )
    def test_partitions_verdict(self, elements, partitioned):
        # n = 0 is asked first, before the verdict is cached
        t = Tessellation(elements)
        assert [n for n in range(7) if t.partitions(n)] == partitioned

    @pytest.mark.parametrize("elements", NON_PARTITIONS_OF_4.values(), ids=NON_PARTITIONS_OF_4.keys())
    def test_local_unitary_rejects_non_partition(self, elements):
        with pytest.raises(ValidationError):
            local_unitary(initial_basis_state(4, 0), Tessellation(elements), WalkConfig(0.3))

    @pytest.mark.parametrize("elements", NON_PARTITIONS_OF_4.values(), ids=NON_PARTITIONS_OF_4.keys())
    def test_evolve_rejects_non_partition(self, elements):
        g, _ = generate_path_tessellations(4)
        ts = TessellationSet((Tessellation(((0, 1), (2, 3))), Tessellation(elements)))
        with pytest.raises(ValidationError, match="invalid tessellation"):
            evolve(initial_basis_state(4, 0), ts, WalkConfig(0.3, 1), graph=g)


def reference_local_unitary(state, t, cfg):
    """The pair-by-pair kernel: copy the state, gather both pair columns, rotate them, scatter them back."""
    out = np.array(state, dtype=complex)
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
        x = out[t.singletons]
        out[t.singletons] = 1j * s * x + c * x  # H x = x: the kernel's own formula, operands in its order
    return out


def greedy_bipartite_walk():
    rng = random.Random(11)
    edges = {(i, 12 + j) for i in range(12) for j in range(12) if rng.random() < 0.3}
    # nodes 24..26 have no edges, so they are singletons in every tessellation
    g = build_graph(27, sorted(edges))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return g, greedy_tessellate(g)


KERNEL_WALKS = {
    "path": generate_path_tessellations(11),
    "lattice-3d": generate_lattice_tessellations((3, 4, 2)),
    "greedy": greedy_bipartite_walk(),
}
KERNEL_TESSELLATIONS = {
    **{name: ts for name, (_, ts) in KERNEL_WALKS.items()},
    "interior-singletons": TessellationSet(
        (Tessellation(((0, 3), (1,), (2, 5), (4,), (6,), (7, 9), (8,))), Tessellation(((4,), (2,), (0,), (1, 3))))
    ),
}
KERNEL_THETAS = [0.0, math.pi / 3, 0.9, 7 * math.pi / 24, -2.5]


class TestKernelBits:
    """local_unitary gives bit for bit what the pair-by-pair kernel gives, on a plain array and on evolve's own."""

    @pytest.mark.parametrize("theta", KERNEL_THETAS)
    @pytest.mark.parametrize("convention", [CONVENTION_ABSTRACT, CONVENTION_PHYSICAL])
    @pytest.mark.parametrize("name", KERNEL_TESSELLATIONS)
    def test_same_bytes(self, name, convention, theta):
        cfg = WalkConfig(theta, convention=convention)
        rng = np.random.default_rng(7)
        for t in KERNEL_TESSELLATIONS[name]:
            n = 2 * len(t.pairs) + len(t.singletons)
            for _ in range(3):
                psi = rng.normal(size=n) + 1j * rng.normal(size=n)
                psi /= np.linalg.norm(psi)
                before = psi.tobytes()
                want = reference_local_unitary(psi, t, cfg).tobytes()
                assert local_unitary(psi, t, cfg).tobytes() == want
                assert psi.tobytes() == before  # a plain array is never written
                assert local_unitary(psi.copy().view(walk._Checked), t, cfg).tobytes() == want

    @pytest.mark.parametrize("convention", [CONVENTION_ABSTRACT, CONVENTION_PHYSICAL])
    def test_singletons_in_python_floats(self, convention):
        # abstract: (c + i*s)(a + i*b) as one float product per term; physical: the input's own bytes
        t = KERNEL_TESSELLATIONS["interior-singletons"][0]
        rng = np.random.default_rng(3)
        psi = rng.normal(size=10) + 1j * rng.normal(size=10)
        psi /= np.linalg.norm(psi)
        for theta in KERNEL_THETAS:
            c, s = math.cos(theta), math.sin(theta)
            out = local_unitary(psi, t, WalkConfig(theta, convention=convention))
            for k in t.singletons.tolist():
                a, b = psi[k].real, psi[k].imag
                want = complex(c * a - s * b, s * a + c * b) if convention == CONVENTION_ABSTRACT else psi[k]
                assert np.array([out[k]]).tobytes() == np.array([want]).tobytes()

    @pytest.mark.parametrize("theta", KERNEL_THETAS)
    @pytest.mark.parametrize("convention", [CONVENTION_ABSTRACT, CONVENTION_PHYSICAL])
    @pytest.mark.parametrize("name", KERNEL_WALKS)
    def test_evolve_matches_a_chain_of_plain_calls(self, name, convention, theta):
        # from a basis state, so most amplitudes start as exact zeros and the signs of zeros are compared too
        g, ts = KERNEL_WALKS[name]
        cfg = WalkConfig(theta, 6, convention)
        psi = initial_basis_state(g.node_count, g.node_count // 2)
        expected = psi
        for _ in range(cfg.steps):
            for t in ts:
                expected = local_unitary(expected, t, cfg)
        assert evolve(psi, ts, cfg, graph=g).tobytes() == expected.tobytes()
        assert psi.tobytes() == initial_basis_state(g.node_count, g.node_count // 2).tobytes()


def plain_chain(psi, ts, cfg):
    """``cfg.steps`` rounds of plain ``local_unitary`` calls, one per tessellation: the full formula on every node."""
    for _ in range(cfg.steps):
        for t in ts:
            psi = local_unitary(psi, t, cfg)
    return psi


LIGHT_CONE_WALKS = {
    "path-41": generate_path_tessellations(41),
    "lattice-1x5": generate_lattice_tessellations((1, 5)),
    "lattice-5x1": generate_lattice_tessellations((5, 1)),
    "lattice-6x1x3": generate_lattice_tessellations((6, 1, 3)),
    "lattice-60x61": generate_lattice_tessellations((60, 61)),
}
LIGHT_CONE_THETAS = KERNEL_THETAS + [math.pi]


def light_cone_cases():
    """(name, graph, tessellations, cfg, start state) for every light-cone check, the basis starts first."""
    for name, (g, ts) in LIGHT_CONE_WALKS.items():
        n = g.node_count
        for theta in LIGHT_CONE_THETAS:
            for convention in (CONVENTION_ABSTRACT, CONVENTION_PHYSICAL):
                cfg = WalkConfig(theta, 4, convention)
                for start in sorted({0, n // 2, n - 1}):
                    yield f"{name}-{convention}-{theta!r}-start{start}", g, ts, cfg, initial_basis_state(n, start)
    g, ts = LIGHT_CONE_WALKS["path-41"]
    for theta in LIGHT_CONE_THETAS:
        for convention in (CONVENTION_ABSTRACT, CONVENTION_PHYSICAL):
            # three kernel calls a step, so an odd count of calls leaves the result in evolve's spare array
            yield f"t0-t1-t0-{convention}-{theta!r}", g, (ts[0], ts[1], ts[0]), WalkConfig(theta, 3, convention), (
                initial_basis_state(41, 20)
            )
            # a -0.0 part far from the support is live: the full formula turns it into +0.0
            psi = initial_basis_state(41, 0)
            psi[40] = complex(-0.0, 0.0)
            yield f"minus-zero-{convention}-{theta!r}", g, ts, WalkConfig(theta, 2, convention), psi


def light_cone_mismatch(evolve_fn):
    """The first case whose final bytes under ``evolve_fn`` differ from a plain chain's, or that it refuses; or None."""
    for case, g, ts, cfg, psi in light_cone_cases():
        try:
            if evolve_fn(psi, ts, cfg, graph=g).tobytes() != plain_chain(psi, ts, cfg).tobytes():
                return case
        except ValidationError:  # amplitude lost outside a too-narrow window fails the exit norm check
            return case
    return None


class TestLightCone:
    """evolve computes only inside the walk's light cone, and its bytes are those of the full formula everywhere."""

    @pytest.mark.parametrize("g,ts,cfg,psi", [pytest.param(*case[1:], id=case[0]) for case in light_cone_cases()])
    def test_evolve_matches_a_chain_of_plain_calls(self, g, ts, cfg, psi):
        before = psi.tobytes()
        seen = []
        out = evolve(psi, ts, cfg, graph=g, on_step=lambda step, s: seen.append(s.copy()))
        assert out.tobytes() == plain_chain(psi, ts, cfg).tobytes()
        for step, s in enumerate(seen):  # every observed state too, not only the last
            assert s.tobytes() == plain_chain(psi, ts, WalkConfig(cfg.theta, step, cfg.convention)).tobytes()
        assert psi.tobytes() == before

    def test_a_kernel_that_returns_a_fresh_array(self, monkeypatch):
        # evolve's two arrays swap after every call whatever the kernel returns: windows only grow, so the array
        # handed back as the spare is +0.0 outside the next window either way
        kernel = walk.local_unitary
        monkeypatch.setattr(walk, "local_unitary", lambda psi, t, cfg: kernel(psi, t, cfg).copy())
        assert light_cone_mismatch(evolve) is None

    def test_zeros_outside_the_cone_are_plus_zero(self):
        g, ts = generate_path_tessellations(2001)
        seen = []
        evolve(initial_basis_state(2001, 1000), ts, WalkConfig(0.9, 5), graph=g, on_step=lambda _, s: seen.append(s.copy()))
        for step, s in enumerate(seen):  # two calls of reach 1 a step
            words = s.view(np.uint64).reshape(-1, 2)
            assert not words[: 1000 - 2 * step].any() and not words[1001 + 2 * step :].any()

    def test_kernel_computes_only_inside_the_window(self):
        g, ts = generate_path_tessellations(11)
        psi = initial_basis_state(11, 5).view(walk._Checked)
        spare = np.full(11, 7.0 + 7.0j)
        psi.window = (4, 7, spare)
        out = local_unitary(psi, ts[0], WalkConfig(0.9))
        assert out is spare
        assert np.array_equal(out[4:7], local_unitary(initial_basis_state(11, 5), ts[0], WalkConfig(0.9))[4:7])
        outside = np.setdiff1d(np.r_[0:4, 7:11], ts[0].singletons)  # singletons are restored wherever they are
        assert np.all(out[outside] == 7.0 + 7.0j) and np.all(out[ts[0].singletons] == 0.0)


class TestLightConeMutants:
    """Each mutant of walk.py, built in memory, fails the light-cone checks: they can tell a wrong window."""

    MUTANTS = {
        "reach-of-one-tessellation-minus-one": (
            "reach[id(t)] = int((t.pairs[:, 1] - t.pairs[:, 0]).max())",
            "reach[id(t)] = int((t.pairs[:, 1] - t.pairs[:, 0]).max()) - (t is tessellations[0])",
        ),
    }

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutant_fails(self, mutant, monkeypatch):
        old, new = self.MUTANTS[mutant]
        source = inspect.getsource(walk)
        assert source.count(old) == 1
        module = types.ModuleType("sqwbench._walk_mutant")
        module.__package__ = "sqwbench"
        monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclass looks its module up there
        exec(compile(source.replace(old, new), walk.__file__, "exec"), module.__dict__)
        assert light_cone_mismatch(module.evolve) is not None
        assert light_cone_mismatch(evolve) is None


class TestKernelMemory:
    def test_evolve_holds_two_states_at_most(self):
        # tracemalloc counts numpy's buffers wherever glibc places them; a c*psi temporary per kernel call makes three
        g, ts = generate_lattice_tessellations((200, 200))
        for t in ts:  # caches each partner array before the trace starts
            hamiltonian_from_tessellation(g, t)
        psi = initial_basis_state(g.node_count, 20100)
        tracemalloc.start()
        try:
            evolve(psi, ts, WalkConfig(math.pi / 3, 3), graph=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * psi.nbytes


REVERSIBLE_WALKS = {
    "path-41": generate_path_tessellations(41),
    "lattice-7x5": generate_lattice_tessellations((7, 5)),
    "lattice-6x6": generate_lattice_tessellations((6, 6)),
    "lattice-3x4x2": generate_lattice_tessellations((3, 4, 2)),
    "lattice-60x61": generate_lattice_tessellations((60, 61)),
}


class TestTimeReversal:
    """exp(i*theta*H)^-1 = exp(-i*theta*H): -theta through the reversed tessellations undoes a walk with theta."""

    @pytest.mark.parametrize("theta", [math.pi / 3, 0.9, -2.5])
    @pytest.mark.parametrize("convention", [CONVENTION_ABSTRACT, CONVENTION_PHYSICAL])
    @pytest.mark.parametrize("name", REVERSIBLE_WALKS)
    def test_reversed_walk_returns_the_start(self, name, convention, theta):
        g, ts = REVERSIBLE_WALKS[name]
        rng = np.random.default_rng(3)
        start = rng.normal(size=g.node_count) + 1j * rng.normal(size=g.node_count)
        start /= np.linalg.norm(start)
        there = evolve(start, ts, WalkConfig(theta, 10, convention), graph=g)
        assert np.linalg.norm(there - start) > 0.5  # the walk moved the state
        back = evolve(there, ts[::-1], WalkConfig(-theta, 10, convention), graph=g)
        assert np.max(np.abs(back - start)) < 1e-13
