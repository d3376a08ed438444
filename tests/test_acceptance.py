"""Acceptance gate: one check per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import random
import time
import warnings

import numpy as np
from scipy.integrate import quad

from sqwbench.circuit import (
    DEFAULT_PARAMS,
    couplings,
    normalization_amplitude,
    solve_flux_off,
    solve_mode,
)
from sqwbench.graph import (
    build_graph,
    generate_lattice_tessellations,
    generate_path_tessellations,
    greedy_tessellate,
)
from sqwbench.oracle import brute_force_evolve, dense_hamiltonian
from sqwbench.schedule import compile_schedule, emit_schedule, parse_schedule, simulate_compiled, validate_schedule
from sqwbench.walk import (
    CONVENTION_ABSTRACT,
    WalkConfig,
    evolve,
    hamiltonian_from_tessellation,
    initial_basis_state,
    local_unitary,
    probability_distribution,
    spread_statistics,
)

CHI_C = 0.5e-3
CHI_L_MAX = 0.3059


def report(name, checks):
    """Print one pass/fail line for a criterion; checks is [(ok, detail), ...]."""
    failures = [detail for ok, detail in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({'; '.join(failures)})" if failures else ""))
    assert not failures, f"{name}: {failures}"


def test_criterion_1_ballistic_line_walk():
    started = time.perf_counter()
    g, ts = generate_path_tessellations(133)
    psi = initial_basis_state(133, 66)
    distributions = []
    evolve(psi, ts, WalkConfig(math.pi / 3, 32), graph=g,
           on_step=lambda _, s: distributions.append(probability_distribution(s)))
    elapsed = time.perf_counter() - started
    final = distributions[-1]
    support = np.nonzero(final > 1e-14)[0]
    sigmas = spread_statistics(distributions, 66)
    ratio = sigmas[32] / sigmas[16]
    top_two = np.argsort(final)[-2:]
    checks = [
        (abs(final.sum() - 1.0) < 1e-12, f"probability sum {final.sum()!r}"),
        (support.min() >= 2 and support.max() <= 130, f"support [{support.min()}, {support.max()}]"),
        (1.9 <= ratio <= 2.1, f"sigma(32)/sigma(16) = {ratio:.4f}"),
        (all(abs(int(n) - 66) > 32 for n in top_two), f"peaks at {sorted(int(n) for n in top_two)}"),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s"),
    ]
    report("1 ballistic line walk (N=133, theta=pi/3, 32 steps)", checks)


def test_criterion_2_hadamard_like_block():
    g, ts = generate_path_tessellations(2)
    h = hamiltonian_from_tessellation(g, ts[0])
    cfg = WalkConfig(theta=math.pi / 4)
    block = np.stack(
        [local_unitary(initial_basis_state(2, k), h, cfg) for k in range(2)], axis=1
    )
    want = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
    err = np.max(np.abs(block - want))
    report("2 Hadamard-like block at theta=pi/4", [(err < 1e-12, f"max entry error {err:.3e}")])


def _corpus_of_200(rng):
    graphs = []
    for k in range(50):  # paths
        n = 1 + (k * 7) % 50
        graphs.append(generate_path_tessellations(n))
    for k in range(50):  # even cycles
        n = 4 + 2 * (k % 19)
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        graphs.append((g, greedy_tessellate(g)))
    for _ in range(50):  # random trees
        n = rng.randint(2, 40)
        g = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        graphs.append((g, greedy_tessellate(g)))
    for k in range(50):  # lattices up to 5x5
        rows, cols = 1 + k % 5, 1 + (k // 5) % 5
        graphs.append(generate_lattice_tessellations([rows, cols]))
    return graphs


def test_criterion_3_reflection_and_exponential_identities():
    started = time.perf_counter()
    rng = random.Random(20250810)
    thetas = [0.3, math.pi / 4, math.pi / 3, 2.0]
    worst_reflection = 0.0
    worst_evolution = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        corpus = _corpus_of_200(rng)
        assert len(corpus) == 200
        for index, (g, ts) in enumerate(corpus):
            n = g.node_count
            for t in ts:
                h = hamiltonian_from_tessellation(g, t)
                dense = dense_hamiltonian(h)
                worst_reflection = max(worst_reflection, float(np.max(np.abs(dense @ dense - np.eye(n)))))
            theta = thetas[index % len(thetas)]
            psi = initial_basis_state(n, rng.randrange(n))
            steps = 1 + index % 2
            fast = evolve(psi, ts, WalkConfig(theta, steps, CONVENTION_ABSTRACT), graph=g)
            slow = brute_force_evolve(psi, ts, theta, steps)
            worst_evolution = max(worst_evolution, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - started
    checks = [
        (worst_reflection < 1e-12, f"max |H^2 - I| = {worst_reflection:.3e}"),
        (worst_evolution < 1e-9, f"max amplitude error vs oracle = {worst_evolution:.3e}"),
        (elapsed < 30.0, f"runtime {elapsed:.2f} s"),
    ]
    report("3 reflection/exponential identities on 200 random triangle-free graphs", checks)


def _quadrature_amplitude(kl, chi_c):
    t = math.tan(kl)

    def profile_sq(s):
        return (math.cos(kl * s) + t * math.sin(kl * abs(s))) ** 2

    integral, _ = quad(profile_sq, -1.0, 1.0, points=[0.0], limit=200, epsabs=1e-13, epsrel=1e-13)
    return 1.0 / math.sqrt(integral + 8.0 * chi_c)


def test_criterion_4_circuit_numbers():
    mode_on = solve_mode(CHI_C, -CHI_L_MAX, -CHI_L_MAX, 1, DEFAULT_PARAMS)
    mode_off = solve_mode(CHI_C, -CHI_L_MAX, 0.0191, 1, DEFAULT_PARAMS)
    chi_l_off = 4 * CHI_C * mode_off.kl**2
    cosine = chi_l_off / CHI_L_MAX
    flux_off = solve_flux_off(CHI_C, mode_off.kl, CHI_L_MAX)
    link = couplings(mode_on, mode_on, CHI_C, -CHI_L_MAX)
    cap_ratio = link.kappa_cap / mode_on.omega
    ind_ratio = link.kappa_ind / mode_on.omega
    amplitude = normalization_amplitude(mode_on.kl, CHI_C)
    quad_amplitude = _quadrature_amplitude(mode_on.kl, CHI_C)
    checks = [
        (abs(mode_on.kl - 3.0351) <= 5e-4, f"kL(on) = {mode_on.kl:.5f}"),
        (abs(mode_off.kl - 3.089) <= 1e-3, f"kL(on+off) = {mode_off.kl:.5f}"),
        (abs(chi_l_off - 0.0191) <= 2e-4, f"chi_l_off = {chi_l_off:.5f}"),
        (abs(cosine - 0.0624) <= 5e-4, f"cos(pi flux) = {cosine:.5f}"),
        (abs(flux_off - 0.4801) <= 5e-4, f"flux_off = {flux_off:.5f}"),
        (abs(cap_ratio - 1.0201e-3) <= 1e-6, f"kappa_cap/omega = {cap_ratio:.7e}"),
        (abs(ind_ratio - (-1.6939e-2)) <= 2e-5, f"kappa_ind/omega = {ind_ratio:.7e}"),
        (1.005 <= amplitude <= 1.015, f"A = {amplitude:.5f}"),
        (abs(amplitude - quad_amplitude) <= 1e-8, f"A vs quadrature diff {abs(amplitude - quad_amplitude):.2e}"),
    ]
    report("4 circuit numbers (chi_c=0.5e-3, |chi_l|max=0.3059)", checks)


def test_criterion_5_compiler_soundness():
    checks = []
    cases = [generate_path_tessellations(5), generate_lattice_tessellations([3, 3])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for g, ts in cases:
            run = compile_schedule(g, ts, math.pi / 3, DEFAULT_PARAMS, 2)
            psi = initial_basis_state(g.node_count, g.node_count // 2)
            compiled_out = simulate_compiled(run, psi, g, convention=CONVENTION_ABSTRACT)
            direct = evolve(psi, ts, WalkConfig(math.pi / 3, 2, CONVENTION_ABSTRACT), graph=g)
            oracle = brute_force_evolve(psi, ts, math.pi / 3, 2)
            violations = validate_schedule(run.schedule, g)
            text = emit_schedule(run.schedule)
            round_trip = parse_schedule(text)
            checks.extend(
                [
                    (np.array_equal(compiled_out, direct), f"N={g.node_count}: compiled != direct"),
                    (
                        float(np.max(np.abs(compiled_out - oracle))) < 1e-9,
                        f"N={g.node_count}: oracle error {float(np.max(np.abs(compiled_out - oracle))):.2e}",
                    ),
                    (violations == [], f"N={g.node_count}: schedule violations {violations}"),
                    (round_trip == run.schedule, f"N={g.node_count}: JSON round trip not identity"),
                    (emit_schedule(round_trip) == text, f"N={g.node_count}: re-emit not byte-identical"),
                ]
            )
    report("5 compiler soundness (path N=5, lattice 3x3)", checks)


def test_criterion_6_unitarity_endurance():
    g, ts = generate_path_tessellations(65)
    psi = initial_basis_state(65, 32)
    out = evolve(psi, ts, WalkConfig(0.9, 1000), graph=g)
    drift = abs(np.linalg.norm(out) - 1.0)
    report("6 unitarity endurance (1000 steps, N=65, theta=0.9)", [(drift < 1e-10, f"norm drift {drift:.3e}")])


def test_hardware_feasibility_strings_in_cli_output(tmp_path, capsys):
    from sqwbench.cli import main

    code_circuit = main(["circuit", "--out", str(tmp_path / "c")])
    code_schedule = main(["schedule", "--path", "5", "--steps", "1", "--out", str(tmp_path / "s")])
    out = capsys.readouterr().out
    checks = [
        (code_circuit == 0 and code_schedule == 0, "commands failed"),
        ("feasibility" in out, "no feasibility line"),
        ("0.1 us" in out, "switching budget not mentioned"),
    ]
    with capsys.disabled():
        report("7 hardware feasibility warnings in CLI output", checks)
