import dataclasses
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

import sqwbench
from sqwbench import errors
from sqwbench._format import fmt17
from sqwbench.circuit import DEFAULT_PARAMS, max_chi_l
from sqwbench.cli import main, parse_theta
from sqwbench.errors import NumericError, ValidationError, _load_json
from sqwbench.graph import (
    build_graph,
    generate_lattice_tessellations,
    generate_path_tessellations,
    graph_from_json,
    graph_to_json,
    greedy_tessellate,
)
from sqwbench.schedule import parse_schedule, validate_schedule
from sqwbench.walk import WalkConfig, evolve, initial_basis_state, probability_distribution

from regen_golden import GOLDEN, golden_digests, run_examples

DATA = Path(__file__).parent / "data"


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def distribution_at_step(path, step):
    _, rows = read_csv(path)
    return {int(r[1]): float(r[2]) for r in rows if int(r[0]) == step}


class TestThetaParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("pi/3", math.pi / 3),
            ("pi/4", math.pi / 4),
            ("2pi/5", 2 * math.pi / 5),
            ("3*pi/4", 3 * math.pi / 4),
            ("-pi/2", -math.pi / 2),
            (".5pi", 0.5 * math.pi),
            ("0.75", 0.75),
            ("1e-2", 0.01),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_theta(text) == pytest.approx(value, rel=0, abs=0)

    def test_rejected_form_is_usage_error(self, tmp_path, capsys):
        code = main(["walk", "--path", "5", "--theta", "tau/3", "--out", str(tmp_path)])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--theta", "pi/0", "zero denominator in angle 'pi/0'"),
            ("--lattice", "3,x", "cannot parse lattice dimensions '3,x'"),
            ("--lattice", ",", "cannot parse lattice dimensions ','"),
            *(
                ("--theta", form, f"cannot parse angle {form!r}; use a number or a fraction of pi such as pi/3")
                for form in (".pi", "-.pi", ".pi/3")
            ),
        ],
    )
    def test_unparsable_value_is_usage_error(self, tmp_path, capsys, option, value, message):
        graph = [] if option == "--lattice" else ["--path", "5"]
        assert main(["walk", *graph, option, value, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_angle_as_separate_argument(self, tmp_path):
        assert main(["walk", "--path", "5", "--theta", "-pi/2", "--out", str(tmp_path / "sep")]) == 0
        assert json.loads((tmp_path / "sep" / "run.json").read_text())["theta"] == -math.pi / 2
        assert main(["walk", "--path", "5", "--theta=-pi/2", "--out", str(tmp_path / "eq")]) == 0
        for name in ("distribution.csv", "run.json"):
            assert (tmp_path / "sep" / name).read_bytes() == (tmp_path / "eq" / name).read_bytes()

    @pytest.mark.parametrize("form", [["--theta=-0"], ["--theta", "-0"], ["--theta=-0.0"]])
    def test_negative_zero_angle_keeps_its_sign_in_run_json(self, tmp_path, form):
        assert main(["walk", "--path", "3", *form, "--out", str(tmp_path)]) == 0
        theta = json.loads((tmp_path / "run.json").read_text())["theta"]
        assert type(theta) is float and math.copysign(1.0, theta) == -1.0

    def test_negative_angle_for_circuit_and_schedule(self, tmp_path, capsys):
        assert main(["circuit", "--theta", "-pi/3", "--out", str(tmp_path / "c")]) == 0
        assert "at theta = -1.0472 " in capsys.readouterr().out
        for name, form in (("sep", ["--theta", "-pi/2"]), ("eq", ["--theta=-pi/2"])):
            assert main(["schedule", "--path", "5", *form, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "sep" / "schedule.json").read_bytes() == (tmp_path / "eq" / "schedule.json").read_bytes()

    def test_option_after_theta_is_still_a_missing_value(self, tmp_path, capsys):
        assert main(["walk", "--path", "5", "--theta", "--force", "--out", str(tmp_path)]) == 1
        assert "argument --theta: expected one argument" in capsys.readouterr().err


class TestWalkCommand:
    def test_ballistic_run_outputs(self, tmp_path):
        code = main(
            ["walk", "--path", "133", "--theta", "pi/3", "--steps", "32",
             "--start", "66", "--out", str(tmp_path), "--svg"]
        )
        assert code == 0
        final = distribution_at_step(tmp_path / "distribution.csv", 32)
        total = sum(final.values())
        assert abs(total - 1.0) < 1e-12
        support = [node for node, p in final.items() if p > 1e-14]
        assert min(support) >= 2 and max(support) <= 130
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta == {
            "n": 133,
            "theta": pytest.approx(math.pi / 3),
            "steps": 32,
            "convention": "physical",
            "tessellation_source": "path:133",
        }
        svg = (tmp_path / "distribution.svg").read_text()
        assert svg.startswith("<svg") and "<rect" in svg

    def test_single_node_walk_stays_put(self, tmp_path):
        assert main(["walk", "--path", "1", "--steps", "10", "--out", str(tmp_path)]) == 0
        for step in range(11):
            assert distribution_at_step(tmp_path / "distribution.csv", step) == {0: 1.0}

    def test_zero_angle_keeps_delta(self, tmp_path):
        assert main(["walk", "--path", "9", "--theta", "0", "--steps", "5", "--out", str(tmp_path)]) == 0
        final = distribution_at_step(tmp_path / "distribution.csv", 5)
        assert final[4] == 1.0

    def test_default_start_is_middle(self, tmp_path):
        assert main(["walk", "--path", "9", "--steps", "0", "--out", str(tmp_path)]) == 0
        assert distribution_at_step(tmp_path / "distribution.csv", 0)[4] == 1.0

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["walk", "--path", "21", "--theta", "pi/3", "--steps", "7", "--svg"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("distribution.csv", "run.json", "distribution.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_overwrite_needs_force(self, tmp_path, capsys):
        args = ["walk", "--path", "5", "--steps", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_start_out_of_range_is_domain_error(self, tmp_path, capsys):
        code = main(["walk", "--path", "5", "--start", "7", "--out", str(tmp_path)])
        assert code == 2

    def test_lattice_walk(self, tmp_path):
        assert main(["walk", "--lattice", "3,3", "--steps", "2", "--out", str(tmp_path)]) == 0
        final = distribution_at_step(tmp_path / "distribution.csv", 2)
        assert abs(sum(final.values()) - 1.0) < 1e-12

    def test_graph_file_with_greedy_tessellation(self, tmp_path):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(graph_to_json(g))
        out = tmp_path / "out"
        assert main(["walk", "--graph", str(graph_file), "--steps", "2", "--out", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["tessellation_source"].startswith("file+greedy")

    def test_graph_file_with_tessellations(self, tmp_path):
        g, ts = generate_lattice_tessellations((3, 2))
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(graph_to_json(g, ts))
        out = tmp_path / "out"
        assert main(["walk", "--graph", str(graph_file), "--steps", "2", "--out", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["tessellation_source"] == f"file:{graph_file}"

    def test_triangle_graph_file_rejected(self, tmp_path, capsys):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        graph_file = tmp_path / "triangle.json"
        graph_file.write_text(graph_to_json(g))
        code = main(["walk", "--graph", str(graph_file), "--out", str(tmp_path)])
        assert code == 2
        assert "triangle" in capsys.readouterr().err

    def test_missing_graph_source_is_usage_error(self, tmp_path):
        assert main(["walk", "--out", str(tmp_path)]) == 1

    def test_missing_file_is_domain_error(self, tmp_path):
        assert main(["walk", "--graph", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"nodes": 2**70, "edges": [[0, 1]]}, f"node_count must be at most {np.iinfo(np.intp).max}, got {2**70}"),
            # a parameter file given as the graph: its 400-digit integer is never converted to float
            (
                {**dataclasses.asdict(DEFAULT_PARAMS), "cap_per_length": 10**400},
                'graph JSON needs "nodes" and "edges" keys',
            ),
        ],
        ids=["node-count-2**70", "parameter-file-400-digits"],
    )
    def test_bad_graph_file_is_one_line_domain_error(self, tmp_path, capsys, payload, message):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(json.dumps(payload))
        assert main(["walk", "--graph", str(graph_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_observer_sums_no_norm(self, tmp_path, monkeypatch):
        # evolve checks the state on exit, so the per-step distributions skip probability_distribution's norm sum
        calls = []

        def counted(state):
            calls.append(1)
            return probability_distribution(state)

        monkeypatch.setattr(sqwbench.cli, "probability_distribution", counted)
        assert main(["walk", "--path", "41", "--steps", "12", "--out", str(tmp_path)]) == 0
        assert calls == []

    def test_out_of_memory_is_domain_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr("sqwbench.cli.cmd_walk", exhausted)
        assert main(["walk", "--path", "5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: out of memory")

    @pytest.mark.parametrize(
        "argv",
        [
            ["walk", "--path", str(2**60)],
            ["walk", "--path", str(2**63 - 1)],
            ["walk", "--lattice", "3037000500,3037000500"],
            ["schedule", "--path", str(2**62)],
        ],
    )
    def test_size_numpy_cannot_allocate_is_out_of_memory(self, tmp_path, capsys, argv):
        # numpy refuses these node arrays before it allocates anything (2**58 and 2**59 fail in malloc instead)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: out of memory; reduce the graph size or --steps\n"
        assert not out.exists()


def per_cell_csv(g, ts, theta, steps, convention):
    """distribution.csv built cell by cell: one fmt17 call per probability."""
    state = initial_basis_state(g.node_count, (g.node_count - 1) // 2)
    history = []
    evolve(state, ts, WalkConfig(theta, steps, convention), graph=g, on_step=lambda _, psi: history.append(psi.copy()))
    lines = ["step,node,probability"]
    for step, psi in enumerate(history):
        for node, p in enumerate(probability_distribution(psi)):
            lines.append(f"{step},{node},{fmt17(p)}")
    return ("\n".join(lines) + "\n").encode()


GREEDY_GRAPH = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])


class TestDistributionCsvBytes:
    @pytest.mark.parametrize(
        "argv,graph,theta,steps,convention",
        [
            (["--path", "1", "--steps", "0"], generate_path_tessellations(1), math.pi / 3, 0, "physical"),
            (["--path", "133", "--theta", "pi/4", "--steps", "40"],
             generate_path_tessellations(133), math.pi / 4, 40, "physical"),
            (["--lattice", "3,3", "--steps", "8", "--convention", "abstract"],
             generate_lattice_tessellations((3, 3)), math.pi / 3, 8, "abstract"),
            (None, (GREEDY_GRAPH, greedy_tessellate(GREEDY_GRAPH)), 0.9, 5, "physical"),
        ],
        ids=["single-node", "readme-path-133", "lattice-3x3-abstract", "greedy-graph-json"],
    )
    def test_matches_per_cell_formatting(self, tmp_path, argv, graph, theta, steps, convention):
        if argv is None:
            graph_file = tmp_path / "graph.json"
            graph_file.write_text(graph_to_json(GREEDY_GRAPH))
            assert graph_from_json(graph_file.read_text())[1] is None
            argv = ["--graph", str(graph_file), "--theta", "0.9", "--steps", "5"]
        out = tmp_path / "out"
        assert main(["walk", *argv, "--out", str(out)]) == 0
        g, ts = graph
        assert (out / "distribution.csv").read_bytes() == per_cell_csv(g, ts, theta, steps, convention)


def complete_bipartite_json(k):
    return json.dumps({"nodes": 2 * k, "edges": [[i, k + j] for i in range(k) for j in range(k)]})


class TestGreedyGraphFiles:
    # sha256 of distribution.csv and run.json from walk --graph FILE --steps 3, taken when greedy_tessellate
    # refused graphs that need more than max_degree + 1 rounds: the graphs it accepted then keep their bytes
    PINNED = {
        "bipartite7.json": (
            (DATA / "graph_bipartite7.json").read_text(),
            "5193203a33885a6206190bdf801d3f576dbbb3d27692d3bf01ee1cfefd576db7",
            "8b80e5d4134d0ab7946fb31f56c554dd8c0df5f504f5f034a15722bd48f00a56",
        ),
        "cycle7.json": (  # 3 rounds for maximum degree 2, with the warning
            json.dumps({"nodes": 7, "edges": [[i, (i + 1) % 7] for i in range(7)]}),
            "b21ed394918fca56b213ed51550d99063a75d3958c9161fffed3e32ee9953f08",
            "e43c80f3ef831bb2f22118f7578db883838e874c85502af4c73ed3fd195fe57e",
        ),
        "k55.json": (  # 6 rounds for maximum degree 5, with the warning
            complete_bipartite_json(5),
            "50056236d2d441039f95fbe837c01fa6fca640d61a4255319a743e3757c3473e",
            "ab8e85235492d8e46ae994126f8e7a02c45e0ad843aa0f45dfd57dbf0c2fcc26",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    @pytest.mark.filterwarnings("ignore:needed:RuntimeWarning")
    def test_walk_bytes_are_pinned(self, tmp_path, monkeypatch, name):
        text, *expected = self.PINNED[name]
        monkeypatch.chdir(tmp_path)  # run.json records the graph path as given
        Path(name).write_text(text)
        assert main(["walk", "--graph", name, "--steps", "3", "--out", "out"]) == 0
        for output, digest in zip(["distribution.csv", "run.json"], expected):
            assert hashlib.sha256((tmp_path / "out" / output).read_bytes()).hexdigest() == digest, f"{name}: {output}"

    def test_k10_10_walks_and_compiles(self, tmp_path, capsys):
        # greedy needs 12 rounds for maximum degree 10 here: more than max_degree + 1
        graph_file = tmp_path / "k10_10.json"
        graph_file.write_text(complete_bipartite_json(10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # greedy's warning is printed as a line, not raised out of main
            assert main(["walk", "--graph", str(graph_file), "--steps", "2", "--out", str(tmp_path / "w")]) == 0
            assert main(["schedule", "--graph", str(graph_file), "--out", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().err == "warning: needed 12 tessellations for maximum degree 10\n" * 2
        source = json.loads((tmp_path / "w" / "run.json").read_text())["tessellation_source"]
        assert source == f"file+greedy:{graph_file}"
        g, _ = graph_from_json(graph_file.read_text())
        schedule = parse_schedule((tmp_path / "s" / "schedule.json").read_text())
        assert len(schedule.intervals) == 12
        assert validate_schedule(schedule, g) == []


class TestCircuitCommand:
    def test_stock_report_numbers(self, tmp_path, capsys):
        assert main(["circuit", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {
            "kL", "omega_rad_s", "A", "kappa_cap", "kappa_ind", "kappa_total", "flux_on", "flux_off",
        }
        assert report["kL"] == pytest.approx(3.0351, abs=5e-4)
        assert report["A"] == pytest.approx(1.01, abs=5e-3)
        assert report["flux_on"] == 1.0
        assert report["flux_off"] == pytest.approx(0.4801, abs=5e-4)
        assert report["kappa_cap"] / report["omega_rad_s"] == pytest.approx(1.0201e-3, abs=1e-6)
        assert report["kappa_ind"] / report["omega_rad_s"] == pytest.approx(-1.6939e-2, abs=2e-5)
        out = capsys.readouterr().out
        assert "feasibility" in out and "0.1 us" in out

    def test_zero_chi_c_params(self, tmp_path):
        params = {
            "cap_per_length": 1e-10,
            "ind_per_length": 2.5e-7,
            "half_length": 1e-2,
            "junction_capacitance": 1e-21,  # essentially no junction capacitance
            "josephson_energy": 6.6262e-24,
        }
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params))
        assert main(["circuit", "--params", str(params_file), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["flux_off"] == pytest.approx(0.5, abs=1e-6)

    def test_sweep_monotone_single_crossing(self, tmp_path):
        assert main(["circuit", "--sweep", "24", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        totals = np.array([float(r[-1]) for r in rows])
        assert len(totals) == 25
        assert totals[0] < 0 < totals[-1]
        assert np.all(np.diff(totals) > 0)
        assert int(np.sum(np.diff(np.sign(totals)) != 0)) == 1

    def test_unreachable_off_flux_names_required_energy(self, tmp_path, capsys):
        params_file = tmp_path / "weak.json"
        params_file.write_text(json.dumps({**dataclasses.asdict(DEFAULT_PARAMS), "josephson_energy": 1e-26}))
        errs = []
        for command in (["circuit"], ["schedule", "--path", "5"]):
            assert main([*command, "--params", str(params_file), "--out", str(tmp_path / "out")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs == [
            "error: zero-coupling point needs chi_l = 0.0196586 but the junction only reaches 0.000461605; the "
            "Josephson energy would have to grow by a factor 42.59 (required E_J >= 4.25876e-25 J)\n"
        ] * 2
        assert not (tmp_path / "out").exists()

    BELOW = "interval length 9.853e-10 s is below the {}; flux pulses cannot settle within one interval"

    @pytest.mark.parametrize(
        "budget,shown,verdict",
        [(1e-7, "0.1", BELOW), (2.5e-7, "0.25", BELOW), (1e-10, "0.0001", "interval fits the {}")],  # tau = 9.85e-10 s
        ids=["0.1us", "0.25us", "0.0001us"],
    )
    def test_switching_budget_text_follows_the_constant(self, tmp_path, monkeypatch, capsys, budget, shown, verdict):
        # the stdout of circuit and schedule --path 5 at the stock parameters and theta = pi/3
        monkeypatch.setattr(sqwbench.schedule, "SWITCHING_BUDGET_SECONDS", budget)
        assert main(["circuit", "--out", str(tmp_path / "c")]) == 0
        assert main(["schedule", "--path", "5", "--out", str(tmp_path / "s")]) == 0
        verdict = verdict.format(f"{shown} us switching budget")
        assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("feasibility: ")] == [
            "feasibility: driven coupling 1.06286e+09 rad/s; interval tau = 9.85264e-10 s at theta = 1.0472 vs "
            f"{shown} us switching budget",
            f"feasibility: {verdict}",
            f"feasibility: {verdict}",
        ]

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_writes_nothing(self, tmp_path, capsys, theta):
        out = tmp_path / "out"
        assert main(["circuit", f"--theta={theta}", "--sweep", "2", "--out", str(out)]) == 2
        assert "theta must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theta", ["0", "2pi", "-2pi"])
    def test_unschedulable_theta_fails_as_in_schedule(self, tmp_path, capsys, theta):
        assert main(["schedule", "--path", "5", "--theta", theta, "--out", str(tmp_path / "s")]) == 2
        schedule_err = capsys.readouterr().err
        assert "non-positive interval length" in schedule_err
        out = tmp_path / "out"
        assert main(["circuit", "--theta", theta, "--sweep", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == schedule_err
        assert not out.exists()

    def test_verdict_line_matches_schedule(self, tmp_path, capsys):
        assert main(["circuit", "--theta", "pi/3", "--out", str(tmp_path / "c")]) == 0
        circuit_lines = capsys.readouterr().out.splitlines()
        assert main(["schedule", "--path", "5", "--theta", "pi/3", "--out", str(tmp_path / "s")]) == 0
        verdict = [line for line in capsys.readouterr().out.splitlines() if line.startswith("feasibility: interval")]
        assert len(verdict) == 1 and verdict[0] in circuit_lines

    def test_negative_sweep_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["circuit", "--sweep", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: --sweep must be non-negative, got -1\n"
        assert not out.exists()

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def diverges(params):
            raise NumericError("mode equation root did not converge")

        monkeypatch.setattr("sqwbench.cli.solve_operating_point", diverges)
        out = tmp_path / "out"
        assert main(["circuit", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numeric failure: mode equation root did not converge\n"
        assert not out.exists()

    def test_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["circuit", "--sweep", "8", "--out", str(a)]) == 0
        assert main(["circuit", "--sweep", "8", "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_bad_params_file_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"josephson_energy": 1e-24')
        assert main(["circuit", "--params", str(bad), "--out", str(tmp_path)]) == 2
        message = f"malformed parameter JSON in {bad} at byte offset 26: Expecting ',' delimiter"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_object_params_file_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1e-10, 2.5e-7]")
        assert main(["circuit", "--params", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: parameter file {bad} must hold a JSON object\n"

    @pytest.mark.parametrize("field", ["josephson_energy", "flux_quantum"])
    def test_bool_param_is_domain_error(self, tmp_path, capsys, field):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({**dataclasses.asdict(DEFAULT_PARAMS), field: True}))
        out = tmp_path / "out"
        assert main(["circuit", "--params", str(params_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be a positive finite number, got True\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["circuit"], ["schedule", "--path", "5"]], ids=["circuit", "schedule"])
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("flux_quantum", 1e308, "flux_quantum**2 must be a positive finite number, got inf"),
            ("flux_quantum", 1e-200, "flux_quantum**2 must be a positive finite number, got 0.0"),
            ("ind_per_length", 1e-320, "ind_per_length * cap_per_length must be a positive finite number, got 0.0"),
            ("half_length", 1e-320, "2 * half_length * cap_per_length must be a positive finite number, got 0.0"),
            (
                "flux_quantum",
                1e-160,
                "max chi_l = 4 pi**2 * josephson_energy / flux_quantum**2 * 2 * half_length * ind_per_length"
                " must be finite, got inf",
            ),
            (
                "junction_capacitance",
                1e300,
                "chi_c = junction_capacitance / (2 * half_length * cap_per_length) must be finite, got inf",
            ),
            # integers are compared exactly, not converted to float, which would raise OverflowError
            ("cap_per_length", 10**400, f"cap_per_length must be a positive finite number, got {10**400}"),
            ("flux_quantum", 10**200, f"flux_quantum**2 must be a positive finite number, got {10**400}"),
        ],
        ids=["flux-overflow", "flux-underflow", "lc-underflow", "lc-chi-underflow", "chi-l-overflow", "chi-c-overflow",
             "int-field-overflow", "int-flux-squared-overflow"],
    )
    def test_product_out_of_float_range_is_domain_error(self, tmp_path, capsys, command, field, value, message):
        # finite positive fields whose product, a divisor in the circuit formulas, leaves the float range
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({**dataclasses.asdict(DEFAULT_PARAMS), field: value}))
        out = tmp_path / "out"
        assert main(command + ["--params", str(params_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["circuit"], ["schedule", "--path", "5"]], ids=["circuit", "schedule"])
    @pytest.mark.parametrize(
        "value", [1e155, 1e-155, 1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300, 1e308, 1e-320, 5e-324]
    )
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(DEFAULT_PARAMS)])
    def test_extreme_field_is_solved_or_domain_error(self, tmp_path, capsys, command, field, value):
        # a chi_c or max chi_l too large for the solver to bracket the all-on mode root is bad input, not a
        # numeric failure
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({**dataclasses.asdict(DEFAULT_PARAMS), field: value}))
        out = tmp_path / "out"
        code = main(command + ["--params", str(params_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert "numeric failure" not in err and "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()

    def test_unresolvable_mode_names_both_ratios(self, tmp_path, capsys):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({**dataclasses.asdict(DEFAULT_PARAMS), "junction_capacitance": 1e155}))
        assert main(["circuit", "--params", str(params_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: chi_c = junction_capacitance / (2 * half_length * cap_per_length) = 5e+166 and "
            "max chi_l = 4 pi**2 * josephson_energy / flux_quantum**2 * 2 * half_length * ind_per_length = "
            f"{max_chi_l(DEFAULT_PARAMS)!r} leave the all-on mode equation no root the solver can resolve in tangent "
            "branch 1\n"
        )

    def test_unknown_param_key_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"resistance": 50}')
        assert main(["circuit", "--params", str(bad), "--out", str(tmp_path)]) == 2


UNDECODABLE = {
    "nested": "[" * 100_000,  # RecursionError inside json.loads
    "long-integer": '{"nodes": 2, "edges": [[0, %s]]}' % ("1" * 5000),  # ValueError: past the int-string limit
}


class TestUndecodableJson:
    """JSON that json.loads cannot decode, though it is not a JSONDecodeError, is a one-line domain error."""

    @pytest.mark.parametrize("fault", UNDECODABLE)
    @pytest.mark.parametrize(
        "argv,what",
        [
            (["walk", "--graph"], "graph JSON"),
            (["circuit", "--params"], "parameter JSON in {}"),
            (["schedule", "--path", "5", "--params"], "parameter JSON in {}"),
        ],
        ids=["walk-graph", "circuit-params", "schedule-params"],
    )
    def test_cli_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, what, fault):
        source = tmp_path / "input.json"
        source.write_text(UNDECODABLE[fault])
        assert main(argv + [str(source), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what.format(source)} cannot be decoded: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", UNDECODABLE)
    def test_parse_schedule_raises_validation_error(self, fault):
        with pytest.raises(ValidationError, match="^schedule JSON cannot be decoded: "):
            parse_schedule(UNDECODABLE[fault])


class TestCollectorRestored:
    """Each reader pauses the cyclic collector from decode through conversion and leaves it as the caller had it, on
    every exit; _load_json's failures are one-line ValidationErrors."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_success(self, collector, monkeypatch):
        during = []
        loads = json.loads
        monkeypatch.setattr(errors.json, "loads", lambda text: during.append(gc.isenabled()) or loads(text))
        assert graph_from_json('{"nodes": 2, "edges": [[0, 1]]}') == (build_graph(2, [(0, 1)]), None)
        assert during == [False] and gc.isenabled() is collector

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"nodes": [0, 1', "^malformed test JSON at byte offset 15: "),
            *((text, "^test JSON cannot be decoded: ") for text in UNDECODABLE.values()),
        ],
        ids=["malformed", *UNDECODABLE],
    )
    def test_failure(self, collector, text, message):
        with pytest.raises(ValidationError, match=message):
            _load_json(text, "test JSON")
        assert gc.isenabled() is collector

    READERS = ["graph_from_json", "parse_schedule", "load_params"]

    @staticmethod
    def read(reader, tmp_path):
        if reader == "graph_from_json":
            return graph_from_json('{"nodes": 3, "edges": [[0, 1], [1, 2]], "tessellations": [[[0, 1], [2]], [[0], [1, 2]]]}')
        if reader == "parse_schedule":
            return parse_schedule((DATA / "schedule_path5_v2.json").read_text())
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dataclasses.asdict(DEFAULT_PARAMS)))
        return sqwbench.cli._load_params(str(path))

    @pytest.mark.parametrize("reader", READERS)
    def test_collector_resumes_after_the_decoded_value_is_freed(self, reader, tmp_path, monkeypatch):
        was = gc.isenabled()
        gc.enable()
        decoded, refs_at_resume = [], []
        loads, enable = json.loads, gc.enable
        monkeypatch.setattr(errors.json, "loads", lambda text: decoded.append(loads(text)) or decoded[-1])
        # the list and getrefcount's argument: 2 once the reader's frame is gone
        monkeypatch.setattr(errors.gc, "enable", lambda: refs_at_resume.append(sys.getrefcount(decoded[0])) or enable())
        try:
            self.read(reader, tmp_path)
        finally:
            monkeypatch.undo()
            (gc.enable if was else gc.disable)()
        assert refs_at_resume == [2]

    @pytest.mark.parametrize("reader", READERS)
    def test_reader_restores_the_collector(self, reader, collector, tmp_path):
        self.read(reader, tmp_path)
        assert gc.isenabled() is collector
        with pytest.raises(ValidationError):
            graph_from_json('{"nodes": 3, "edges": [[0, 0]]}')
        assert gc.isenabled() is collector


class TestNonUtf8Input:
    """A graph or parameter file whose bytes are not UTF-8 is a one-line domain error that names the file."""

    @pytest.mark.parametrize(
        "argv,what",
        [
            (["walk", "--graph"], "graph file"),
            (["schedule", "--graph"], "graph file"),
            (["circuit", "--params"], "parameter file"),
            (["schedule", "--path", "5", "--params"], "parameter file"),
        ],
        ids=["walk-graph", "schedule-graph", "circuit-params", "schedule-params"],
    )
    def test_cli_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, what):
        source = tmp_path / "input.json"
        source.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
        assert main(argv + [str(source), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {what} {source} is not UTF-8: invalid start byte at byte offset 0\n"
        assert not (tmp_path / "out").exists()


class TestScheduleCommand:
    def test_path5_schedule(self, tmp_path, capsys):
        assert main(["schedule", "--path", "5", "--steps", "1", "--out", str(tmp_path)]) == 0
        schedule = parse_schedule((tmp_path / "schedule.json").read_text())
        assert len(schedule.intervals) == 2
        assert schedule.intervals[0].on_pairs.tolist() == [[0, 1], [2, 3]]
        assert schedule.intervals[1].on_pairs.tolist() == [[1, 2], [3, 4]]
        out = capsys.readouterr().out
        assert "validation: ok" in out
        assert "feasibility" in out and "0.1 us" in out

    def test_failed_validation_is_domain_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sqwbench.cli.validate_schedule", lambda s, g: ["interval 0: stand-in violation"])
        assert main(["schedule", "--path", "5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "validation: interval 0: stand-in violation\nerror: compiled schedule failed validation\n"
        assert not (tmp_path / "schedule.json").exists()

    def test_existing_schedule_refused_before_compiling(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(sqwbench.cli, "compile_schedule", lambda *args: calls.append(args))
        existing = tmp_path / "schedule.json"
        existing.write_text("kept")
        assert main(["schedule", "--path", "5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {existing} already exists; pass --force to overwrite\n"
        assert calls == [] and existing.read_text() == "kept"

    def test_zero_steps_schedule(self, tmp_path):
        assert main(["schedule", "--path", "5", "--steps", "0", "--out", str(tmp_path)]) == 0
        schedule = parse_schedule((tmp_path / "schedule.json").read_text())
        assert schedule.intervals == () and schedule.repetitions == 0

    def test_lattice_schedule_covers_all_edges(self, tmp_path):
        assert main(["schedule", "--lattice", "3,3", "--steps", "1", "--out", str(tmp_path)]) == 0
        schedule = parse_schedule((tmp_path / "schedule.json").read_text())
        assert len(schedule.intervals) == 4
        on = {tuple(sorted(p)) for iv in schedule.intervals for p in iv.on_pairs}
        from sqwbench.graph import generate_lattice_tessellations

        g, _ = generate_lattice_tessellations([3, 3])
        assert on == set(g.edges)

    def test_deterministic_schedule(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["schedule", "--lattice", "2,3", "--steps", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "schedule.json").read_bytes() == (b / "schedule.json").read_bytes()

    @pytest.mark.parametrize(
        "golden,args",
        [
            ("schedule_path5_v2.json", ["--path", "5", "--theta", "pi/3", "--steps", "1"]),
            ("schedule_lattice33_v2.json", ["--lattice", "3,3", "--theta", "7pi/24", "--steps", "2"]),
            # no tessellations in the file, so greedy_tessellate makes them
            (
                "schedule_graph_bipartite7_v2.json",
                ["--graph", str(DATA / "graph_bipartite7.json"), "--theta", "0.9", "--steps", "2"],
            ),
        ],
        ids=["readme-path5", "lattice-3x3-7pi24", "graph-bipartite7-greedy"],
    )
    def test_reproduces_golden_file(self, tmp_path, golden, args):
        assert main(["schedule", *args, "--out", str(tmp_path)]) == 0
        expected = (DATA / golden).read_bytes()
        assert (tmp_path / "schedule.json").read_bytes() == expected

    @pytest.mark.parametrize("on", ["5", "null", '{"a": 1}'])
    def test_on_not_a_list_is_domain_error(self, tmp_path, monkeypatch, capsys, on):
        text = (
            '{"version": 1, "tau_s": 1e-6, "flux_on": 1.0, "flux_off": 0.48, "steps": 1,'
            f' "intervals": [{{"idx": 0, "on": {on}}}]}}'
        )
        monkeypatch.setattr("sqwbench.cli.cmd_schedule", lambda args: parse_schedule(text))
        assert main(["schedule", "--path", "5", "--out", str(tmp_path)]) in {1, 2, 3}
        assert capsys.readouterr().err == "error: interval 0: on must be a list of pairs\n"


class TestFileWrites:
    def test_walk_heap_peak_is_under_half_the_csv(self, tmp_path):
        # each step keeps only a float64 copy of its live window (8 bytes per live node, against ~20 per row
        # of text) and its text is formatted as it is written, so no text of the whole file is held: 0.31x
        # here; keeping every step's text made this 1.2x, joining it 2.2x, and a state history 4.3x
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            assert main(["walk", "--path", "2001", "--steps", "100", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 0.5 * (tmp_path / "distribution.csv").stat().st_size

    @pytest.mark.parametrize("fault", [MemoryError, OSError("disk full")], ids=["memory", "os"])
    def test_failed_step_text_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys, fault):
        write = sqwbench.cli._guarded_write

        def texts_failing_at_the_third(texts):
            for k, text in enumerate(texts):
                if k == 2:
                    raise fault
                yield text

        def write_failing(path, texts, force):
            write(path, texts_failing_at_the_third(texts) if path.name == "distribution.csv" else texts, force)

        monkeypatch.setattr(sqwbench.cli, "_guarded_write", write_failing)
        assert main(["walk", "--path", "41", "--steps", "4", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_circuit_sweep_heap_peak_is_under_half_the_csv(self, tmp_path):
        # each sweep row is solved as it is written: 0.32x here; building every row first made this 3.6x
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            assert main(["circuit", "--sweep", "5000", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 0.5 * (tmp_path / "sweep.csv").stat().st_size

    def test_failed_sweep_row_keeps_report_and_leaves_no_sweep(self, tmp_path, monkeypatch, capsys):
        solve = sqwbench.cli.solve_mode
        calls = []

        def failing_at_the_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NumericError("mode equation root did not converge")
            return solve(*args)

        monkeypatch.setattr(sqwbench.cli, "solve_mode", failing_at_the_third)
        assert main(["circuit", "--sweep", "8", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numeric failure: mode equation root did not converge\n"
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]

    def test_write_without_force_never_replaces_a_file(self, tmp_path):
        # a file made after the command checked its targets, by another run say: an OSError, so exit 2
        path = tmp_path / "made-meanwhile.csv"
        path.write_text("kept")
        with pytest.raises(FileExistsError):
            sqwbench.cli._guarded_write(path, ["new"], force=False)
        assert path.read_text() == "kept"
        sqwbench.cli._guarded_write(path, ["new"], force=True)
        assert path.read_text() == "new"

    def test_sliced_write_matches_write_text(self, tmp_path):
        size = sqwbench.cli._WRITE_SLICE
        chars = list("step,node\n" * (size // 4))
        assert len(chars) > 2 * size
        for boundary in (size, 2 * size):
            chars[boundary - 1], chars[boundary] = "é", "π"
        long = "".join(chars)
        # slice boundaries inside a piece (the long one) and between pieces (the short ones around it)
        cases = {
            "long": [long],
            "pieces": ["a" * (size - 1), "é", "", long, "π", "x" * size],
            "empty-piece": [""],
            "empty": [],
        }
        for name, texts in cases.items():
            sqwbench.cli._guarded_write(tmp_path / "sliced" / name, texts, force=False)
            (tmp_path / name).write_text("".join(texts))
            assert (tmp_path / "sliced" / name).read_bytes() == (tmp_path / name).read_bytes()


class TestSigterm:
    """SIGTERM during a command exits 143 and leaves no partial file.  The test calls the handler that ``main``
    installed, as the signal would; no real signal is sent to the test process."""

    @pytest.fixture
    def outer(self):
        def outer(signum, frame):
            raise AssertionError("the handler in force before main ran was called")

        previous = signal.signal(signal.SIGTERM, outer)
        yield outer
        signal.signal(signal.SIGTERM, previous)

    @staticmethod
    def terminate(path):
        assert path.exists()  # the partial file is there when the signal arrives
        handler = signal.getsignal(signal.SIGTERM)
        handler(signal.SIGTERM, None)

    def test_circuit_sweep(self, tmp_path, monkeypatch, capsys, outer):
        assert main(["circuit", "--out", str(tmp_path / "whole")]) == 0
        solve = sqwbench.cli.solve_mode
        calls = []

        def terminated_at_the_third(*args):
            calls.append(1)
            if len(calls) == 3:
                self.terminate(tmp_path / "sweep.csv")
            return solve(*args)

        monkeypatch.setattr(sqwbench.cli, "solve_mode", terminated_at_the_third)
        assert main(["circuit", "--sweep", "8", "--out", str(tmp_path)]) == 143
        assert capsys.readouterr().err == "error: terminated\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["report.json", "whole"]
        assert (tmp_path / "report.json").read_bytes() == (tmp_path / "whole" / "report.json").read_bytes()
        assert signal.getsignal(signal.SIGTERM) is outer

    def test_walk_csv(self, tmp_path, monkeypatch, outer):
        rows, terminate = sqwbench.cli.distribution_rows, self.terminate

        class TerminatedAfterTheFirstText:
            def __init__(self, n):
                self.rows = rows(n)
                self.keep = self.rows.keep

            def __iter__(self):
                for text in self.rows:
                    yield text
                    terminate(tmp_path / "distribution.csv")

        monkeypatch.setattr(sqwbench.cli, "distribution_rows", TerminatedAfterTheFirstText)
        assert main(["walk", "--path", "41", "--steps", "4", "--out", str(tmp_path)]) == 143
        assert list(tmp_path.iterdir()) == []
        assert signal.getsignal(signal.SIGTERM) is outer

    @pytest.mark.parametrize(
        "argv,code",
        [(["walk", "--path", "5"], 0), (["walk", "--path", "0"], 2), (["walk", "--bogus"], 1), (["--help"], 0)],
        ids=["success", "domain-error", "usage-error", "help"],
    )
    def test_previous_handler_restored_on_every_exit(self, tmp_path, capsys, outer, argv, code):
        assert main([*argv, "--out", str(tmp_path)] if argv[0] == "walk" else argv) == code
        assert signal.getsignal(signal.SIGTERM) is outer

    def test_outside_the_main_thread_no_handler_is_set(self, tmp_path, outer):
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(["circuit", "--out", str(tmp_path)])))
        worker.start()
        worker.join()
        assert codes == [0] and (tmp_path / "report.json").exists()
        assert signal.getsignal(signal.SIGTERM) is outer


def first_difference(name: str, data: bytes) -> str:
    """``name``, its first line and byte that differ from the golden copy, and 80 bytes of each line around that."""
    pairs = zip_longest((GOLDEN / name).read_bytes().splitlines(True), data.splitlines(True), fillvalue=b"")
    number, (want, got) = next((k, pair) for k, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    column = next((k for k, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
    shown = slice(max(column - 40, 0), max(column - 40, 0) + 80)
    return f"{name}: line {number}, byte {column + 1}: expected {want[shown]!r}, got {got[shown]!r}"


class TestReadmeExamples:
    # the commands live in regen_golden.py, which rewrites tests/data/golden and its SHA256SUMS from their outputs;
    # the golden copies are kept so that a mismatch can name its first differing line
    def test_outputs_are_pinned(self, tmp_path):
        digests = golden_digests()
        assert run_examples(tmp_path) == []
        runs = tmp_path / "runs"
        assert sorted(p.relative_to(runs).as_posix() for p in runs.rglob("*") if p.is_file()) == sorted(digests)
        for name, digest in digests.items():
            assert hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest() == digest, f"golden copy {name} changed"
            data = (runs / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, first_difference(name, data)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda text: text.replace(b"0.48", b"0.49", 1),
                """line 5, byte 18: expected b'  "flux_off": 0.4801264657214081,\\n', """
                """got b'  "flux_off": 0.4901264657214081,\\n'""",
            ),
            (lambda text: text + b"\n", "line 13, byte 1: expected b'', got b'\\n'"),
            (lambda text: text[:-1], "line 12, byte 2: expected b'}\\n', got b'}'"),
        ],
        ids=["changed", "line-added", "newline-dropped"],
    )
    def test_mismatch_names_the_first_differing_line(self, edit, message):
        name = "sched/schedule.json"
        assert first_difference(name, edit((GOLDEN / name).read_bytes())) == f"{name}: {message}"


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_python_dash_m_help_exits_zero(self):
        src = str(Path(sqwbench.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "sqwbench", "--help"], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert "walk" in result.stdout

    def test_no_command_is_usage_error(self):
        assert main([]) == 1
