import json
import math

import numpy as np
import pytest

from sqwbench.cli import main, parse_theta
from sqwbench.graph import build_graph, graph_to_json
from sqwbench.schedule import parse_schedule


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
        params = {
            "cap_per_length": 1e-10,
            "ind_per_length": 2.5e-7,
            "half_length": 1e-2,
            "junction_capacitance": 1e-15,
            "josephson_energy": 1e-28,
        }
        params_file = tmp_path / "weak.json"
        params_file.write_text(json.dumps(params))
        code = main(["circuit", "--params", str(params_file), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "required E_J" in err

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

    def test_unknown_param_key_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"resistance": 50}')
        assert main(["circuit", "--params", str(bad), "--out", str(tmp_path)]) == 2


class TestScheduleCommand:
    def test_path5_schedule(self, tmp_path, capsys):
        assert main(["schedule", "--path", "5", "--steps", "1", "--out", str(tmp_path)]) == 0
        schedule = parse_schedule((tmp_path / "schedule.json").read_text())
        assert len(schedule.intervals) == 2
        assert schedule.intervals[0].on_pairs == ((0, 1), (2, 3))
        assert schedule.intervals[1].on_pairs == ((1, 2), (3, 4))
        out = capsys.readouterr().out
        assert "validation: ok" in out
        assert "feasibility" in out and "0.1 us" in out

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


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 1
