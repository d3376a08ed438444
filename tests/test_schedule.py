import dataclasses
import functools
import json
import math
import operator
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqwbench
from sqwbench._format import fmt17
from sqwbench.circuit import DEFAULT_PARAMS, CircuitParams
from sqwbench.errors import UnreachableFluxError, ValidationError, _int_pairs
from sqwbench.graph import (
    build_graph,
    generate_lattice_tessellations,
    generate_path_tessellations,
    graph_to_json,
    validate_tessellation_set,
)
from sqwbench.oracle import brute_force_evolve
from sqwbench.schedule import (
    PulseInterval,
    PulseSchedule,
    SCHEDULE_SCHEMA_VERSION,
    compile_schedule,
    emit_schedule,
    feasibility_notes,
    parse_schedule,
    simulate_compiled,
    validate_schedule,
)
from sqwbench.walk import CONVENTION_ABSTRACT, WalkConfig, evolve, initial_basis_state

DATA = Path(__file__).parent / "data"
RANGE = f"[{np.iinfo(np.intp).min}, {np.iinfo(np.intp).max}]"  # the node range of a pair array


def compile_quietly(*args, **kwargs):
    with pytest.warns(RuntimeWarning):
        return compile_schedule(*args, **kwargs)


def reference_emit(s):
    """Version 1 schedule.json, built as a payload dict and written by json.dumps, header floats at 17 digits."""
    floats = {"tau_s": s.tau_seconds, "flux_on": s.flux_on_ratio, "flux_off": s.flux_off_ratio}
    payload = {
        "version": 1,
        **{key: f"<{key}>" for key in floats},
        "steps": int(s.repetitions),
        "intervals": [
            {"idx": int(iv.index), "on": [[int(i), int(j)] for i, j in iv.on_pairs]}
            for iv in s.intervals
        ],
    }
    text = json.dumps(payload, indent=2)
    for key, x in floats.items():
        text = text.replace(f'"<{key}>"', fmt17(x))
    return text + "\n"


def reference_emit_v2(s):
    """Version 2 schedule.json: the header as json.dumps(indent=2) lays it out, one json.dumps line per pattern."""
    table = []  # distinct on_pairs values, in first-use order
    for iv in s.intervals:
        if [list(p) for p in iv.on_pairs] not in table:
            table.append([list(p) for p in iv.on_pairs])
    entries = [[int(iv.index), table.index([list(p) for p in iv.on_pairs])] for iv in s.intervals]
    floats = {"tau_s": s.tau_seconds, "flux_on": s.flux_on_ratio, "flux_off": s.flux_off_ratio}
    payload = {
        "version": 2,
        **{key: f"<{key}>" for key in floats},
        "steps": int(s.repetitions),
        "patterns": "<patterns>",
        "intervals": "<intervals>",
    }
    text = json.dumps(payload, indent=2)
    for key, x in floats.items():
        text = text.replace(f'"<{key}>"', fmt17(x))
    lines = [json.dumps([[int(i), int(j)] for i, j in pattern]) for pattern in table]
    patterns = "[\n" + ",\n".join("    " + line for line in lines) + "\n  ]" if lines else "[]"
    text = text.replace('"<patterns>"', patterns).replace('"<intervals>"', json.dumps(entries))
    return text + "\n"


def reference_validate(s, g):
    """validate_schedule checked pair by pair against the graph's edge set."""
    violations = []
    edge_set = set(g.edges)
    for interval in s.intervals:
        driven = set()
        for pair in map(tuple, interval.on_pairs.tolist()):
            i, j = pair
            if (min(i, j), max(i, j)) not in edge_set:
                violations.append(f"interval {interval.index}: pair {pair} is not an edge of the graph")
            for v in (i, j):
                if v in driven:
                    violations.append(f"interval {interval.index}: node {v} is driven by more than one pair")
                driven.add(v)
    return violations


def schedule_json_of(*ons: str) -> str:
    """A one-step schedule file whose interval k drives ``ons[k]``."""
    intervals = ", ".join(f'{{"idx": {k}, "on": {on}}}' for k, on in enumerate(ons))
    return f'{{"version": 1, "tau_s": 1e-6, "flux_on": 1.0, "flux_off": 0.48, "steps": 1, "intervals": [{intervals}]}}'


def schedule_json(on: str) -> str:
    return schedule_json_of("[[4, 5]]", on)


class TestCompile:
    def test_path5_single_step(self):
        g, ts = generate_path_tessellations(5)
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 1)
        s = run.schedule
        assert len(s.intervals) == 2
        assert s.intervals[0].on_pairs.tolist() == [[0, 1], [2, 3]]
        assert s.intervals[1].on_pairs.tolist() == [[1, 2], [3, 4]]
        assert s.intervals[0].index == 0 and s.intervals[1].index == 1
        assert s.repetitions == 1
        assert s.tau_seconds > 0
        assert s.flux_on_ratio == 1.0
        assert s.flux_off_ratio == pytest.approx(0.4801, abs=5e-4)

    def test_zero_steps_is_valid_and_empty(self):
        g, ts = generate_path_tessellations(5)
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 0)
        assert run.schedule.intervals == ()
        assert validate_schedule(run.schedule, g) == []

    def test_lattice_two_steps_covers_each_edge_twice(self):
        g, ts = generate_lattice_tessellations([3, 3])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 2)
        assert len(run.schedule.intervals) == 8
        counts: dict = {}
        for interval in run.schedule.intervals:
            for pair in map(tuple, interval.on_pairs.tolist()):
                counts[pair] = counts.get(pair, 0) + 1
        assert set(counts) == set(g.edges)
        assert all(c == 2 for c in counts.values())

    def test_one_step_union_covers_edge_set(self):
        g, ts = generate_lattice_tessellations([4, 3])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 1)
        on = {tuple(p) for iv in run.schedule.intervals for p in iv.on_pairs.tolist()}
        assert on == set(g.edges)

    def test_invalid_tessellation_rejected(self):
        from sqwbench.graph import Tessellation, TessellationSet

        g = build_graph(3, [(0, 1), (1, 2)])
        bad = TessellationSet((Tessellation(((0, 2), (1,))),))
        with pytest.raises(ValidationError):
            compile_schedule(g, bad, math.pi / 3, DEFAULT_PARAMS, 1)

    def test_unreachable_off_flux_rejected(self):
        weak = CircuitParams(
            cap_per_length=1e-10,
            ind_per_length=2.5e-7,
            half_length=1e-2,
            junction_capacitance=1e-15,
            josephson_energy=1e-28,
        )
        g, ts = generate_path_tessellations(5)
        with pytest.raises(UnreachableFluxError):
            compile_schedule(g, ts, math.pi / 3, weak, 1)

    @pytest.mark.parametrize("steps", [-1, 1.0, None, True])
    def test_bad_steps_rejected(self, steps):
        g, ts = generate_path_tessellations(5)
        with pytest.raises(ValidationError, match="steps must be a non-negative integer"):
            compile_schedule(g, ts, math.pi / 3, DEFAULT_PARAMS, steps)

    @pytest.mark.parametrize(
        "theta,message",
        [
            (True, "theta must be a number"),
            ("1.0", "theta must be a number"),
            (None, "theta must be a number"),
            (float("nan"), "theta must be finite"),
        ],
    )
    def test_bad_theta_rejected(self, theta, message):
        g, ts = generate_path_tessellations(5)
        with pytest.raises(ValidationError, match=f"^{message}, got "):
            compile_schedule(g, ts, theta, DEFAULT_PARAMS, 1)

    def test_zero_angle_rejected(self):
        g, ts = generate_path_tessellations(5)
        with pytest.raises(ValidationError):
            compile_schedule(g, ts, 0.0, DEFAULT_PARAMS, 1)

    def test_angle_reduced_modulo_period(self):
        g, ts = generate_path_tessellations(5)
        a = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 1)
        b = compile_quietly(g, ts, math.pi / 3 + 2 * math.pi, DEFAULT_PARAMS, 1)
        assert b.schedule.tau_seconds == pytest.approx(a.schedule.tau_seconds, rel=1e-12)


class TestSoundness:
    @pytest.mark.parametrize("maker", [lambda: generate_path_tessellations(5),
                                       lambda: generate_lattice_tessellations([3, 3])])
    def test_simulating_compiled_equals_direct_evolution(self, maker):
        g, ts = maker()
        steps = 3
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, steps)
        psi = initial_basis_state(g.node_count, g.node_count // 2)
        compiled_out = simulate_compiled(run, psi, g, convention=CONVENTION_ABSTRACT)
        direct = evolve(psi, ts, WalkConfig(math.pi / 3, steps, CONVENTION_ABSTRACT), graph=g)
        assert np.array_equal(compiled_out, direct)
        oracle = brute_force_evolve(psi, ts, math.pi / 3, steps)
        assert np.max(np.abs(compiled_out - oracle)) < 1e-9

    def test_pairs_in_any_order_simulate_the_same(self):
        # a hand-built or parsed schedule may list each interval's pairs high-low and in any order
        g, ts = generate_lattice_tessellations([4, 5])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 2)
        intervals = tuple(
            PulseInterval(iv.index, tuple((j, i) for i, j in reversed(iv.on_pairs))) for iv in run.schedule.intervals
        )
        reordered = dataclasses.replace(run.schedule, intervals=intervals)
        assert [iv.on_pairs[0].tolist() for iv in intervals] == [
            iv.on_pairs[-1, ::-1].tolist() for iv in run.schedule.intervals
        ]
        psi = initial_basis_state(g.node_count, 7)
        expected = simulate_compiled(run, psi, g).tobytes()
        for schedule in (reordered, parse_schedule(emit_schedule(reordered))):
            assert simulate_compiled(dataclasses.replace(run, schedule=schedule), psi, g).tobytes() == expected

    @pytest.mark.parametrize("maker", [lambda: generate_path_tessellations(5),
                                       lambda: generate_lattice_tessellations([3, 3])])
    @pytest.mark.parametrize("mutation", ["all-off", "swapped"])
    def test_corrupted_schedule_changes_the_simulation(self, maker, mutation):
        g, ts = maker()
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 2)
        intervals = run.schedule.intervals
        if mutation == "all-off":
            intervals = tuple(PulseInterval(iv.index, ()) for iv in intervals)
        else:
            intervals = (intervals[1], intervals[0]) + intervals[2:]
        corrupted = dataclasses.replace(run, schedule=dataclasses.replace(run.schedule, intervals=intervals))
        assert validate_schedule(corrupted.schedule, g) == []
        psi = initial_basis_state(g.node_count, g.node_count // 2)
        compiled_out = simulate_compiled(corrupted, psi, g, convention=CONVENTION_ABSTRACT)
        direct = evolve(psi, ts, WalkConfig(math.pi / 3, 2, CONVENTION_ABSTRACT), graph=g)
        assert not np.array_equal(compiled_out, direct)

    def test_each_distinct_pattern_decodes_once(self, monkeypatch):
        g, ts = generate_lattice_tessellations([4, 4])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 5)
        psi = initial_basis_state(g.node_count, 5)
        expected = simulate_compiled(run, psi, g).tobytes()
        decoded, received = [], []
        from_pairs = sqwbench.graph.Tessellation._from_pairs
        monkeypatch.setattr(
            sqwbench.graph.Tessellation, "_from_pairs", staticmethod(lambda *a: decoded.append(a) or from_pairs(*a))
        )
        monkeypatch.setattr(
            sqwbench.schedule, "evolve", lambda state, t, *a, **k: received.append(t) or evolve(state, t, *a, **k)
        )
        for schedule in (run.schedule, parse_schedule(emit_schedule(run.schedule))):
            decoded.clear()
            out = simulate_compiled(dataclasses.replace(run, schedule=schedule), psi, g)
            assert out.tobytes() == expected
            assert len(decoded) == len(ts) == 4
            assert len(received[-1]) == 20 and len({id(t) for t in received[-1]}) == 4
            assert all(t is received[-1][k % 4] for k, t in enumerate(received[-1]))

    def test_invalid_schedule_is_not_simulated(self):
        g, ts = generate_path_tessellations(5)
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 1)
        bad = dataclasses.replace(run, schedule=dataclasses.replace(run.schedule, intervals=(PulseInterval(0, ((0, 7),)),)))
        with pytest.raises(ValidationError, match="not an edge"):
            simulate_compiled(bad, initial_basis_state(5, 2), g)

    def test_compiled_schedule_always_validates(self):
        g, ts = generate_lattice_tessellations([2, 3])
        run = compile_quietly(g, ts, 1.0, DEFAULT_PARAMS, 2)
        assert validate_schedule(run.schedule, g) == []


class TestValidateSchedule:
    def test_double_driven_node(self):
        g, _ = generate_path_tessellations(3)
        s = PulseSchedule(1e-6, 1.0, 0.48, 1, (PulseInterval(0, ((0, 1), (1, 2))),))
        violations = validate_schedule(s, g)
        assert any("node 1" in v and "more than one pair" in v for v in violations)

    def test_non_edge_pair(self):
        g, _ = generate_path_tessellations(3)
        s = PulseSchedule(1e-6, 1.0, 0.48, 1, (PulseInterval(0, ((0, 2),)),))
        violations = validate_schedule(s, g)
        assert any("not an edge" in v for v in violations)

    # the header is refused when the schedule is built, so validate_schedule never sees a bad one
    def test_non_positive_tau(self):
        with pytest.raises(ValidationError, match=r"^tau_s must be a positive number, got -1\.0$"):
            PulseSchedule(-1.0, 1.0, 0.48, 0, ())

    def test_non_finite_header_floats(self):
        faults = []
        for header in ((math.inf, 1.0, math.nan), (1e-6, 1.0, math.nan), (1e-6, -math.inf, 0.48)):
            with pytest.raises(ValidationError) as info:
                PulseSchedule(*header, 0, ())
            faults.append(str(info.value))
        # the first fault of each header, in field order
        assert faults == [
            "tau_s must be finite, got inf",
            "flux_off must be finite, got nan",
            "flux_on must be finite, got -inf",
        ]


class TestValidateMatchesPairByPair:
    """The array check returns the pair-by-pair reference's messages, in its order."""

    @pytest.mark.parametrize(
        "on",
        [
            ((0, 2),),
            # 0 * 9 + 23 is the key of edge (2, 5)
            ((0, 23), (9, 1)),
            ((3, 3),),
            ((0, 1), (1, 2), (4, 3), (3, 6)),
            ((0, 1), (5, 5), (5, 2), (1, 4)),
            ((0, 2), (2, 0), (1, 1), (4, 5)),
            # -2049638230412172401 * 9 wraps to 7 in int64, and 7 + 4 is the key of edge (1, 2)
            ((-1, 0), (-1, 10), (-9, 9), (-2049638230412172401, 4)),
            ((np.int64(0), np.int64(1)), (np.int64(1), np.int64(2))),
            (),
        ],
        ids=["non-edge", "out-of-range", "self-pair", "repeat-across", "repeat-within", "mixed-order",
             "negative", "numpy-ints", "empty"],
    )
    def test_same_messages(self, on):
        g, ts = generate_lattice_tessellations([3, 3])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 1)
        intervals = run.schedule.intervals
        s = dataclasses.replace(run.schedule, intervals=intervals[:2] + (PulseInterval(2, on),) + intervals[3:])
        expected = reference_validate(s, g)
        assert validate_schedule(s, g) == expected
        if on:
            assert expected

    def test_same_messages_on_the_empty_graph(self):
        g = build_graph(0, [])
        s = PulseSchedule(1e-6, 1.0, 0.48, 1, (PulseInterval(0, ((0, 1), (1, 0))),))
        assert validate_schedule(s, g) == reference_validate(s, g)


class TestEmitterBytes:
    """emit_schedule writes exactly what json.dumps lays out for the same version 2 payload."""

    CASES = [(generate_path_tessellations, n) for n in range(1, 7)] + [
        (generate_lattice_tessellations, dims) for dims in [(1,), (2, 2), (4, 3), (3, 3, 2)]
    ]

    @pytest.mark.parametrize("steps", [0, 1, 3])
    @pytest.mark.parametrize("maker,arg", CASES, ids=[f"{m.__name__.split('_')[1]}-{a}" for m, a in CASES])
    def test_compiled(self, maker, arg, steps):
        g, ts = maker(arg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = compile_schedule(g, ts, math.pi / 3, DEFAULT_PARAMS, steps)
        text = emit_schedule(run.schedule)
        assert text == reference_emit_v2(run.schedule)
        # version 1 of the same schedule still loads, to the same schedule
        assert parse_schedule(reference_emit(run.schedule)) == run.schedule == parse_schedule(text)

    def test_all_off(self):
        s = PulseSchedule(1e-9, 1.0, 0.48, 2, tuple(PulseInterval(k, ()) for k in range(4)))
        assert emit_schedule(s) == reference_emit_v2(s)
        assert '"patterns": [\n    []\n  ],' in emit_schedule(s)

    def test_equal_tuples_emit_equal_bytes_shared_or_not(self):
        g, ts = generate_lattice_tessellations([3, 4])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 3)
        # a fresh array per interval, equal to the compiled one it copies
        unshared = tuple(PulseInterval(iv.index, iv.on_pairs.copy()) for iv in run.schedule.intervals)
        assert unshared[0].on_pairs is not unshared[len(ts)].on_pairs
        copy = dataclasses.replace(run.schedule, intervals=unshared)
        assert copy == run.schedule
        assert emit_schedule(copy) == emit_schedule(run.schedule) == reference_emit_v2(copy)
        assert len(json.loads(emit_schedule(copy))["patterns"]) == len(ts)

    @pytest.mark.parametrize("flux_on", [1.0, 5e-324, 1e-300])
    def test_hand_built(self, flux_on):
        s = PulseSchedule(
            9.8526404082298657e-10,
            flux_on,
            0.4801264657214081,
            1,
            (PulseInterval(0, ((0, 1), (2, 3))), PulseInterval(1, ()), PulseInterval(7, ((1, 2),))),
        )
        assert emit_schedule(s) == reference_emit_v2(s)

    def test_any_index_order_and_numpy_ints(self):
        # hand-built: indices out of order and repeated, a pattern used again later, numpy integers
        pairs = ((np.int64(0), np.int64(1)), (2, 3))
        ons = [(np.int64(5), pairs), (2, ()), (2, ((1, 2),)), (0, pairs)]
        s = PulseSchedule(1e-9, 1.0, 0.48, 2, tuple(PulseInterval(k, on) for k, on in ons))
        text = emit_schedule(s)
        assert text == reference_emit_v2(s)
        assert '"intervals": [[5, 0], [2, 1], [2, 2], [0, 0]]\n}\n' in text
        assert parse_schedule(text) == s

    def test_pattern_lines_hold_any_int64_node(self):
        # the pattern template writes each node as %d: negative, near 2**62 and at both ends of the int64 range
        big = 2**62
        ons = [((-1, big), (big - 1, -(2**63))), (), ((2**63 - 1, 0),), ((-5, -3), (0, 7), (9, 8)), ((1, 2),)]
        s = PulseSchedule(1e-9, 1.0, 0.48, 1, tuple(PulseInterval(k, on) for k, on in enumerate(ons)))
        text = emit_schedule(s)
        assert text == reference_emit_v2(s)
        assert f"\n    [[-1, {big}], [{big - 1}, {-(2**63)}]],\n    [],\n    [[{2**63 - 1}, 0]],\n" in text
        assert parse_schedule(text) == s


class TestFeasibility:
    def test_stock_constants_are_below_switching_budget(self):
        g, ts = generate_path_tessellations(5)
        with pytest.warns(RuntimeWarning, match="switching budget"):
            run = compile_schedule(g, ts, math.pi / 3, DEFAULT_PARAMS, 1)
        assert feasibility_notes(run.schedule)

    def test_slow_schedule_has_no_notes(self):
        s = PulseSchedule(5e-7, 1.0, 0.48, 0, ())
        assert feasibility_notes(s) == []


HEADER = {"version": 1, "tau_s": 1e-6, "flux_on": 1.0, "flux_off": 0.48, "steps": 1, "intervals": []}


class TestWireFormat:
    def test_round_trip_identity(self):
        g, ts = generate_lattice_tessellations([3, 3])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 2)
        text = emit_schedule(run.schedule)
        assert parse_schedule(text) == run.schedule
        # a second emit of the parsed schedule is byte-identical
        assert emit_schedule(parse_schedule(text)) == text

    def test_truncated_file_names_byte_offset(self):
        g, ts = generate_path_tessellations(5)
        text = emit_schedule(compile_quietly(g, ts, 1.0, DEFAULT_PARAMS, 1).schedule)
        with pytest.raises(ValidationError, match="byte offset"):
            parse_schedule(text[: len(text) // 2])

    def test_negative_tau_rejected_on_load(self):
        text = '{"version": 1, "tau_s": -1.0, "flux_on": 1.0, "flux_off": 0.48, "steps": 0, "intervals": []}'
        with pytest.raises(ValidationError, match="tau_s"):
            parse_schedule(text)

    def test_unknown_version_rejected(self):
        text = '{"version": 3, "tau_s": 1e-6, "flux_on": 1.0, "flux_off": 0.48, "steps": 0, "intervals": []}'
        with pytest.raises(ValidationError, match="version"):
            parse_schedule(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError, match="missing key"):
            parse_schedule('{"version": 1}')

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", "1e-6", "null"])
    def test_non_object_rejected(self, text):
        with pytest.raises(ValidationError, match="^schedule JSON must be an object$"):
            parse_schedule(text)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"flux_on": "1.0"}, "flux_on must be a number, got '1.0'"),
            ({"flux_off": True}, "flux_off must be a number, got True"),
            ({"steps": -1}, "steps must be a non-negative integer, got -1"),
            ({"steps": True}, "steps must be a non-negative integer, got True"),
            ({"steps": 1.5}, "steps must be a non-negative integer, got 1.5"),
            ({"intervals": {"idx": 0, "on": []}}, "intervals must be a list"),
            ({"intervals": [{"on": []}]}, "interval entry {'on': []} needs 'idx' and 'on'"),
            ({"intervals": [{"idx": 0}]}, "interval entry {'idx': 0} needs 'idx' and 'on'"),
            ({"intervals": [[0, []]]}, "interval entry [0, []] needs 'idx' and 'on'"),
            ({"intervals": [{"idx": "0", "on": []}]}, "interval idx must be an integer, got '0'"),
            ({"intervals": [{"idx": True, "on": []}]}, "interval idx must be an integer, got True"),
            ({"intervals": [{"idx": 1.0, "on": []}]}, "interval idx must be an integer, got 1.0"),
            # the version is an integer, checked before the version 2 "patterns" key
            ({"version": True}, "unsupported schedule schema version True"),
            ({"version": 1.0}, "unsupported schedule schema version 1.0"),
            ({"version": 2.0}, "unsupported schedule schema version 2.0"),
        ],
    )
    def test_bad_field_named(self, fields, message):
        with pytest.raises(ValidationError) as info:
            parse_schedule(json.dumps({**HEADER, **fields}))
        assert str(info.value) == message

    def test_double_driven_node_rejected_on_load(self):
        text = (
            '{"version": 1, "tau_s": 1e-6, "flux_on": 1.0, "flux_off": 0.48, "steps": 1,'
            ' "intervals": [{"idx": 0, "on": [[0, 1], [1, 2]]}]}'
        )
        with pytest.raises(ValidationError, match="more than one pair"):
            parse_schedule(text)

    @pytest.mark.parametrize(
        "on,message",
        [
            ("5", "interval 1: on must be a list of pairs"),
            ("null", "interval 1: on must be a list of pairs"),
            ('{"a": [0, 1]}', "interval 1: on must be a list of pairs"),
            ('[[0, 1], "ab"]', "interval 1: pair 'ab' must be a list of two node indices"),
            ("[[0, 1], [2, 3, 4]]", "interval 1: pair [2, 3, 4] must be a list of two node indices"),
            ("[[0, 1], [2]]", "interval 1: pair [2] must be a list of two node indices"),
            ("[[0, true]]", "interval 1: pair [0, True] must be a list of two node indices"),
            ("[[0, 1.0]]", "interval 1: pair [0, 1.0] must be a list of two node indices"),
            ("[[0, 1], [3, 3]]", "interval 1: pair [3, 3] repeats a node"),
            ("[[0, 1], [1, 2]]", "interval 1: node 1 is driven by more than one pair"),
            ("[[0, 1], [2, 3], [4, 5], [6, 2]]", "interval 1: node 2 is driven by more than one pair"),
            ("[[0, 1], [2, 0], [3, 3]]", "interval 1: node 0 is driven by more than one pair"),
            ("[[0, 1], [2, 1], [2, 2]]", "interval 1: node 1 is driven by more than one pair"),
            ("[[5, 6], [7, 8], [6, [1]]]", "interval 1: pair [6, [1]] must be a list of two node indices"),
            ("[[-1, 0], [2, -1]]", "interval 1: node -1 is driven by more than one pair"),
            (f"[[0, {2**70}], [{2**70}, 1]]", f"interval 1: node {2**70} is driven by more than one pair"),
            (f"[[0, 1], [{2**70}, 2]]", f"interval 1: pair [{2**70}, 2] has a node outside {RANGE}"),
            (f"[[0, 1], [2, {-(2**63) - 1}]]", f"interval 1: pair [2, {-(2**63) - 1}] has a node outside {RANGE}"),
            (f"[[0, {2**70}], [3, 3]]", "interval 1: pair [3, 3] repeats a node"),
        ],
    )
    def test_first_bad_pair_named(self, on, message):
        with pytest.raises(ValidationError) as info:
            parse_schedule(schedule_json(on))
        assert str(info.value) == message

    def test_pairs_load_as_read_only_int_arrays(self):
        s = parse_schedule(schedule_json(f"[[2, 0], [-1, {2**62}], [3, 1]]"))
        assert s.intervals[1].on_pairs.tolist() == [[2, 0], [-1, 2**62], [3, 1]]
        assert all(iv.on_pairs.dtype == np.intp and not iv.on_pairs.flags.writeable for iv in s.intervals)
        assert parse_schedule(schedule_json("[]")).intervals[1].on_pairs.shape == (0, 2)

    def test_pairs_out_of_order_keep_their_order(self):
        # a version 1 file whose pairs come high-low and in reverse
        g, ts = generate_lattice_tessellations([4, 5])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 2)
        flipped = [iv.on_pairs[::-1, ::-1].tolist() for iv in run.schedule.intervals]
        intervals = [{"idx": k, "on": on} for k, on in enumerate(flipped)]
        s = parse_schedule(json.dumps({**HEADER, "steps": 2, "intervals": intervals}))
        assert [iv.on_pairs.tolist() for iv in s.intervals] == flipped
        text = emit_schedule(s)
        assert json.loads(text)["patterns"] == flipped[: len(ts)] and text == reference_emit_v2(s)
        assert validate_schedule(s, g) == reference_validate(s, g) == []
        # every other edge gone: each missing one is named once per step, as the file holds it, in the file's order
        sparse = build_graph(g.node_count, g.edge_array[::2].tolist())
        expected = reference_validate(s, sparse)
        assert validate_schedule(s, sparse) == expected and len(expected) == 2 * len(g.edge_array[1::2])
        psi = initial_basis_state(g.node_count, 7)
        canonical = simulate_compiled(run, psi, g).tobytes()
        assert simulate_compiled(dataclasses.replace(run, schedule=s), psi, g).tobytes() == canonical

    def test_malformed_pair_rejected_on_load(self):
        text = (
            '{"version": 1, "tau_s": 1e-6, "flux_on": 1.0, "flux_off": 0.48, "steps": 1,'
            ' "intervals": [{"idx": 0, "on": [[0, 1, 2]]}]}'
        )
        with pytest.raises(ValidationError):
            parse_schedule(text)


HEADER_V2 = {**HEADER, "version": 2, "patterns": [[[0, 1]], [[1, 2]]], "intervals": [[0, 0], [1, 1]]}


class TestWireFormatV2:
    @pytest.mark.parametrize("name", ["path5", "lattice33", "graph_bipartite7"])
    def test_version_1_fixture_loads_as_its_version_2_twin(self, name):
        v1 = (DATA / f"schedule_{name}.json").read_text()
        v2 = (DATA / f"schedule_{name}_v2.json").read_text()
        assert json.loads(v1)["version"] == 1 and json.loads(v2)["version"] == 2
        assert parse_schedule(v1) == parse_schedule(v2)
        assert emit_schedule(parse_schedule(v1)) == v2 == emit_schedule(parse_schedule(v2))
        assert reference_emit(parse_schedule(v1)) == v1

    def test_each_pattern_written_once(self):
        g, ts = generate_lattice_tessellations([100, 100])
        run = compile_quietly(g, ts, 7 * math.pi / 24, DEFAULT_PARAMS, 5)
        text = emit_schedule(run.schedule)
        assert json.loads(text)["version"] == SCHEDULE_SCHEMA_VERSION == 2
        assert len(text) < 0.06 * len(reference_emit(run.schedule))
        assert text.count("\n") == 10 + 4
        assert parse_schedule(text) == run.schedule

    def test_equal_table_entries_share_one_tuple(self):
        s = parse_schedule(json.dumps({**HEADER_V2, "patterns": [[[0, 1]], [[0, 1]]], "intervals": [[0, 1], [1, 0]]}))
        assert s.intervals[0].on_pairs is s.intervals[1].on_pairs
        assert s.intervals[0].on_pairs.tolist() == [[0, 1]]

    def test_repeated_table_pattern_shares_one_array_and_a_reversed_pair_does_not(self):
        patterns = [[[0, 1], [2, 3]], [[1, 2]], [[0, 1], [2, 3]], [[0, 1], [3, 2]]]
        s = parse_schedule(json.dumps({**HEADER_V2, "patterns": patterns, "intervals": [[k, k] for k in range(4)]}))
        first, other, repeat, reversed_pair = (iv.on_pairs for iv in s.intervals)
        assert repeat is first and first.tolist() == patterns[0]
        assert reversed_pair is not first and other is not first and reversed_pair.tolist() == patterns[3]
        assert all(not on.flags.writeable for on in (first, other, reversed_pair))

    def test_missing_patterns_key_named(self):
        fields = {key: value for key, value in HEADER_V2.items() if key != "patterns"}
        with pytest.raises(ValidationError) as info:
            parse_schedule(json.dumps(fields))
        assert str(info.value) == 'schedule JSON is missing key "patterns"'
        # version 1 has no table, and ignores one
        assert parse_schedule(json.dumps({**HEADER_V2, "version": 1, "intervals": []})).intervals == ()

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"patterns": {"0": [[0, 1]]}}, "patterns must be a list"),
            ({"patterns": [[[0, 1]], 5]}, "pattern 1: must be a list of pairs"),
            ({"patterns": [None]}, "pattern 0: must be a list of pairs"),
            ({"patterns": [[[0, 1]], [[2, 3, 4]]]}, "pattern 1: pair [2, 3, 4] must be a list of two node indices"),
            ({"patterns": [[[0, True]]]}, "pattern 0: pair [0, True] must be a list of two node indices"),
            ({"patterns": [[[0, 1]], [[1.0, 2]]]}, "pattern 1: pair [1.0, 2] must be a list of two node indices"),
            ({"patterns": [[[0, 1]], [[3, 3]]]}, "pattern 1: pair [3, 3] repeats a node"),
            ({"patterns": [[[0, 1], [2, 0]]]}, "pattern 0: node 0 is driven by more than one pair"),
            ({"intervals": {"0": 0}}, "intervals must be a list"),
            ({"intervals": [[0, 0], [1, 2]]}, "interval 1: pattern 2 outside [0, 2)"),
            ({"intervals": [[0, -1]]}, "interval 0: pattern -1 outside [0, 2)"),
            ({"patterns": [], "intervals": [[4, 0]]}, "interval 4: pattern 0 outside [0, 0)"),
            ({"intervals": [[0, 0], [1, True]]}, "interval entry [1, True] must be [idx, pattern], two integers"),
            ({"intervals": [[0.0, 0]]}, "interval entry [0.0, 0] must be [idx, pattern], two integers"),
            ({"intervals": [[0, 0, 1]]}, "interval entry [0, 0, 1] must be [idx, pattern], two integers"),
            (
                {"intervals": [{"idx": 0, "on": []}]},
                "interval entry {'idx': 0, 'on': []} must be [idx, pattern], two integers",
            ),
            ({"tau_s": 10**400}, f"tau_s must be finite, got {10**400}"),
            ({"flux_on": -(10**400)}, f"flux_on must be finite, got {-(10**400)}"),
            ({"flux_off": math.nan}, "flux_off must be finite, got nan"),
            ({"tau_s": math.inf}, "tau_s must be finite, got inf"),
            ({"patterns": [[[0, 1]], [[2, 2**70]]]}, f"pattern 1: pair [2, {2**70}] has a node outside {RANGE}"),
            ({"patterns": [[[-(2**63) - 1, 0]]]}, f"pattern 0: pair [{-(2**63) - 1}, 0] has a node outside {RANGE}"),
            ({"patterns": [[[0, 2**70], [2**70, 1]]]}, f"pattern 0: node {2**70} is driven by more than one pair"),
        ],
    )
    def test_bad_field_named(self, fields, message):
        with pytest.raises(ValidationError) as info:
            parse_schedule(json.dumps({**HEADER_V2, **fields}))
        assert str(info.value) == message

    def test_version_1_floats_must_be_finite(self):
        with pytest.raises(ValidationError) as info:
            parse_schedule(json.dumps({**HEADER, "flux_on": -math.inf}))
        assert str(info.value) == "flux_on must be finite, got -inf"


class TestHeaderFloats:
    """A schedule holds only a header that parse_schedule reads back, refusing any other with the parse message,
    and emit_schedule writes it so that it reads back unchanged."""

    @pytest.mark.parametrize(
        "key,value",
        [("tau_s", math.inf), ("flux_on", -math.inf), ("flux_off", math.nan), ("flux_on", 10**400)],
        ids=["tau_s-inf", "flux_on-minus-inf", "flux_off-nan", "flux_on-10**400"],
    )
    def test_non_finite_is_rejected_with_the_parse_message(self, key, value):
        assert self.messages(key, value) == [f"{key} must be finite, got {value!r}"] * 2

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("tau_s", 0.0, "tau_s must be a positive number, got 0.0"),
            ("tau_s", -1.0, "tau_s must be a positive number, got -1.0"),
            ("tau_s", -0.0, "tau_s must be a positive number, got -0.0"),
            ("steps", -1, "steps must be a non-negative integer, got -1"),
            ("tau_s", "x", "tau_s must be a positive number, got 'x'"),
            ("flux_on", True, "flux_on must be a number, got True"),
            ("flux_off", None, "flux_off must be a number, got None"),
            ("steps", 1.5, "steps must be a non-negative integer, got 1.5"),
            ("steps", True, "steps must be a non-negative integer, got True"),
        ],
        ids=["tau_s-zero", "tau_s-negative", "tau_s-minus-zero", "steps-negative",
             "tau_s-string", "flux_on-true", "flux_off-null", "steps-fraction", "steps-true"],
    )
    def test_unparsable_header_is_rejected_with_the_parse_message(self, key, value, message):
        assert self.messages(key, value) == [message] * 2

    def test_replaced_header_is_checked_too(self):
        s = PulseSchedule(1e-6, 1.0, 0.48, 1, (PulseInterval(0, ((0, 1),)),))
        with pytest.raises(ValidationError, match=r"^tau_s must be a positive number, got -1\.0$"):
            dataclasses.replace(s, tau_seconds=-1.0)

    @staticmethod
    def messages(key, value):
        """The messages of building a schedule whose header has ``key`` set to ``value``, and of parsing one."""
        fields = {"tau_s": 1e-6, "flux_on": 1.0, "flux_off": 0.48, "steps": 1, key: value}
        with pytest.raises(ValidationError) as built:
            PulseSchedule(*fields.values(), (PulseInterval(0, ((0, 1),)),))
        with pytest.raises(ValidationError) as parsed:
            parse_schedule(json.dumps({**HEADER_V2, key: value}))
        return [str(built.value), str(parsed.value)]

    @pytest.mark.parametrize(
        "header", [(1e308, 1.0, 0.48), (5e-324, 1.0, 0.48), (1e-6, -0.0, 0.48), (1e-6, 1.0, -0.0), (1e-6, 0.0, 1e-300)]
    )
    def test_valid_header_round_trips_bit_for_bit(self, header):
        g, _ = generate_path_tessellations(2)
        s = PulseSchedule(*header, 1, (PulseInterval(0, ((0, 1),)),))
        assert validate_schedule(s, g) == []
        back = parse_schedule(emit_schedule(s))
        assert back == s
        assert [repr(v) for v in (back.tau_seconds, back.flux_on_ratio, back.flux_off_ratio)] == list(map(repr, header))


def json_paths(node, path=()):
    """Every path into a decoded JSON document, the root's () first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**70, 10**400]) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


class TestMutatedWireFormat:
    """Any edit of a version 2 file gives a schedule or a ValidationError, never another exception."""

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        TEXT = emit_schedule(
            compile_schedule(*generate_lattice_tessellations([2, 3]), 0.9, DEFAULT_PARAMS, 2).schedule
        )

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_loads_or_is_rejected(self, data):
        text = self.TEXT
        if data.draw(st.booleans(), label="edit a value"):
            obj = json.loads(text)
            path = data.draw(st.sampled_from(list(json_paths(obj))[1:]))
            parent = functools.reduce(operator.getitem, path[:-1], obj)
            if data.draw(st.booleans(), label="delete"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES)
            text = json.dumps(obj)
        else:
            start = data.draw(st.integers(0, len(text)))
            end = data.draw(st.integers(start, min(len(text), start + 8)))
            text = text[:start] + data.draw(st.text('[]{},:0123456789-". e', max_size=4)) + text[end:]
        try:
            s = parse_schedule(text)
        except ValidationError:
            return
        # what loads re-emits as a version 2 file that loads back equal
        assert parse_schedule(emit_schedule(s)) == s


class TestSharedPatterns:
    """Intervals that drive one pattern share one on_pairs tuple; every interval is still emitted and checked in full."""

    def test_compiled_steps_share_each_tessellations_tuple(self):
        g, ts = generate_lattice_tessellations([3, 3])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 3)
        for s in (run.schedule, parse_schedule(emit_schedule(run.schedule))):
            intervals = s.intervals
            assert len(intervals) == 3 * len(ts)
            assert all(iv.on_pairs is intervals[iv.index % len(ts)].on_pairs for iv in intervals)
            assert len({id(iv.on_pairs) for iv in intervals}) == len(ts)

    def test_equal_parsed_lists_share_one_tuple(self):
        s = parse_schedule(schedule_json_of("[[0, 1], [2, 3]]", "[[1, 2]]", "[[0, 1], [2, 3]]", "[[1, 0], [2, 3]]"))
        first, other, repeat, reversed_pair = (iv.on_pairs for iv in s.intervals)
        assert repeat is first and first.tolist() == [[0, 1], [2, 3]]
        assert other is not first and reversed_pair is not first and reversed_pair.tolist() == [[1, 0], [2, 3]]
        assert emit_schedule(s) == reference_emit_v2(s)

    @pytest.mark.parametrize("endpoint,shown", [("true", "True"), ("1.0", "1.0")])
    def test_look_alike_repeat_still_rejected(self, endpoint, shown):
        # true == 1 and 1.0 == 1, so a lookup made before the type test would take interval 0's pairs
        text = schedule_json_of("[[0, 1], [2, 3]]", "[[1, 2]]", f"[[0, {endpoint}], [2, 3]]")
        with pytest.raises(ValidationError) as info:
            parse_schedule(text)
        assert str(info.value) == f"interval 2: pair [0, {shown}] must be a list of two node indices"

    def test_compiled_intervals_hold_the_tessellations_pairs(self):
        g, ts = generate_lattice_tessellations([3, 4])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 3)
        assert all(iv.on_pairs is ts[k % len(ts)].pairs for k, iv in enumerate(run.schedule.intervals))

    @pytest.mark.parametrize("version", [1, 2])
    def test_parsed_intervals_share_one_array_per_pattern(self, version):
        g, ts = generate_lattice_tessellations([3, 4])
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 3)
        text = (reference_emit if version == 1 else emit_schedule)(run.schedule)
        arrays = {id(iv.on_pairs): iv.on_pairs for iv in parse_schedule(text).intervals}
        assert len(arrays) == len(ts) and all(type(on) is np.ndarray for on in arrays.values())

    def test_validate_builds_no_edge_tuples(self):
        g, ts = generate_lattice_tessellations((20, 20))
        run = compile_quietly(g, ts, math.pi / 3, DEFAULT_PARAMS, 2)
        bad = dataclasses.replace(run.schedule, intervals=run.schedule.intervals + (PulseInterval(8, [(0, 2)]),))
        for s, expected in ((run.schedule, []), (bad, ["interval 8: pair (0, 2) is not an edge of the graph"])):
            fresh, _ = generate_lattice_tessellations((20, 20))
            assert validate_schedule(s, fresh) == expected
            assert "edges" not in vars(fresh)
        # nor do the graph JSON writer and the uncovered-edge message; g's tuples give the expected text
        fresh, _ = generate_lattice_tessellations((20, 20))
        payload = {"nodes": 400, "edges": [list(e) for e in g.edges], "tessellations": [t.elements for t in ts]}
        assert graph_to_json(fresh, ts) == json.dumps(payload, indent=2) + "\n"
        uncovered = [e for e in g.edges if e in set(map(tuple, ts[3].pairs.tolist()))]
        assert validate_tessellation_set(fresh, ts[:3]) == [f"edges {uncovered} are not covered by any tessellation"]
        assert "edges" not in vars(fresh)

    def test_shared_bad_tuple_reported_for_each_interval(self):
        g, _ = generate_path_tessellations(5)
        bad, good = (PulseInterval(0, on).on_pairs for on in (((0, 1), (1, 2), (3, 5)), ((0, 1), (2, 3))))
        s = PulseSchedule(1e-9, 1.0, 0.48, 2, tuple(PulseInterval(k, (bad, good)[k % 2]) for k in range(4)))
        assert s.intervals[0].on_pairs is s.intervals[2].on_pairs is bad
        expected = reference_validate(s, g)
        assert [m.split(":")[0] for m in expected] == ["interval 0"] * 2 + ["interval 2"] * 2
        assert validate_schedule(s, g) == expected
        assert emit_schedule(s) == reference_emit_v2(s)

    def test_interval_copies_anything_but_a_read_only_pair_array(self):
        pairs = np.array([[0, 1], [2, 3]], dtype=np.intp)
        pairs.flags.writeable = False
        assert PulseInterval(0, pairs).on_pairs is pairs
        given = [
            [(0, 1), (2, 3)], ([0, 1], [2, 3]), ((0, 1), [2, 3]), iter([(0, 1), (2, 3)]),
            ((np.int64(0), 1), (np.uint8(2), np.int32(3))), pairs.copy(), pairs.astype(np.int32),
            np.array([[0, 9, 1], [2, 9, 3]])[:, ::2],
        ]
        for on in given:
            kept = PulseInterval(0, on).on_pairs
            assert kept is not on and kept.dtype == np.intp and not kept.flags.writeable
            assert kept.tolist() == [[0, 1], [2, 3]]
        assert PulseInterval(0, ()).on_pairs.shape == PulseInterval(0, np.empty(0)).on_pairs.shape == (0, 2)
        assert PulseInterval(0, [(0, 1)]) == PulseInterval(0, pairs[:1]) != PulseInterval(1, pairs[:1])
        assert hash(PulseInterval(0, [(0, 1)])) == hash(PulseInterval(0, pairs[:1]))


INTP = np.iinfo(np.intp)


def set_based_pattern(where, on, patterns):
    """The set-based pattern check that parse_schedule once made, kept whole as a reference for its verdicts."""
    flat = _int_pairs(on)
    key = None if flat is None else tuple(flat)
    if (pairs := patterns.get(key)) is None:
        if flat is None or len(set(flat)) != len(flat):
            first_bad_pair(where, on)
        try:
            pairs = np.array(flat, dtype=np.intp).reshape(-1, 2)
        except OverflowError:
            bad = next(pair for pair in on if not all(INTP.min <= v <= INTP.max for v in pair))
            raise ValidationError(f"{where}: pair {bad!r} has a node outside [{INTP.min}, {INTP.max}]") from None
        patterns[key] = pairs
    return pairs


def first_bad_pair(where, on):
    driven = set()
    for pair in on:
        if not isinstance(pair, list) or len(pair) != 2 or not all(type(v) is int for v in pair):
            raise ValidationError(f"{where}: pair {pair!r} must be a list of two node indices")
        i, j = pair
        if i == j:
            raise ValidationError(f"{where}: pair {pair!r} repeats a node")
        for v in (i, j):
            if v in driven:
                raise ValidationError(f"{where}: node {v} is driven by more than one pair")
            driven.add(v)


ENDPOINTS = st.integers(-3, 3) | st.sampled_from(
    [INTP.max, INTP.min, INTP.max + 1, INTP.min - 1, 2**70, True, False, 1.0, -0.0]
)
PAIRS = st.tuples(ENDPOINTS, ENDPOINTS).map(list) | st.lists(ENDPOINTS, max_size=3) | st.just("ab")


class TestPatternMatchesSetBasedCheck:
    """parse_schedule gives each pattern the verdict, message and sharing of the set-based check, in both versions."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_verdict(self, data):
        lists = data.draw(st.lists(st.lists(PAIRS, max_size=4), min_size=1, max_size=4), label="pair lists")
        lists += [lists[k] for k in data.draw(st.lists(st.integers(0, len(lists) - 1), max_size=3), label="repeats")]
        texts = {
            "interval": schedule_json_of(*map(json.dumps, lists)),
            "pattern": json.dumps({**HEADER_V2, "patterns": lists, "intervals": [[k, k] for k in range(len(lists))]}),
        }
        for where, text in texts.items():
            patterns = {}
            try:
                expected = [set_based_pattern(f"{where} {k}", on, patterns) for k, on in enumerate(lists)]
            except ValidationError as exc:
                with pytest.raises(ValidationError) as info:
                    parse_schedule(text)
                assert str(info.value) == str(exc)
                continue
            got = [iv.on_pairs for iv in parse_schedule(text).intervals]
            assert [on.tolist() for on in got] == [on.tolist() for on in expected]
            assert [[a is b for b in got] for a in got] == [[a is b for b in expected] for a in expected]


class TestIntervalGuard:
    """A hand-built interval whose index is not an int, or whose pairs are not two in-range ints, is rejected, naming
    the index, or the interval and the pair."""

    NOT_TWO, OUTSIDE = "must be a list of two node indices", f"has a node outside {RANGE}"

    @pytest.mark.parametrize(
        "on,shown,fault",
        [
            (((0, 2**70), (2**70, 1), (3, 4)), (0, 2**70), OUTSIDE),
            (((2**70, 2**71), (2**63, -(2**63) - 1)), (2**70, 2**71), OUTSIDE),
            (((0, 1), (-(2**63) - 1, 2)), (-(2**63) - 1, 2), OUTSIDE),
            (((np.uint64(2**63), 0),), (np.uint64(2**63), 0), OUTSIDE),
            (((0, 1.5), (1.0, 0)), (0, 1.5), NOT_TWO),
            (((0, 1), (1.0, 2)), (1.0, 2), NOT_TWO),
            (((True, 1),), (True, 1), NOT_TWO),
            (((0, 1), (2, 3), (4, False)), (4, False), NOT_TWO),
            (((np.True_, 1),), (np.True_, 1), NOT_TWO),
            (np.array([[0.0, 1.0]]), [0.0, 1.0], NOT_TWO),
            (np.array([[True, False]]), [True, False], NOT_TWO),
            (((0, 1, 2),), (0, 1, 2), NOT_TWO),
            (((0, 1), (2,)), (2,), NOT_TWO),
            ([0, 1], 0, NOT_TWO),
            (np.arange(4), 0, NOT_TWO),
        ],
        ids=["2**70", "beyond-int64", "below-int64", "numpy-uint64", "floats", "whole-float", "bool",
             "bool-among-ints", "numpy-bool", "float-array", "bool-array", "three-entries", "one-entry",
             "flat-list", "flat-array"],
    )
    def test_rejected(self, on, shown, fault):
        with pytest.raises(ValidationError) as info:
            PulseInterval(2, on)
        assert str(info.value) == f"interval 2: pair {shown!r} {fault}"

    @pytest.mark.parametrize("index", [True, np.True_, 1.5, 1.0, "x", None], ids=repr)
    def test_index_that_is_not_an_int_rejected(self, index):
        with pytest.raises(ValidationError) as info:
            PulseInterval(index, ((0, 1),))
        assert str(info.value) == f"interval index must be an integer, got {index!r}"

    @pytest.mark.parametrize("index", [np.int64(3), np.uint8(3), -1, 2**70], ids=repr)
    def test_any_integer_index_round_trips(self, index):
        s = PulseSchedule(1e-9, 1.0, 0.48, 1, (PulseInterval(index, ((0, 1),)), PulseInterval(0, ())))
        assert type(s.intervals[0].index) is int and s.intervals[0].index == index
        text = emit_schedule(s)
        assert f'"intervals": [[{int(index)}, 0], [0, 1]]\n' in text
        assert parse_schedule(text) == s and emit_schedule(parse_schedule(text)) == text
