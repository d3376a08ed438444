"""Fuzz gate: mutated graph, parameter and schedule JSON and mutated argv end in a clean exit, never a traceback.

Every case is small: node counts stay at most 10**4 or are at least 2**62, where allocation fails at once; --path
and lattice sizes stay at most 10**4 or are at least 2**60, which numpy refuses to size before it allocates anything,
and --steps and --sweep stay at most 50.
"""

import copy
import dataclasses
import json
import math
from pathlib import Path

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from sqwbench.circuit import DEFAULT_PARAMS
from sqwbench.cli import main
from sqwbench.errors import ValidationError
from sqwbench.schedule import parse_schedule

DATA = Path(__file__).parent / "data"

# the value that replaces a mutated key or item, each group about as likely: small ints, which keep node counts at
# most 10**4; bools and null; non-finite and extreme floats; ints around +-2**63 and past the float range; strings,
# lists and dicts
MUTANTS = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([True, False, None]),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e308, -1e308, 5e-324, 0.5]),
    st.sampled_from([10**4, 2**62, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**400, -(10**400)]),
    st.sampled_from(["", "x", "1", [], [0], [0, 1], [[0, 1]], [[0, 1], [1, 2]], {}, {"0": 1}]),
)
# argv values; the 400-digit text parses as an int, and as a float to inf
ARGS = st.sampled_from(
    [
        "0", "1", "2", "3", "5", "-1", "-0", "0.5", "1e308", "5e-324", "inf", "-inf", "nan", "x", "", "pi/0",
        "-pi/2", "7pi/24", "3,3", "0,4", "2,-2", "100,100", "1,1,1", "50", "51", "10000", "10001",
        str(2**62), str(2**63 - 1), str(2**63), str(-(2**63) - 1), "1" * 400,
    ]
)
LIMITS = {"--path": 10**4, "--steps": 50, "--sweep": 50, "--lattice": 10**4}  # the largest size each option may ask
REFUSED = {"--path": 2**60, "--lattice": 2**60}  # the smallest node count numpy refuses to size, which is drawn too

GRAPH = {"nodes": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]}
TESSELLATIONS = [[[0, 1], [2, 3], [4, 5]], [[0], [1, 2], [3, 4], [5]]]
PARAMS = dataclasses.asdict(DEFAULT_PARAMS)
# each command's argv after "--out DIR"; GRAPH and PARAMS stand for the paths of the (mutated) files
COMMANDS = [
    ["walk", "--path", "6", "--steps", "2", "--theta", "pi/3", "--start", "2", "--convention", "abstract", "--svg"],
    ["walk", "--lattice", "3,3", "--steps", "1", "--theta", "0.9"],
    ["walk", "--graph", "GRAPH", "--steps", "2", "--theta", "pi/4"],
    ["circuit", "--params", "PARAMS", "--theta", "pi/3", "--sweep", "3"],
    ["schedule", "--path", "5", "--steps", "2", "--theta", "pi/4", "--params", "PARAMS"],
    ["schedule", "--graph", "GRAPH", "--steps", "1", "--params", "PARAMS"],
]
SCHEDULES = [(DATA / name).read_text() for name in ("schedule_path5.json", "schedule_path5_v2.json")]


def json_paths(node, path=()):
    """Every path to a value inside a decoded JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutate(data, obj, label):
    """``obj`` with one to three keys or items dropped or replaced by a MUTANTS value."""
    for _ in range(data.draw(st.integers(1, 3), label=f"{label} edits")):
        paths = list(json_paths(obj))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths), label=f"{label} path")
        parent = obj
        for step in parents:
            parent = parent[step]
        if data.draw(st.integers(0, 3), label=f"{label} drop") == 0:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(data.draw(MUTANTS, label=f"{label} value"))  # a later edit may reach inside
    return obj


def within_limits(option, text):
    """False for a size above the option's LIMITS and below its REFUSED; text that is no size is left to the parser."""
    if option not in LIMITS:
        return True
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        return True
    total = math.prod(max(size, 1) for size in sizes)
    return total <= LIMITS[option] or total >= REFUSED.get(option, math.inf)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly(tmp_path_factory, data):
    case = tmp_path_factory.mktemp("case")
    argv = list(data.draw(st.sampled_from(COMMANDS), label="command"))
    graph = copy.deepcopy(GRAPH)
    if data.draw(st.booleans(), label="with tessellations"):
        graph["tessellations"] = copy.deepcopy(TESSELLATIONS)
    params = dict(PARAMS)
    target = data.draw(st.sampled_from(["argv"] + [key.lower() for key in ("GRAPH", "PARAMS") if key in argv]))
    if target == "graph":
        mutate(data, graph, "graph")
    elif target == "params":
        mutate(data, params, "params")
    else:
        for _ in range(data.draw(st.integers(1, 2), label="argv edits")):
            values = [k for k in range(2, len(argv)) if argv[k - 1].startswith("--") and argv[k][:2] != "--"]
            k = data.draw(st.sampled_from(values) | st.integers(1, len(argv) - 1), label="argv index")
            if data.draw(st.booleans(), label="argv drop"):
                del argv[k]
            else:
                argv[k] = data.draw(ARGS, label="argv value")
        assume(all(map(within_limits, argv, argv[1:])))
    files = {"GRAPH": case / "graph.json", "PARAMS": case / "params.json"}
    files["GRAPH"].write_text(json.dumps(graph))
    files["PARAMS"].write_text(json.dumps(params))
    argv = [str(files.get(token, token)) for token in argv]

    out = case / "out"
    code = main([argv[0], "--out", str(out), *argv[1:]])  # an exception escaping main fails the test
    event(f"{argv[0]}, {target} mutated: exit {code}")
    assert code in (0, 1, 2, 3), argv
    if code:
        assert not out.exists() or not [p for p in out.rglob("*") if p.is_file()], argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_schedule_json_loads_or_is_rejected(data):
    text = data.draw(st.sampled_from(SCHEDULES), label="schedule")
    try:
        parse_schedule(json.dumps(mutate(data, json.loads(text), "schedule")))
    except ValidationError:
        pass
