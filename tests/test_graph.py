import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqwbench
from sqwbench import errors, graph
from sqwbench.errors import ValidationError
from sqwbench.graph import (
    Tessellation,
    TessellationSet,
    build_graph,
    generate_lattice_tessellations,
    generate_path_tessellations,
    graph_from_json,
    graph_to_json,
    greedy_tessellate,
    is_triangle_free,
    validate_tessellation,
    validate_tessellation_set,
)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestBuildGraph:
    def test_two_node_path(self):
        g = build_graph(2, [(0, 1)])
        assert g.node_count == 2
        assert g.edges == ((0, 1),)

    def test_five_node_path(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_triangle_is_a_valid_graph(self):
        # the triangle-free check is a separate operation
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert len(g.edges) == 3

    def test_normalization_dedup_and_order(self):
        g = build_graph(4, [(3, 1), (1, 3), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            build_graph(3, [(0, 3)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValidationError):
            build_graph(-1, [])

    def test_empty_graph_ok(self):
        g = build_graph(0, [])
        assert g.node_count == 0 and g.edges == ()

    @pytest.mark.parametrize("load", ["build_graph", "graph_from_json"])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (5, "edge 5 is not a pair"),
            ([1], "edge (1,) is not a pair"),
            ([1, 2, 3], "edge (1, 2, 3) is not a pair"),
            ([0, 1.0], "edge (0, 1.0) has non-integer endpoints"),
            ([True, 1], "edge (True, 1) has non-integer endpoints"),
            (["a", 1], "edge ('a', 1) has non-integer endpoints"),
            ([2, 2], "self-loop on node 2 is not allowed"),
            ([-1, 2], "edge (-1, 2) references a node outside [0, 4)"),
            ([0, 4], "edge (0, 4) references a node outside [0, 4)"),
        ],
        ids=["int", "one", "three", "float", "bool", "str", "self-loop", "negative", "n"],
    )
    def test_first_bad_edge_named(self, load, bad, message):
        # a valid edge before the bad one, a second bad edge after it
        edges = [[0, 1], bad, [3, 3]]
        if load == "graph_from_json":
            if not isinstance(bad, list):
                message = '"edges" must be a list of [i, j] pairs'
            with pytest.raises(ValidationError) as excinfo:
                graph_from_json(json.dumps({"nodes": 4, "edges": edges}))
        else:
            with pytest.raises(ValidationError) as excinfo:
                build_graph(4, edges)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 1], [1, 2], [5, 6]],
            ((0, 1), (1, 2), (5, 6)),
            [(4, 3), [3, 4], (4, 3), [0, 6], (6, 0)],
            [[6, 5], [2, 1], [1, 0], [3, 2]],
            [],
        ],
        ids=["lists", "tuples", "duplicates", "reversed", "empty"],
    )
    def test_whole_list_path_matches_edge_loop(self, edges):
        assert errors._int_pairs(edges) is not None
        # entries that are neither lists nor tuples take the edge-by-edge loop
        loop = build_graph(7, [iter(e) for e in edges])
        assert np.array_equal(build_graph(7, edges).edge_array, loop.edge_array)
        g, _ = graph_from_json(json.dumps({"nodes": 7, "edges": [list(e) for e in edges]}))
        assert np.array_equal(g.edge_array, loop.edge_array)

    @pytest.mark.parametrize("load", ["build_graph", "graph_from_json"])
    @pytest.mark.parametrize(
        "nodes,bad,message",
        [
            (4, [True, 1], "edge (True, 1) has non-integer endpoints"),
            (4, [0, 1.0], "edge (0, 1.0) has non-integer endpoints"),
            (4, [0, 2**70], "edge (0, 1180591620717411303424) references a node outside [0, 4)"),
            (2**62, [2**63, 1], f"edge (9223372036854775808, 1) references a node outside [0, {2**62})"),
            (4, [-1, 2], "edge (-1, 2) references a node outside [0, 4)"),
            (4, [-(2**70), 1], "edge (-1180591620717411303424, 1) references a node outside [0, 4)"),
            (4, [2, 2], "self-loop on node 2 is not allowed"),
            (4, [3, 4], "edge (3, 4) references a node outside [0, 4)"),
            (4, [1, 2, 3], "edge (1, 2, 3) is not a pair"),
        ],
        ids=["bool", "float", "2**70", "above-intp", "negative", "below-intp", "self-loop", "n", "three"],
    )
    def test_only_bad_edge_named(self, load, nodes, bad, message):
        # valid edges around one bad edge: the whole-list test must fail on that edge alone
        edges = [[0, 1], [1, 2], bad, [2, 3]]
        with pytest.raises(ValidationError) as excinfo:
            if load == "graph_from_json":
                graph_from_json(json.dumps({"nodes": nodes, "edges": edges}))
            else:
                build_graph(nodes, edges)
        assert str(excinfo.value) == message

    def test_value_semantics(self):
        g = build_graph(5, [(0, 1), (3, 4), (1, 2)])
        same = build_graph(5, [(2, 1), (4, 3), (1, 0), (0, 1), (3, 4)])
        assert g == same and hash(g) == hash(same)
        assert g != build_graph(6, [(0, 1), (3, 4), (1, 2)])
        assert g != build_graph(5, [(0, 1), (3, 4)])
        assert g.edge_array.tolist() == [[0, 1], [1, 2], [3, 4]]
        assert not g.edge_array.flags.writeable
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 3
        assert all(type(v) is int for edge in g.edges for v in edge)
        assert g.max_degree() == 2 and build_graph(3, []).max_degree() == 0
        assert repr(g) == "Graph(node_count=5, edges=((0, 1), (1, 2), (3, 4)))"
        fresh = build_graph(5, [(0, 1), (3, 4), (1, 2)])
        assert repr(fresh) == repr(g) and "edges" not in vars(fresh)  # printing caches no edge tuples
        assert repr(build_graph(2, [(1, 0)])) == "Graph(node_count=2, edges=((0, 1),))"
        assert repr(build_graph(2, [])) == "Graph(node_count=2, edges=())"

    def test_node_count_above_index_range_rejected(self):
        with pytest.raises(ValidationError, match="node_count must be at most"):
            build_graph(2**63, [(0, 1)])
        with pytest.raises(ValidationError, match="node_count must be at most"):
            graph_from_json(json.dumps({"nodes": 2**70, "edges": [[0, 1]]}))

    def test_huge_node_count_costs_only_its_edges(self):
        # the canonical form, the triangle check and the edge lookup allocate per edge, not per node
        n = 2**62
        g = build_graph(n, [(n - 1, 1), (0, 1)])
        assert g.edges == ((0, 1), (1, n - 1))
        assert is_triangle_free(g)
        assert not is_triangle_free(build_graph(n, [(n - 1, 1), (0, 1), (0, n - 1)]))
        pairs = np.array([[0, 1], [1, n - 1], [0, n - 1], [n - 2, n - 1], [1, 2]])
        assert g._edge_index(pairs).tolist() == [0, 1, -1, -1, -1]


class TestTriangleFree:
    def test_path_is_triangle_free(self):
        assert is_triangle_free(path_graph(5))

    def test_triangle_is_not(self):
        assert not is_triangle_free(build_graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_four_cycle_is_triangle_free(self):
        g, _ = generate_lattice_tessellations([2, 2])
        assert is_triangle_free(g)

    def test_matches_neighbour_sets(self):
        rng = random.Random(1985)
        verdicts = set()
        for _ in range(400):
            n = rng.randint(1, 30)
            p = rng.random() * 0.4
            g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            verdict = is_triangle_free(g)
            assert type(verdict) is bool
            assert verdict == reference_triangle_free(g), g
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_dense_bipartite_with_a_triangle(self):
        # shuffled ids and uneven degrees give these graphs many more 2-paths than edges, so the paths are
        # listed in several slices; a chord inside one side closes triangles, and a triangle on three
        # extra nodes, whose edges are the last rows, is only reached by a later slice
        rng = random.Random(2012)
        chord_verdicts = set()
        for _ in range(30):
            n = rng.randint(20, 60)
            ids = list(range(n))
            rng.shuffle(ids)
            left = ids[: n // 2]
            edges = [(i, j) for i in left for j in ids[n // 2 :] if rng.random() < rng.random()]
            assert is_triangle_free(build_graph(n + 3, edges)) is True
            assert is_triangle_free(build_graph(n + 3, edges + [(n, n + 1), (n + 1, n + 2), (n, n + 2)])) is False
            chorded = build_graph(n, edges + [tuple(rng.sample(left, 2))])
            chord_verdicts.add(is_triangle_free(chorded))
            assert chord_verdicts >= {reference_triangle_free(chorded)}
        assert chord_verdicts == {True, False}

    @pytest.mark.parametrize("k", [1, 2, 30])
    def test_complete_bipartite_interleaved(self, k):
        edges = [(2 * i, 2 * j + 1) for i in range(k) for j in range(k)]
        assert is_triangle_free(build_graph(2 * k, edges)) is True
        if k > 1:
            assert is_triangle_free(build_graph(2 * k, edges + [(0, 2)])) is False


def reference_triangle_free(g):
    """is_triangle_free as it was built on Python neighbour sets."""
    nbrs = {}
    for i, j in g.edges:
        nbrs.setdefault(i, set()).add(j)
        nbrs.setdefault(j, set()).add(i)
    return all(not (nbrs[i] & nbrs[j]) for i, j in g.edges)


class TestValidateTessellation:
    def test_valid_partition(self):
        g = path_graph(5)
        t = Tessellation(((0, 1), (2, 3), (4,)))
        assert validate_tessellation(g, t) == []

    def test_repeated_node(self):
        g = path_graph(5)
        t = Tessellation(((0, 1), (1, 2), (3,), (4,)))
        violations = validate_tessellation(g, t)
        assert any("node 1" in v for v in violations)

    def test_non_edge_pair(self):
        g = path_graph(5)
        t = Tessellation(((0, 2), (1,), (3, 4)))
        violations = validate_tessellation(g, t)
        assert any("(0, 2)" in v and "not an edge" in v for v in violations)

    def test_missing_node(self):
        g = path_graph(3)
        t = Tessellation(((0, 1),))
        violations = validate_tessellation(g, t)
        assert any("not covered" in v for v in violations)

    def test_out_of_range_node(self):
        g = path_graph(2)
        t = Tessellation(((0, 1), (5,)))
        assert any("outside" in v for v in validate_tessellation(g, t))

    @pytest.mark.parametrize(
        "n,elements,messages",
        [
            (6, ((0, 1), (4,)), ["nodes [2, 3, 5] are not covered by any element"]),
            (
                4,
                ((0, 1), (7,)),
                ["element (7,) references node 7 outside [0, 4)", "nodes [2, 3] are not covered by any element"],
            ),
            (22, ((0, 1),), [f"nodes {list(range(2, 22))} are not covered by any element"]),
            (
                24,
                ((0, 1), (5,)),
                [f"nodes {[2, 3, 4, *range(6, 23)]} and 1 more (21 in all) are not covered by any element"],
            ),
        ],
        ids=["gap", "out-of-range", "twenty", "twenty-one"],
    )
    def test_uncovered_nodes_named(self, n, elements, messages):
        assert validate_tessellation(build_graph(n, [(0, 1)]), Tessellation(elements)) == messages

    def test_huge_gap_counted_not_listed(self):
        # under an address-space cap, so listing every uncovered node fails with MemoryError
        # instead of taking the machine's memory; one BLAS thread keeps numpy's import small
        code = (
            "import json, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))\n"
            "from sqwbench.graph import graph_from_json\n"
            "from sqwbench.errors import ValidationError\n"
            "try:\n"
            "    graph_from_json(json.dumps({'nodes': 2**40, 'edges': [[0, 1]], 'tessellations': [[[0, 1]]]}))\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(sqwbench.__file__).parents[1])
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "invalid tessellations in graph JSON: tessellation 0: "
            f"nodes {list(range(2, 22))} and 1099511627754 more (1099511627774 in all) are not covered by any element\n"
        )

    def test_stable_under_element_reordering(self):
        g = path_graph(9)
        elements = [(0, 1), (2, 3), (4, 5), (6, 7), (8,)]
        rng = random.Random(3)
        for _ in range(20):
            rng.shuffle(elements)
            assert validate_tessellation(g, Tessellation(tuple(elements))) == []

    def test_uncovered_edges_named_in_order(self):
        g = path_graph(5)
        ts = TessellationSet((Tessellation(((0, 2), (1,), (3,), (4,))), Tessellation(((0, 1), (2, 3), (4,)))))
        assert validate_tessellation_set(g, ts) == [
            "tessellation 0: element (0, 2) is not an edge of the graph",
            "edges [(1, 2), (3, 4)] are not covered by any tessellation",
        ]

    def test_oversized_element_rejected_on_construction(self):
        with pytest.raises(ValidationError):
            Tessellation(((0, 1, 2),))

    @pytest.mark.parametrize(
        "element,message",
        [
            (5, "tessellation element 5 is not a node collection"),
            ((-1, 2), "tessellation element (-1, 2) has invalid node indices"),
            ((True, 2), "tessellation element (True, 2) has invalid node indices"),
            ((3, 3), "tessellation element (3, 3) repeats a node"),
        ],
        ids=["not-a-collection", "negative", "bool", "repeated"],
    )
    def test_bad_element_rejected_on_construction(self, element, message):
        with pytest.raises(ValidationError) as info:
            Tessellation(((0, 1), element))
        assert str(info.value) == message


class TestTessellationSet:
    def test_is_an_ordered_tuple(self):
        a, b = Tessellation(((0, 1),)), Tessellation(((0,), (1,)))
        ts = TessellationSet((a, b))
        assert type(ts) is tuple and ts == (a, b) and list(ts) == [a, b]
        assert len(ts) == 2 and ts[0] is a and ts[-1] is b and ts[::-1] == (b, a)
        assert TessellationSet([a, b]) == ts != TessellationSet((b, a))
        assert hash(ts) == hash(TessellationSet((a, b)))

    def test_every_constructor_returns_a_tuple(self):
        g, ts = generate_lattice_tessellations((3, 2))
        assert type(ts) is tuple
        assert type(generate_path_tessellations(4)[1]) is tuple
        assert type(greedy_tessellate(g)) is tuple
        assert type(graph_from_json(graph_to_json(g, ts))[1]) is tuple


class TestPathGenerator:
    def test_five_nodes(self):
        g, ts = generate_path_tessellations(5)
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert ts[0].elements == ((0, 1), (2, 3), (4,))
        assert ts[1].elements == ((0,), (1, 2), (3, 4))

    def test_single_node(self):
        g, ts = generate_path_tessellations(1)
        assert g.edges == ()
        assert ts[0].elements == ((0,),)
        assert ts[1].elements == ((0,),)

    def test_even_node_count(self):
        _, ts = generate_path_tessellations(4)
        assert ts[0].elements == ((0, 1), (2, 3))
        assert ts[1].elements == ((0,), (1, 2), (3,))

    def test_133_counts_and_cover(self):
        g, ts = generate_path_tessellations(133)
        assert len(ts[0].pairs) == 66 and len(ts[0].singletons) == 1
        assert len(ts[1].pairs) == 66 and len(ts[1].singletons) == 1
        assert validate_tessellation_set(g, ts) == []

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            generate_path_tessellations(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValidationError, match="^path node count must be an integer, got "):
            generate_path_tessellations(n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=80))
    def test_always_valid_and_covering(self, n):
        g, ts = generate_path_tessellations(n)
        assert len(ts) == 2
        assert is_triangle_free(g)
        assert validate_tessellation_set(g, ts) == []


class TestLatticeGenerator:
    def test_1d_matches_path(self):
        gl, tl = generate_lattice_tessellations([5])
        gp, tp = generate_path_tessellations(5)
        assert gl == gp
        assert tuple(tl) == tuple(tp)

    def test_2x2_exhaustive(self):
        g, ts = generate_lattice_tessellations([2, 2])
        assert g.node_count == 4
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert len(ts) == 4
        for t in ts:
            assert len(t.pairs) == 1 and len(t.singletons) == 2
        assert validate_tessellation_set(g, ts) == []

    def test_3x3_counts_and_cover(self):
        g, ts = generate_lattice_tessellations([3, 3])
        assert g.node_count == 9
        assert len(g.edges) == 12
        assert len(ts) == 4
        assert validate_tessellation_set(g, ts) == []

    def test_interior_node_paired_in_every_tessellation(self):
        _, ts = generate_lattice_tessellations([5, 5])
        center = 2 * 5 + 2
        hits = sum(1 for t in ts for pair in t.pairs if center in pair)
        assert hits == 4

    def test_3d_interior_node(self):
        g, ts = generate_lattice_tessellations([3, 3, 3])
        assert len(ts) == 6
        center = 13
        hits = sum(1 for t in ts for pair in t.pairs if center in pair)
        assert hits == 6
        assert validate_tessellation_set(g, ts) == []

    def test_empty_dims_rejected(self):
        with pytest.raises(ValidationError):
            generate_lattice_tessellations([])

    def test_zero_dim_rejected(self):
        with pytest.raises(ValidationError):
            generate_lattice_tessellations([3, 0])

    @pytest.mark.parametrize("dims", [[2.7], [True, 3], [3, False], [3, "2"], [3, None], (2.0, 2)])
    def test_non_integer_dim_rejected(self, dims):
        with pytest.raises(ValidationError, match=r"^lattice dimensions must be integers, got \["):
            generate_lattice_tessellations(dims)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3))
    def test_count_cover_and_triangle_freedom(self, dims):
        g, ts = generate_lattice_tessellations(dims)
        assert len(ts) == 2 * len(dims)
        assert is_triangle_free(g)
        assert validate_tessellation_set(g, ts) == []


def random_tree(rng, n):
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_triangle_free(rng, n, p=0.4):
    adj = {v: set() for v in range(n)}
    edges = []
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(candidates)
    for i, j in candidates:
        if not (adj[i] & adj[j]) and rng.random() < p:
            adj[i].add(j)
            adj[j].add(i)
            edges.append((i, j))
    return build_graph(n, edges)


class TestGreedyTessellate:
    def test_path_needs_two(self):
        g = path_graph(5)
        ts = greedy_tessellate(g)
        assert len(ts) == 2
        assert validate_tessellation_set(g, ts) == []

    def test_star_pairs_center_with_each_leaf(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        ts = greedy_tessellate(g)
        assert len(ts) == 4
        for t in ts:
            assert len(t.pairs) == 1 and t.pairs[0][0] == 0

    def test_edgeless_graph(self):
        g = build_graph(3, [])
        ts = greedy_tessellate(g)
        assert len(ts) == 1
        assert ts[0].elements == ((0,), (1,), (2,))

    def test_triangle_rejected(self):
        with pytest.raises(ValidationError):
            greedy_tessellate(build_graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_odd_cycle_flags_extra_tessellation(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        with pytest.warns(RuntimeWarning, match="maximum degree"):
            ts = greedy_tessellate(g)
        assert len(ts) == 3
        assert validate_tessellation_set(g, ts) == []

    def test_random_graphs_within_degree_bound(self):
        # greedy promises 2 * max_degree - 1 rounds (see TestGreedyRoundBound), not max_degree + 1
        rng = random.Random(20240814)
        for trial in range(60):
            n = rng.randint(2, 24)
            tessellate_within_bound(random_tree(rng, n) if trial % 2 else random_triangle_free(rng, n))


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    return build_graph(10, outer + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def tessellate_within_bound(g):
    """greedy_tessellate's count, checked against max(2 * max_degree - 1, 1), with the cover validated.

    Each round is one _greedy_matching call; a round past the bound fails at once, so a matching that stalls
    cannot loop.
    """
    delta = g.max_degree()
    bound = max(2 * delta - 1, 1)
    matching, rounds = graph._greedy_matching, itertools.count(1)

    def counted(pairs, order):
        assert next(rounds) <= bound, f"greedy_tessellate started a round past 2 * {delta} - 1"
        return matching(pairs, order)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(graph, "_greedy_matching", counted)
        warnings.simplefilter("ignore", RuntimeWarning)
        ts = greedy_tessellate(g)
    assert delta <= len(ts) <= bound, g
    assert validate_tessellation_set(g, ts) == [], g
    return len(ts)


class TestGreedyRoundBound:
    # an edge still uncovered after round r was blocked in each round by a matched edge at one of its two nodes;
    # there are at most 2 * max_degree - 2 of those, so greedy needs at most 2 * max_degree - 1 rounds

    @pytest.mark.parametrize("k", range(1, 41))
    @pytest.mark.parametrize("interleaved", [False, True], ids=["split", "interleaved"])
    def test_complete_bipartite(self, k, interleaved):
        if interleaved:
            edges = [(2 * i, 2 * j + 1) for i in range(k) for j in range(k)]
        else:
            edges = [(i, k + j) for i in range(k) for j in range(k)]
        tessellate_within_bound(build_graph(2 * k, edges))

    def test_random_bipartite(self):
        rng = random.Random(5)
        graphs = [random_bipartite(rng, rng.randint(2, 14), rng.randint(2, 14)) for _ in range(600)]
        # the sample reaches more than max_degree + 1 rounds
        assert max(tessellate_within_bound(g) - g.max_degree() for g in graphs) >= 2

    def test_random_triangle_free(self):
        rng = random.Random(5)
        for _ in range(300):
            tessellate_within_bound(random_triangle_free(rng, rng.randint(3, 30), rng.uniform(0.1, 0.6)))

    @pytest.mark.parametrize("n", [5, 7, 9, 41])
    def test_odd_cycles(self, n):
        assert tessellate_within_bound(build_graph(n, [(i, (i + 1) % n) for i in range(n)])) == 3

    def test_petersen(self):
        assert tessellate_within_bound(petersen_graph()) == 4


def reference_greedy(g):
    """greedy_tessellate as it was built on Python sets: each round's sorted elements, in round order."""
    adj = {v: set() for v in range(g.node_count)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    if any(adj[i] & adj[j] for i, j in g.edges):
        raise ValidationError("graph contains a triangle; staggered tessellations need triangle-free input")
    max_degree = max((len(nbrs) for nbrs in adj.values()), default=0)
    uncovered = set(g.edges)
    rounds = []
    while uncovered:
        degree = {}
        for i, j in uncovered:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        order = sorted(
            uncovered,
            key=lambda e: (-max(degree[e[0]], degree[e[1]]), -min(degree[e[0]], degree[e[1]]), e),
        )
        used = set()
        matching = []
        for i, j in order:
            if i not in used and j not in used:
                matching.append((i, j))
                used.update((i, j))
        rounds.append(tuple(sorted(matching + [(v,) for v in range(g.node_count) if v not in used])))
        uncovered.difference_update(matching)
    if not rounds:
        rounds.append(tuple((v,) for v in range(g.node_count)))
    if len(rounds) > max_degree > 0:
        warnings.warn(f"needed {len(rounds)} tessellations for maximum degree {max_degree}", RuntimeWarning)
    return rounds


def random_bipartite(rng, left, right):
    p = rng.random()
    edges = [(i, left + j) for i in range(left) for j in range(right) if rng.random() < p]
    rng.shuffle(edges)
    return build_graph(left + right, [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges])


def greedy_outcome(tessellate, g):
    """(elements per round or the raised message, warning messages) of one tessellation run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [tuple(t.elements) if isinstance(t, Tessellation) else t for t in tessellate(g)]
        except ValidationError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


class TestGreedyMatchesReference:
    # the same tessellations in the same order fix the bytes of run.json and schedule.json

    def test_random_bipartite(self):
        rng = random.Random(515)
        outcomes = set()
        for _ in range(1000):
            g = random_bipartite(rng, rng.randint(1, 14), rng.randint(1, 14))
            expected = greedy_outcome(reference_greedy, g)
            assert greedy_outcome(greedy_tessellate, g) == expected, g
            outcomes.add((isinstance(expected[0], str), bool(expected[1])))
        # the sample reaches the plain and the warning outcome
        assert {(False, False), (False, True)} <= outcomes

    def test_k66_minus_two_edges_needs_eight(self):
        # more rounds than max_degree + 1 = 7
        g = build_graph(12, [(i, j) for i in range(6) for j in range(6, 12) if (i, j) not in {(0, 6), (2, 8)}])
        result, caught = greedy_outcome(greedy_tessellate, g)
        assert len(result) == 8 and caught == [(RuntimeWarning, "needed 8 tessellations for maximum degree 6")]
        assert tessellate_within_bound(g) == 8  # and the cover validates
        assert (result, caught) == greedy_outcome(reference_greedy, g)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 21])
    def test_odd_cycles(self, n):
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        result, caught = greedy_outcome(greedy_tessellate, g)
        assert (result, caught) == greedy_outcome(reference_greedy, g)
        if n > 3:
            assert len(result) == 3 and caught == [(RuntimeWarning, "needed 3 tessellations for maximum degree 2")]

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless(self, n):
        g = build_graph(n, [])
        assert greedy_outcome(greedy_tessellate, g) == greedy_outcome(reference_greedy, g)

    # numpy passes settle one pair at a time on paths and cycles, so these reach the in-order scan that
    # finishes a round
    @pytest.mark.parametrize("n", [2, 3, 17, 1000])
    def test_long_paths(self, n):
        g = path_graph(n)
        assert greedy_outcome(greedy_tessellate, g) == greedy_outcome(reference_greedy, g)

    @pytest.mark.parametrize("n", [4, 6, 64, 999, 1000])
    def test_long_cycles(self, n):
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert greedy_outcome(greedy_tessellate, g) == greedy_outcome(reference_greedy, g)

    # the first round's key bound b*b is 65,025 for 254 leaves and 65,536 for 255: 16-bit and 32-bit keys
    @pytest.mark.parametrize("leaves", [1, 2, 50, 254, 255])
    def test_stars(self, leaves):
        g = build_graph(leaves + 1, [(leaves // 2, v) for v in range(leaves + 1) if v != leaves // 2])
        assert greedy_outcome(greedy_tessellate, g) == greedy_outcome(reference_greedy, g)

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_complete_bipartite_interleaved(self, k):
        g = build_graph(2 * k, [(2 * i, 2 * j + 1) for i in range(k) for j in range(k)])
        assert greedy_outcome(greedy_tessellate, g) == greedy_outcome(reference_greedy, g)

    def test_sparse_bipartite_hundreds_of_nodes(self):
        rng = random.Random(2024)
        for _ in range(12):
            left, right = rng.randint(100, 250), rng.randint(100, 250)
            degree = rng.randint(1, 5)
            edges = {(i, left + rng.randrange(right)) for i in range(left) for _ in range(degree)}
            ids = list(range(left + right))
            rng.shuffle(ids)
            g = build_graph(left + right, [(ids[i], ids[j]) for i, j in edges])
            assert greedy_outcome(greedy_tessellate, g) == greedy_outcome(reference_greedy, g)


def reference_matching(pairs, order):
    """The rows an in-order scan of ``pairs`` keeps, each one whose two nodes are still free."""
    used, matched = set(), np.zeros(len(pairs), dtype=bool)
    for k in order:
        i, j = pairs[k]
        if i not in used and j not in used:
            matched[k] = True
            used.update((i, j))
    return matched


class TestGreedyMatchingHelper:
    # greedy_tessellate passes degree-sorted orders; the helper must equal the scan for any order

    def test_random_bipartite_random_orders(self):
        rng = random.Random(2026)
        nprng = np.random.default_rng(2026)
        for _ in range(300):
            pairs = random_bipartite(rng, rng.randint(1, 30), rng.randint(1, 30)).edge_array
            order = nprng.permutation(len(pairs))
            assert np.array_equal(graph._greedy_matching(pairs, order), reference_matching(pairs.tolist(), order))

    # in row order a pass keeps only the first row of a path or cycle, so the in-order scan finishes the round
    @pytest.mark.parametrize("n", [3, 4, 17, 500])
    @pytest.mark.parametrize("cycle", [False, True])
    def test_paths_and_cycles(self, n, cycle):
        pairs = np.array([(i, (i + 1) % n) for i in range(n if cycle else n - 1)])
        rows = np.arange(len(pairs))
        for order in (rows, rows[::-1], np.random.default_rng(n).permutation(rows)):
            assert np.array_equal(graph._greedy_matching(pairs, order), reference_matching(pairs.tolist(), order))

    def test_empty_order(self):
        pairs = path_graph(5).edge_array
        assert graph._greedy_matching(pairs, np.array([], dtype=np.intp)).tolist() == [False] * 4
        assert graph._greedy_matching(np.empty((0, 2), dtype=np.intp), np.array([], dtype=np.intp)).size == 0


class TestGraphJson:
    def test_round_trip(self):
        g, ts = generate_lattice_tessellations([3, 2])
        text = graph_to_json(g, ts)
        g2, ts2 = graph_from_json(text)
        assert g2 == g
        assert tuple(ts2) == tuple(ts)

    def test_round_trip_without_tessellations(self):
        g = path_graph(4)
        g2, ts2 = graph_from_json(graph_to_json(g))
        assert g2 == g and ts2 is None

    def test_malformed_json_names_offset(self):
        with pytest.raises(ValidationError, match="byte offset"):
            graph_from_json('{"nodes": 3, "edges": [[0, 1]')

    def test_missing_keys(self):
        with pytest.raises(ValidationError, match="nodes"):
            graph_from_json('{"edges": []}')

    @pytest.mark.parametrize("text", ["[]", "[3, [[0, 1]]]", "3", "null"])
    def test_non_object_rejected(self, text):
        with pytest.raises(ValidationError, match="^graph JSON must be an object$"):
            graph_from_json(text)

    def test_invalid_tessellation_rejected_on_load(self):
        payload = {"nodes": 3, "edges": [[0, 1], [1, 2]], "tessellations": [[[0, 2], [1]]]}
        with pytest.raises(ValidationError, match="not an edge"):
            graph_from_json(json.dumps(payload))

    def test_bad_edge_rejected_on_load(self):
        with pytest.raises(ValidationError):
            graph_from_json('{"nodes": 2, "edges": [[0, 0]]}')

    def test_boolean_values_rejected_on_load(self):
        with pytest.raises(ValidationError):
            graph_from_json('{"nodes": true, "edges": []}')
        with pytest.raises(ValidationError):
            graph_from_json('{"nodes": 2, "edges": [[true, false]]}')

    def test_malformed_tessellation_element_rejected_on_load(self):
        with pytest.raises(ValidationError):
            graph_from_json('{"nodes": 2, "edges": [[0, 1]], "tessellations": [[3]]}')
        with pytest.raises(ValidationError):
            graph_from_json('{"nodes": 2, "edges": [[0, 1]], "tessellations": "all"}')


def per_node_path(n):
    """The path built pair by pair: edges, then each tessellation's sorted elements."""
    edges = [(i, i + 1) for i in range(n - 1)]
    tessellations = []
    for first in (0, 1):
        pairs = [(i, i + 1) for i in range(first, n - 1, 2)]
        matched = {v for pair in pairs for v in pair}
        tessellations.append(tuple(sorted(pairs + [(v,) for v in range(n) if v not in matched])))
    return tuple(edges), tessellations


def per_node_lattice(dims):
    """The lattice built node by node from row-major coordinates: edges, then each tessellation's elements."""
    strides = [1] * len(dims)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    node_count = math.prod(dims)

    def coords_of(index):
        return [(index // strides[axis]) % dims[axis] for axis in range(len(dims))]

    edges = []
    for v in range(node_count):
        coords = coords_of(v)
        for axis in range(len(dims)):
            if coords[axis] + 1 < dims[axis]:
                edges.append((v, v + strides[axis]))
    tessellations = []
    for axis in range(len(dims)):
        for parity in (0, 1):
            pairs = []
            for v in range(node_count):
                coords = coords_of(v)
                if coords[axis] + 1 < dims[axis] and sum(coords) % 2 == parity:
                    pairs.append((v, v + strides[axis]))
            matched = {v for pair in pairs for v in pair}
            tessellations.append(tuple(sorted(pairs + [(v,) for v in range(node_count) if v not in matched])))
    return tuple(sorted(edges)), tessellations


class TestGeneratedTessellationsAreCanonical:
    # the generators' rows are stored as built, unsorted, so they must already be in the canonical order that
    # Tessellation() sorts into; equality compares the pairs arrays row by row

    def test_lattices(self):
        for rank in (1, 2, 3):
            for dims in itertools.product(range(1, 7), repeat=rank):
                _, ts = generate_lattice_tessellations(dims)
                assert all(t == Tessellation(t.elements) for t in ts), dims

    def test_greedy(self):
        rng = random.Random(1107)
        graphs = [random_bipartite(rng, rng.randint(1, 14), rng.randint(1, 14)) for _ in range(300)]
        graphs += [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 7, 9, 21, 999)]
        for _ in range(4):
            left, right = rng.randint(100, 250), rng.randint(100, 250)
            ids = list(range(left + right))
            rng.shuffle(ids)
            edges = {(ids[i], ids[left + rng.randrange(right)]) for i in range(left) for _ in range(3)}
            graphs.append(build_graph(left + right, edges))
        rounds = 0
        for g in graphs:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    ts = greedy_tessellate(g)
            except ValidationError:
                continue
            assert all(t == Tessellation(t.elements) for t in ts), g
            rounds += sum(len(t.pairs) > 1 for t in ts)
        # enough rounds hold more than one row for their order to matter
        assert rounds > 500


class TestGeneratorsMatchPerNodeConstruction:
    # pair and tessellation order fix the bytes of graph and schedule JSON, so equality is exact

    def test_paths(self):
        for n in range(1, 41):
            g, ts = generate_path_tessellations(n)
            edges, elements = per_node_path(n)
            assert g.edges == edges
            assert [t.elements for t in ts] == elements

    def test_lattices(self):
        for rank in (1, 2, 3):
            for dims in itertools.product(range(1, 6), repeat=rank):
                g, ts = generate_lattice_tessellations(dims)
                edges, elements = per_node_lattice(list(dims))
                assert g.edges == edges, dims
                assert [t.elements for t in ts] == elements, dims

    def test_graph_values(self):
        for dims in ([1], [2], [7], [4, 3], [3, 1, 2], [2, 2, 2], [5, 5]):
            g, ts = generate_lattice_tessellations(dims)
            edges, elements = per_node_lattice(dims)
            rebuilt = build_graph(g.node_count, [(j, i) for i, j in reversed(edges)] + list(edges[:2]))
            assert g == rebuilt and hash(g) == hash(rebuilt), dims
            assert not g.edge_array.flags.writeable
            assert all(type(v) is int for edge in g.edges for v in edge)
            payload = {
                "nodes": g.node_count,
                "edges": [list(e) for e in edges],
                "tessellations": [[list(el) for el in t] for t in elements],
            }
            assert graph_to_json(g, ts).encode() == (json.dumps(payload, indent=2) + "\n").encode(), dims


def node_mode(g):
    """True iff Graph._ranks indexes g's nodes by id rather than by rank."""
    endpoints, _ = g._ranks
    return np.array_equal(endpoints, np.arange(endpoints.size))


def shifted(g, shift):
    """g with every node id raised by ``shift``."""
    return build_graph(g.node_count + shift, (g.edge_array + shift).tolist())


def unshifted(outcome, shift):
    """A greedy_outcome of a shifted graph with the ids shifted back and the added singletons dropped."""
    result, caught = outcome
    if isinstance(result, list):
        result = [tuple(tuple(v - shift for v in el) for el in round_ if el[0] >= shift) for round_ in result]
    return result, caught


class TestIndexModes:
    # Graph._ranks indexes nodes by id when the largest endpoint is below 4m, else by rank; every consumer must give
    # the same answers either way

    def test_node_and_rank_mode_agree(self):
        rng = random.Random(4040)
        modes, verdicts = [], set()
        for trial in range(200):
            n = rng.randint(2, 30)
            if trial % 3 == 0:
                g = random_triangle_free(rng, n, p=rng.uniform(0.1, 0.6))
            elif trial % 3 == 1:
                g = random_bipartite(rng, rng.randint(1, n), rng.randint(1, n))
            else:
                # may hold triangles; ids spread over range(2n) leave indices on no edge
                ids = rng.sample(range(2 * n), n)
                p = rng.uniform(0.05, 0.5)
                g = build_graph(2 * n, [(ids[i], ids[j]) for i in range(n) for j in range(i) if rng.random() < p])
            if not g.edges:
                continue
            far = shifted(g, 2**40)
            modes.append(node_mode(g))
            assert not node_mode(far)
            assert is_triangle_free(far) == is_triangle_free(g) == reference_triangle_free(g), g
            verdicts.add(is_triangle_free(g))
            assert far.max_degree() == g.max_degree()
            top = int(g.edge_array.max()) + 1
            rows = {edge: k for k, edge in enumerate(g.edges)}
            queries = [(a, b) for a in range(-2, top + 2) for b in range(a + 1, top + 3)]
            # (a - 1, b + top) has the key a * top + b of edge (a, b) if nodes are not range-checked first
            queries += [(a - 1, b + top) for a, b in g.edges] + [(a, b + top) for a, b in g.edges]
            queries += [(-(2**40), b) for _, b in g.edges]
            expected = [rows.get(q, -1) for q in queries]
            assert g._edge_index(np.array(queries)).tolist() == expected, g
            assert far._edge_index(np.array(queries) + 2**40).tolist() == expected, g
            # greedy_tessellate's tessellations list every singleton, so its copy is shifted by only 4m, which is
            # enough for rank mode
            near = shifted(g, 4 * len(g.edges))
            assert not node_mode(near)
            expected = greedy_outcome(greedy_tessellate, g)
            assert unshifted(greedy_outcome(greedy_tessellate, near), 4 * len(g.edges)) == expected, g
            assert expected == greedy_outcome(reference_greedy, g)
        # most graphs as given are in node mode, and both verdicts are reached
        assert sum(modes) > 0.8 * len(modes) and len(modes) > 150
        assert verdicts == {True, False}


class TestCanonicalPairs:
    # rows sort by one key low * b + high while every node is in [0, _KEY_BOUND), else by np.lexsort

    @staticmethod
    def reference(rows):
        pairs = np.sort(np.asarray(rows, dtype=np.intp).reshape(-1, 2), axis=1)
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

    @pytest.mark.parametrize(
        "top,keyed",
        [
            (1, True),
            (40, True),
            (graph._KEY_BOUND - 1, True),
            (graph._KEY_BOUND, False),
            (graph._KEY_BOUND + 1, False),
            (graph._MAX_INDEX, False),
        ],
    )
    @pytest.mark.parametrize("negative", [False, True])
    def test_matches_lexsort(self, monkeypatch, top, keyed, negative):
        rng = random.Random(top)
        nodes = sorted({0, 1, top - 1, top, top // 2} | {rng.randint(0, top) for _ in range(20)})
        if negative:
            nodes[0] = -3
        rows = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
        rows += rows[:10] + [(j, i) for i, j in rows[10:20]]  # duplicates, in both orientations
        rows.append((top - 1, top))
        expected = self.reference(rows)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        for given in (rows, np.array(rows)):
            got = graph._canonical_pairs(given)
            assert got.dtype == np.intp and got.shape == expected.shape and np.array_equal(got, expected)
        assert bool(calls) is not (keyed and not negative)

    def test_empty(self, monkeypatch):
        monkeypatch.setattr(np, "lexsort", None)  # the empty input takes the key path
        for given in ([], (), np.empty((0, 2), dtype=np.intp)):
            got = graph._canonical_pairs(given)
            assert got.dtype == np.intp and got.shape == (0, 2)
