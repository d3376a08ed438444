import itertools
import json
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwbench.errors import ValidationError
from sqwbench.graph import (
    Tessellation,
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


class TestTriangleFree:
    def test_path_is_triangle_free(self):
        assert is_triangle_free(path_graph(5))

    def test_triangle_is_not(self):
        assert not is_triangle_free(build_graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_four_cycle_is_triangle_free(self):
        g, _ = generate_lattice_tessellations([2, 2])
        assert is_triangle_free(g)


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

    def test_stable_under_element_reordering(self):
        g = path_graph(9)
        elements = [(0, 1), (2, 3), (4, 5), (6, 7), (8,)]
        rng = random.Random(3)
        for _ in range(20):
            rng.shuffle(elements)
            assert validate_tessellation(g, Tessellation(tuple(elements))) == []

    def test_oversized_element_rejected_on_construction(self):
        with pytest.raises(ValidationError):
            Tessellation(((0, 1, 2),))


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
        rng = random.Random(20240814)
        for trial in range(60):
            n = rng.randint(2, 24)
            g = random_tree(rng, n) if trial % 2 else random_triangle_free(rng, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ts = greedy_tessellate(g)
            assert validate_tessellation_set(g, ts) == []
            assert len(ts) <= g.max_degree() + 1
            covered = {tuple(p) for t in ts for p in t.pairs.tolist()}
            assert covered == set(g.edges)


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
