import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwbench._format import _live_span, distribution_rows, dumps_17g, fmt17

probabilities = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, allow_subnormal=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
# +0.0 first, so zero runs fall before, inside and after a step's live window; -0.0 and nan are formatted
cells = st.one_of(st.just(0.0), probabilities, st.just(-0.0), st.just(math.nan))


def per_cell_csv(distributions):
    lines = ["step,node,probability"]
    for step, dist in enumerate(distributions):
        for node, p in enumerate(dist):
            lines.append(f"{step},{node},{fmt17(p)}")
    return "\n".join(lines) + "\n"


def kept(distributions):
    """The kept-step sequence of ``distributions``, as cli.cmd_walk hands it to the write."""
    rows = distribution_rows(len(distributions[0]))
    for dist in distributions:
        rows.keep(dist)
    return rows


def distribution_csv(distributions):
    """The file as cli.cmd_walk writes it: each kept step's text, in order."""
    rows = kept(distributions)
    return "".join(rows[k] for k in range(len(rows)))


class TestPercentTemplateMatchesFmt17:
    @settings(max_examples=500, deadline=None)
    @given(probabilities)
    def test_property(self, x):
        assert "%.17g" % x == fmt17(x)

    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, math.nextafter(1.0, 0.0), 1.0])
    def test_explicit_values(self, x):
        assert "%.17g" % x == fmt17(x)
        assert float(fmt17(x)) == x


@st.composite
def distribution_lists(draw):
    nodes = draw(st.integers(min_value=1, max_value=40))
    steps = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(cells, min_size=nodes, max_size=nodes)
    return [np.array(draw(row), dtype=float) for _ in range(steps)]


class TestDistributionCsv:
    @settings(max_examples=200, deadline=None)
    @given(distribution_lists())
    def test_equals_per_cell_join(self, distributions):
        assert distribution_csv(distributions) == per_cell_csv(distributions)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_unit_distributions(self, seed):
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(1, 41))
        distributions = []
        for _ in range(int(rng.integers(1, 5))):
            # zeros inside a random window, and only zeros outside it; an empty window is an all-zero step
            dist = rng.dirichlet(np.ones(nodes)) * (rng.random(nodes) < 0.7)
            lo, hi = sorted(rng.integers(0, nodes + 1, size=2))
            dist[:lo], dist[hi:] = 0.0, 0.0
            distributions.append(dist)
        assert distribution_csv(distributions) == per_cell_csv(distributions)

    @pytest.mark.parametrize("nodes", [10, 11, 100, 101, 1001])
    def test_window_edges_across_digit_widths(self, nodes):
        # a window from and to each node where the digit count changes; the empty windows are
        # all-zero steps, at step 0 and later
        edges = sorted({e for e in (0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, nodes - 1, nodes) if e <= nodes})
        windows = [(lo, hi) for lo in edges for hi in edges if lo <= hi]
        rng = np.random.default_rng(nodes)
        distributions = []
        for lo, hi in windows:
            dist = np.zeros(nodes)
            dist[lo:hi] = rng.random(hi - lo)
            distributions.append(dist)
        assert windows[0] == (0, 0) and distribution_csv(distributions) == per_cell_csv(distributions)

    @pytest.mark.parametrize("value", [-0.0, math.nan, 5e-324], ids=["minus-zero", "nan", "subnormal"])
    def test_lone_value_in_zeros(self, value):
        # the window is one node wide, at each end and in the middle
        distributions = [np.zeros(40) for _ in range(3)]
        for dist, node in zip(distributions, (0, 39, 20)):
            dist[node] = value
            for part in (complex(value, 0.0), complex(0.0, value)):  # live as a real or an imaginary part
                amplitudes = np.zeros(40, dtype=complex)
                amplitudes[node] = part
                assert _live_span(amplitudes) == (node, node + 1)
            assert _live_span(dist) == (node, node + 1)
        assert distribution_csv(distributions) == per_cell_csv(distributions)

    def test_single_node_single_step(self):
        assert distribution_csv([np.array([1.0])]) == "step,node,probability\n0,0,1\n"

    @pytest.mark.parametrize("nodes", [0, 1, 9, 10, 11, 2001])
    def test_template_equals_per_node_join(self, nodes):
        # every row of a step with no zero comes from the value template, and every row of an all-zero step from
        # the zero body; both must match the template written out one node at a time
        template = "".join(f"\t{node},%.17g\n" for node in range(nodes))
        values = np.arange(1.0, nodes + 1.0)
        rows = kept([np.zeros(nodes), values, np.zeros(nodes)])  # step 0 alone carries the header
        assert _live_span(np.zeros(nodes)) == _live_span(np.zeros(nodes, dtype=complex)) == (nodes, nodes)
        assert _live_span(values) == _live_span(values.astype(complex)) == (0, nodes)
        assert rows[1] == template.replace("\t", "1,") % tuple(values.tolist())
        assert rows[2] == template.replace(",%.17g\n", ",0\n").replace("\t", "2,")


class TestKeptSteps:
    @settings(max_examples=200, deadline=None)
    @given(distribution_lists())
    def test_join_equals_per_cell_join(self, distributions):
        rows = kept(distributions)
        assert len(rows) == len(distributions)
        assert "".join(rows) == per_cell_csv(distributions)

    @pytest.mark.parametrize("nodes", [0, 1, 2, 2001])
    def test_zero_runs_minus_zero_nan_and_all_zero_steps(self, nodes):
        rng = np.random.default_rng(nodes)
        distributions = [np.zeros(nodes)]  # an all-zero step 0, whose text is the header and zero rows only
        for value in (-0.0, math.nan, 0.25):
            dist = rng.random(nodes) * (rng.random(nodes) < 0.5)  # +0.0 runs inside the window too
            dist[nodes // 3 :: 7] = value
            dist[: nodes // 4] = 0.0
            distributions.append(dist)
        distributions.append(np.zeros(nodes))
        rows = kept(distributions)
        assert len(rows) == 5
        assert "".join(rows) == per_cell_csv(distributions)

    def test_nothing_kept_is_an_empty_sequence(self):
        rows = distribution_rows(3)
        assert len(rows) == 0 and list(rows) == [] and len(rows[1:]) == 0

    def test_slices_keep_their_step_numbers(self):
        rng = np.random.default_rng(7)
        distributions = [rng.random(12) for _ in range(5)]
        rows, whole = kept(distributions), per_cell_csv(distributions)
        for k in range(len(distributions) + 1):
            head, tail = "".join(rows[:k]), "".join(rows[k:])
            assert (len(rows[:k]), len(rows[k:])) == (k, len(distributions) - k)
            assert head + tail == whole
            assert ("step,node,probability" in tail) == (k == 0)
            if 0 < k < len(distributions):
                assert tail.startswith(f"{k},0,")
        assert "".join(rows[1::2]) == "".join(rows[k] for k in (1, 3))

    def test_reading_a_step_twice_gives_the_same_text(self):
        rows = kept([np.array([0.0, 0.5, 0.5, 0.0]), np.array([0.25, 0.25, 0.25, 0.25])])
        assert rows[1] == rows[1] == rows[-1] == "1,0,0.25\n1,1,0.25\n1,2,0.25\n1,3,0.25\n"
        assert rows[0] == rows[0] == "step,node,probability\n0,0,0\n0,1,0.5\n0,2,0.5\n0,3,0\n"
        with pytest.raises(IndexError):
            rows[2]

    def test_kept_window_is_a_copy(self):
        dist = np.array([0.0, 0.5, 0.5, 0.0])
        rows = distribution_rows(4)
        rows.keep(dist)
        before = rows[0]
        dist[:] = [0.0, 0.125, 0.875, 0.0]
        assert rows[0] == before == "step,node,probability\n0,0,0\n0,1,0.5\n0,2,0.5\n0,3,0\n"


class TestDumps17g:
    def test_float_free_payload_matches_json_dumps(self):
        payload = {"n": 14, "steps": 0, "convention": "abstract", "source": 'file:é"x\n', "ok": True, "none": None}
        assert dumps_17g(payload) == json.dumps(payload, indent=2)

    def test_floats_at_17_digits(self):
        payload = {"theta": 0.9, "flux_on": 1.0, "kappa": -1028097731.7831001, "tiny": 5e-324, "n": 3}
        assert dumps_17g(payload) == (
            '{\n  "theta": 0.90000000000000002,\n  "flux_on": 1.0,\n  "kappa": -1028097731.7831001,\n'
            '  "tiny": 4.9406564584124654e-324,\n  "n": 3\n}'
        )

    def test_negative_zero_reads_back_as_a_negative_float(self):
        assert dumps_17g({"theta": -0.0, "zero": 0.0}) == '{\n  "theta": -0.0,\n  "zero": 0.0\n}'
        theta = json.loads(dumps_17g({"theta": -0.0}))["theta"]
        assert type(theta) is float and math.copysign(1.0, theta) == -1.0

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), st.none() | st.booleans() | st.integers() | st.text() | finite, min_size=1))
    def test_round_trip(self, payload):
        loaded = json.loads(dumps_17g(payload))
        assert loaded == payload
        assert [type(v) for v in loaded.values()] == [type(v) for v in payload.values()]  # 1.0 is not read as 1
