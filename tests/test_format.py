import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwbench._format import distribution_rows, dumps_17g, fmt17

probabilities = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, allow_subnormal=True)
finite = st.floats(allow_nan=False, allow_infinity=False)


def per_cell_csv(distributions):
    lines = ["step,node,probability"]
    for step, dist in enumerate(distributions):
        for node, p in enumerate(dist):
            lines.append(f"{step},{node},{fmt17(p)}")
    return "\n".join(lines) + "\n"


def distribution_csv(distributions):
    """The file as cli.cmd_walk composes it: each recorded step's rows, in order."""
    rows = distribution_rows(len(distributions[0]))
    return "".join(rows(step, dist) for step, dist in enumerate(distributions))


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
    nodes = draw(st.integers(min_value=1, max_value=5))
    steps = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(probabilities, min_size=nodes, max_size=nodes)
    return [np.array(draw(row), dtype=float) for _ in range(steps)]


class TestDistributionCsv:
    @settings(max_examples=200, deadline=None)
    @given(distribution_lists())
    def test_equals_per_cell_join(self, distributions):
        assert distribution_csv(distributions) == per_cell_csv(distributions)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_unit_distributions(self, seed):
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(1, 6))
        distributions = [rng.dirichlet(np.ones(nodes)) for _ in range(int(rng.integers(1, 5)))]
        assert distribution_csv(distributions) == per_cell_csv(distributions)

    def test_single_node_single_step(self):
        assert distribution_csv([np.array([1.0])]) == "step,node,probability\n0,0,1\n"


class TestDumps17g:
    def test_float_free_payload_matches_json_dumps(self):
        payload = {"n": 14, "steps": 0, "convention": "abstract", "source": 'file:é"x\n', "ok": True, "none": None}
        assert dumps_17g(payload) == json.dumps(payload, indent=2)

    def test_floats_at_17_digits(self):
        payload = {"theta": 0.9, "flux_on": 1.0, "kappa": -1028097731.7831001, "tiny": 5e-324, "n": 3}
        assert dumps_17g(payload) == (
            '{\n  "theta": 0.90000000000000002,\n  "flux_on": 1,\n  "kappa": -1028097731.7831001,\n'
            '  "tiny": 4.9406564584124654e-324,\n  "n": 3\n}'
        )

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), st.none() | st.booleans() | st.integers() | st.text() | finite, min_size=1))
    def test_round_trip(self, payload):
        assert json.loads(dumps_17g(payload)) == payload
