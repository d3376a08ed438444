import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwbench._format import distribution_csv, fmt17

probabilities = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, allow_subnormal=True)


def per_cell_csv(distributions):
    lines = ["step,node,probability"]
    for step, dist in enumerate(distributions):
        for node, p in enumerate(dist):
            lines.append(f"{step},{node},{fmt17(p)}")
    return "\n".join(lines) + "\n"


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
