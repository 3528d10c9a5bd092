"""Plan pricing and the paging DP return exactly what their references do.

:class:`~repro.paging.PagingPlan` sums each subarea's ring probabilities
by one gather (single-ring groups) or a slice (consecutive rings), and
the paging DP runs on Python floats.  These properties pin both to the
plain versions kept in :mod:`tests.paging.pricing_reference`, bit for
bit: every ``alpha_j``, ``w_j``, expected cell count and expected delay,
and every DP plan.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.paging import PagingPlan, optimal_contiguous_partition

from . import pricing_reference as reference

TOPOLOGIES = (LineTopology(), HexTopology(), SquareTopology())
#: Group lengths from every size class the pricing treats differently:
#: one ring, short sums, pairwise blocks and sums past NumPy's 128-term
#: unrolled block.
GROUP_LENGTHS = st.one_of(
    st.just(1),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=8, max_value=127),
    st.integers(min_value=128, max_value=300),
)
#: How a drawn plan lists its rings: 0..d in order, consecutive groups in
#: a shuffled order, or every ring shuffled.
ORDERS = ("in-order", "shuffled-groups", "shuffled-rings")


@st.composite
def plans(draw):
    lengths, total = [], 0
    for length in draw(st.lists(GROUP_LENGTHS, min_size=1, max_size=24)):
        length = min(length, 301 - total)  # d <= 300
        if not length:
            break
        lengths.append(length)
        total += length
    rings = list(range(total))
    order = draw(st.sampled_from(ORDERS))
    if order == "shuffled-rings":
        rings = draw(st.permutations(rings))
    groups, start = [], 0
    for length in lengths:
        groups.append(tuple(rings[start : start + length]))
        start += length
    if order == "shuffled-groups":
        groups = draw(st.permutations(groups))
    return PagingPlan(threshold=total - 1, subareas=tuple(groups))


@st.composite
def ring_rows(draw, size):
    """Non-negative ring masses over 24 decades, some exactly zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from((0.0, 0.3, 0.9)))
    row = rng.random(size) * 10.0 ** rng.uniform(-24.0, 0.0, size)
    row[rng.random(size) < zeros] = 0.0
    return row / row.sum() if row.sum() > 0 else row


def same_bits(fast, slow):
    return np.asarray(fast, dtype=float).tobytes() == np.asarray(
        slow, dtype=float
    ).tobytes()


class TestPlanPricing:
    @given(data=st.data(), plan=plans(), topology=st.sampled_from(TOPOLOGIES))
    @settings(max_examples=300, deadline=None)
    def test_every_price_equals_the_list_indexed_sums(self, data, plan, topology):
        p = data.draw(ring_rows(plan.threshold + 1), label="p")
        assert same_bits(
            plan.subarea_probabilities(p), reference.subarea_probabilities(plan, p)
        )
        assert same_bits(
            plan.cumulative_polled(topology),
            reference.cumulative_polled(plan, topology),
        )
        assert same_bits(
            plan.expected_polled_cells(topology, p),
            reference.expected_polled_cells(plan, topology, p),
        )
        assert same_bits(plan.expected_delay(p), reference.expected_delay(plan, p))

    @given(plan=plans())
    @settings(max_examples=100, deadline=None)
    def test_contiguous_means_rings_listed_in_order(self, plan):
        rings = [ring for group in plan.subareas for ring in group]
        assert plan.contiguous == (rings == list(range(plan.threshold + 1)))


@st.composite
def dp_rows(draw):
    """A DP instance with planted ties: zero-mass rings and runs of
    equal ring sizes."""
    d = draw(st.integers(min_value=0, max_value=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random(d + 1)
    p[rng.random(d + 1) < draw(st.sampled_from((0.0, 0.4, 0.8)))] = 0.0
    if not p.sum() > 0:
        p[rng.integers(d + 1)] = 1.0
    sizes = draw(
        st.sampled_from(
            (
                np.ones(d + 1),
                np.full(d + 1, 6.0),
                rng.integers(1, 4, d + 1).astype(float),
                np.diff(HexTopology().coverage_curve(d), prepend=0.0),
            )
        )
    )
    m = draw(st.sampled_from(("1", "2", "3", "d", "d+1", "inf")))
    m = {"1": 1, "2": 2, "3": 3, "d": max(d, 1), "d+1": d + 1, "inf": math.inf}[m]
    return d, m, p / p.sum(), sizes


class TestPagingDP:
    @given(row=dp_rows())
    @settings(max_examples=300, deadline=None)
    def test_plan_equals_the_numpy_scalar_dp(self, row):
        d, m, p, sizes = row
        assert optimal_contiguous_partition(
            d, m, p, sizes
        ) == reference.optimal_contiguous_partition(d, m, p, sizes)
