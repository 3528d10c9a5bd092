"""Property: fleet totals are invariant under the shard layout.

The fleet engine's randomness is a stateless hash of each terminal's
*global* index, so for a fixed seeded population every event total
(moves, updates, calls, polled cells) must be **exactly** equal under
any shard count, and with integer-valued costs the cost totals must be
exactly equal too -- not statistically close, bit-for-bit equal as
Python numbers.  This is the contract that makes fleet checkpoints
safe to re-shard-oblivious resume and the conformance oracles sharp.

The shard step classifies events with integer cuts on the top 53 hash
bits instead of float uniforms; the second property pins that the two
comparisons agree for every probability, grid points and their float
neighbours included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostParams
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.simulation.fleet import FleetSpec, run_fleet
from repro.simulation.kernels import uniform_cuts
from repro.workload import DEFAULT_MIX, Population

pytestmark = pytest.mark.slow

SHARD_COUNTS = (1, 2, 7, 16)
TOPOLOGIES = (HexTopology(), LineTopology(), SquareTopology())

POPULATION = Population(DEFAULT_MIX)


@settings(max_examples=15, deadline=None)
@given(
    population_seed=st.integers(min_value=0, max_value=2**31 - 1),
    event_seed=st.integers(min_value=0, max_value=2**31 - 1),
    terminals=st.integers(min_value=16, max_value=70),
    slots=st.integers(min_value=1, max_value=40),
    update_cost=st.integers(min_value=1, max_value=200),
    poll_cost=st.integers(min_value=1, max_value=20),
    topology_index=st.integers(min_value=0, max_value=len(TOPOLOGIES) - 1),
    event_mode=st.sampled_from(["exclusive", "independent"]),
)
def test_fleet_totals_invariant_under_shard_count(
    population_seed,
    event_seed,
    terminals,
    slots,
    update_cost,
    poll_cost,
    topology_index,
    event_mode,
):
    spec = FleetSpec.from_population(
        POPULATION,
        terminals,
        CostParams(update_cost=float(update_cost), poll_cost=float(poll_cost)),
        2,
        seed=population_seed,
        topology=TOPOLOGIES[topology_index],
        d_max=6,
    )
    results = [
        run_fleet(
            spec,
            slots=slots,
            shards=shards,
            seed=event_seed,
            event_mode=event_mode,
        )
        for shards in SHARD_COUNTS
    ]
    base = results[0]
    for shards, result in zip(SHARD_COUNTS[1:], results[1:]):
        context = f"shards={shards}"
        assert result.moves == base.moves, context
        assert result.updates == base.updates, context
        assert result.calls == base.calls, context
        assert result.polled_cells == base.polled_cells, context
        assert result.delay_histogram == base.delay_histogram, context
        # Costs are integer-valued by construction, so float summation
        # order cannot introduce rounding: demand exact equality.
        assert result.update_cost == base.update_cost, context
        assert result.paging_cost == base.paging_cost, context
        assert result.mean_paging_delay == pytest.approx(
            base.mean_paging_delay
        ), context


#: Probabilities in [0, 1]: any float, the uniform grid j * 2**-53, and
#: the grid points' nearest float neighbours.
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**53)
    .map(lambda j: j * 2.0**-53)
    .flatmap(
        lambda p: st.sampled_from(
            [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]
        )
    )
    .filter(lambda p: 0.0 <= p <= 1.0),
)


@settings(max_examples=500, deadline=None)
@given(k=st.integers(min_value=0, max_value=2**53 - 1), p=PROBABILITIES)
def test_integer_cut_matches_the_float_uniform(k, p):
    cut = int(uniform_cuts(np.array([p]))[0])
    assert 0 <= cut <= 2**53
    # k itself and the top-53-bit values on either side of the cut.
    edges = {bits for bits in (cut - 1, cut, cut + 1) if 0 <= bits < 2**53}
    for bits in edges | {k}:
        assert (bits < cut) == (bits * 2.0**-53 < p), (bits, cut)
