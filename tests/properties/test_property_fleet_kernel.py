"""Property: the fleet shard's block step equals the boolean-mask step.

A :class:`FleetShardEngine` packs each terminal's threshold row and
center-relative cell into one int32 code, with the cell in base
``2D + 3`` for the largest plan row ``D``, so the packing depends on
the mix of thresholds as well as on the lattice.
``tests/simulation/test_fleet_kernel.py`` pins a few fixed mixes; this
property draws up to eight distinct plan rows from 0-12 (some of which
no terminal may use), per-terminal mobilities and costs, the lattice,
the event mode, the delay bound and a run schedule with a meter reset,
and asserts after every ``run()`` that the snapshot dict and the
decoded positions equal those of :class:`FleetReference` on the same
columns.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.simulation.fleet import FleetShardEngine

from ..simulation.fleet_reference import FleetReference

TOPOLOGIES = {"line": LineTopology(), "hex": HexTopology(), "square": SquareTopology()}


@st.composite
def shard_columns(draw):
    count = draw(st.integers(min_value=1, max_value=300))
    distinct = draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8,
                 unique=True)
    )
    rows = st.integers(min_value=0, max_value=len(distinct) - 1)
    unit = st.floats(min_value=0.0, max_value=1.0)
    n_profiles = draw(st.integers(min_value=1, max_value=3))

    def column(elements):
        return draw(st.lists(elements, min_size=count, max_size=count))

    q = np.array(column(st.floats(min_value=0.01, max_value=0.9)))
    # c in [0, 1 - q]: some terminals never call, some always have an event.
    c = np.array(column(unit)) * (1.0 - q)
    return dict(
        topology=TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))],
        q=q,
        c=c,
        update_cost=np.array(column(st.floats(min_value=0.0, max_value=100.0))),
        poll_cost=np.array(column(st.floats(min_value=0.0, max_value=10.0))),
        threshold=np.array(distinct, dtype=np.int64)[column(rows)],
        profile_index=np.array(
            column(st.integers(min_value=0, max_value=n_profiles - 1)),
            dtype=np.int32,
        ),
        n_profiles=n_profiles,
        max_delay=draw(st.sampled_from([1, 2, 3, math.inf])),
        plan_rows=tuple(sorted(distinct)),
    )


@settings(max_examples=80, deadline=None)
@given(
    columns=shard_columns(),
    event_mode=st.sampled_from(["exclusive", "independent"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    global_offset=st.integers(min_value=0, max_value=10**6),
    schedule=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5),
    reset_at=st.integers(min_value=0, max_value=4),
)
def test_packed_step_equals_reference_step(
    columns, event_mode, seed, global_offset, schedule, reset_at
):
    kwargs = dict(
        columns, event_mode=event_mode, seed=seed, global_offset=global_offset
    )
    engine = FleetShardEngine(**kwargs)
    reference = FleetReference(**kwargs)
    reset_after = reset_at % len(schedule)
    for index, slots in enumerate(schedule):
        engine.run(slots)
        reference.run(slots)
        context = f"after run {index} ({slots} slots)"
        assert engine.snapshot(index).to_dict() == reference.snapshot(index).to_dict(), context
        np.testing.assert_array_equal(engine._pos.T, reference._pos, err_msg=context)
        if index == reset_after:
            engine.reset_meters()
            reference.reset_meters()
