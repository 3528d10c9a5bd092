"""Property: the vectorized engine's block step equals the per-slot step.

The block step packs each terminal's center-relative cell into one
int32 code in base ``2d + 3`` and folds ring ``d + 1`` back to the
origin through a table of ``(2d + 3)**dims`` entries, so the packing
depends on the threshold and the lattice.  The block-identity suite
(``tests/simulation/test_vectorized_blocks.py``) pins ``d = 2``; this
property draws the threshold, lattice, event mode, walk, batch width
and run schedule, and asserts after every ``run()`` that the full
engine state equals :class:`PerSlotReference` stepped over the same
slots.  Fixed cases pin ``d = 0``, where every move updates, and
``d = 40``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import CostParams, MobilityParams
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.mobility import CTRWSpec, GeometricResidence, mobility_preset
from repro.mobility.ctrw import MOBILITY_PRESETS
from repro.simulation.vectorized import VectorizedDistanceEngine

from ..simulation.per_slot_reference import PerSlotReference

TOPOLOGIES = {"line": LineTopology(), "hex": HexTopology(), "square": SquareTopology()}
#: The uniform walk, every CTRW preset, and persistence with drift.
WALKS = MOBILITY_PRESETS + ("persistent",)
#: Costs that are not integers, so the float cost sums depend on the
#: order they are added in.
COSTS = CostParams(update_cost=50.3, poll_cost=10.7)


def walk(name, q):
    if name == "persistent":
        return CTRWSpec(GeometricResidence(q), drift=0.1, persistence=0.6)
    return mobility_preset(name, q)


def build(topology, threshold, walk_name, q=0.3, c=0.05, **kwargs):
    return VectorizedDistanceEngine(
        TOPOLOGIES[topology],
        threshold=threshold,
        mobility=MobilityParams(move_probability=q, call_probability=c),
        costs=COSTS,
        walk=walk(walk_name, q),
        record_ring_hits=True,
        **kwargs,
    )


def run_lockstep(engine, schedule, reset_after):
    """Run the engine and a per-slot reference side by side, resetting
    both meters after run ``reset_after``; compare after every run."""
    reference = PerSlotReference(engine)
    for index, slots in enumerate(schedule):
        engine.run(slots)
        reference.run(slots)
        assert reference.mismatches() == [], f"after run {index} ({slots} slots)"
        if index == reset_after:
            engine.reset_meters()
            reference.reset_meters()


@settings(max_examples=60, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    threshold=st.integers(min_value=0, max_value=8),
    event_mode=st.sampled_from(["exclusive", "independent"]),
    walk_name=st.sampled_from(WALKS),
    terminals=st.integers(min_value=1, max_value=300),
    q=st.floats(min_value=0.02, max_value=0.7),
    c=st.floats(min_value=0.005, max_value=0.25),
    max_delay=st.sampled_from([1, 2, 3, math.inf]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    schedule=st.lists(st.integers(min_value=0, max_value=130), min_size=1, max_size=5),
    reset_at=st.integers(min_value=0, max_value=4),
)
def test_block_step_equals_per_slot_step(
    topology, threshold, event_mode, walk_name, terminals, q, c, max_delay, seed,
    schedule, reset_at,
):
    engine = build(
        topology, threshold, walk_name, q=q, c=c, event_mode=event_mode,
        terminals=terminals, max_delay=max_delay, seed=seed,
    )
    run_lockstep(engine, schedule, reset_after=reset_at % len(schedule))


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("walk_name", ["uniform", "ctrw-hyper"])
def test_zero_threshold_updates_on_every_move(topology, walk_name):
    engine = build(topology, 0, walk_name, terminals=97, seed=3)
    run_lockstep(engine, (0, 1, 63, 64, 65, 130, 3), reset_after=2)
    assert engine._moves.sum() > 0
    np.testing.assert_array_equal(engine._updates, engine._moves)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("walk_name", ["uniform", "ctrw-drift"])
def test_deep_threshold(topology, walk_name):
    # Rare calls let the drifted walk run past ring 40 between pages.
    engine = build(topology, 40, walk_name, q=0.5, c=0.002, terminals=64, seed=8)
    run_lockstep(engine, (100, 250, 300), reset_after=0)
    assert engine._moves.sum() > 0
    if walk_name == "ctrw-drift":
        assert engine._updates.sum() > 0
