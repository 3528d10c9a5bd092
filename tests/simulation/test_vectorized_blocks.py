"""Block stepping is bit-identical to the per-slot step.

After every ``run()`` the block-stepped engine's full state -- positions,
per-terminal counters, cost and squared-cost sums, delay counts, ring
hits, residence clocks, last directions and the slot clock -- must equal
that of :class:`PerSlotReference` driven over the same slots.
"""

import numpy as np
import pytest

from repro.core.parameters import CostParams, MobilityParams
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.mobility import (
    CTRWSpec, DeterministicResidence, GeometricResidence, mobility_preset,
)
from repro.simulation.kernels import slot_key, slot_keys
from repro.simulation.vectorized import VectorizedDistanceEngine, _block_length

from .per_slot_reference import PerSlotReference

MOBILITY = MobilityParams(move_probability=0.3, call_probability=0.05)
#: Costs that are not integers, so the float cost sums depend on the
#: order they are added in.
COSTS = CostParams(update_cost=50.3, poll_cost=10.7)
TOPOLOGIES = {"line": LineTopology, "hex": HexTopology, "square": SquareTopology}
CTRW_PRESETS = ("ctrw-exp", "ctrw-fixed", "ctrw-hyper", "ctrw-pareto", "ctrw-drift")
#: Run lengths for a 64-slot block: empty, inside, up to, across and
#: over several block boundaries; meters reset after the third run.
SCHEDULE = (0, 1, 63, 64, 65, 130, 3)
RESET_AFTER = 2


def walk(name):
    if name == "persistent":
        return CTRWSpec(GeometricResidence(0.4), drift=0.1, persistence=0.6)
    if name == "period-1":
        # Moves every slot: a block holds chains of up to 64 moves per
        # terminal, most of them persistent repeats.
        return CTRWSpec(DeterministicResidence(1), drift=0.1, persistence=0.8)
    return None if name == "uniform" else mobility_preset(name, 0.3)


def build(topology="hex", terminals=97, walk_name="uniform", **kwargs):
    defaults = dict(
        topology=TOPOLOGIES[topology](),
        threshold=2,
        mobility=MOBILITY,
        costs=COSTS,
        max_delay=2,
        terminals=terminals,
        seed=29,
        walk=walk(walk_name),
        record_ring_hits=True,
    )
    defaults.update(kwargs)
    return VectorizedDistanceEngine(**defaults)


def assert_identical(engine, schedule=SCHEDULE, reset_after=RESET_AFTER):
    reference = PerSlotReference(engine)
    for index, slots in enumerate(schedule):
        engine.run(slots)
        reference.run(slots)
        assert reference.mismatches() == [], f"after run {index} ({slots} slots)"
        if index == reset_after:
            engine.reset_meters()
            reference.reset_meters()
    # The moves were really exercised, not vacuously equal.
    assert engine._moves.sum() > 0 and engine._calls.sum() > 0


class TestBlockLength:
    @pytest.mark.parametrize(
        "terminals,width",
        [(1, 64), (97, 64), (1024, 64), (1025, 63), (2000, 32), (8192, 8),
         (8193, 1), (32768, 1), (40000, 1), (10**6, 1)],
    )
    def test_rule(self, terminals, width):
        assert _block_length(terminals) == width

    def test_slot_keys_match_scalar_keys(self):
        for seed in (0, 29, -5, 2**45):
            keys = slot_keys(seed, range(5), 17, 70)
            assert keys.tolist() == [
                [int(slot_key(seed, stream, slot)) for slot in range(17, 87)]
                for stream in range(5)
            ]


class TestUniformWalk:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("event_mode", ["exclusive", "independent"])
    def test_identical_to_per_slot(self, topology, event_mode):
        assert_identical(build(topology, event_mode=event_mode))

    @pytest.mark.parametrize("threshold,max_delay", [(0, 1), (1, 2), (4, 3)])
    def test_thresholds(self, threshold, max_delay):
        engine = build(
            "square", threshold=threshold, max_delay=max_delay, event_mode="independent"
        )
        assert_identical(engine)


class TestCTRW:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("walk_name", CTRW_PRESETS + ("persistent", "period-1"))
    def test_identical_to_per_slot(self, topology, walk_name):
        assert_identical(build(topology, walk_name=walk_name))


class TestBlockWidths:
    @pytest.mark.parametrize("walk_name", ["uniform", "ctrw-hyper", "persistent"])
    def test_half_block(self, walk_name):
        # K = 2000 steps 32-slot blocks.
        assert_identical(
            build(terminals=2000, walk_name=walk_name), schedule=(0, 5, 32, 40)
        )

    @pytest.mark.parametrize(
        "walk_name",
        ["uniform", "ctrw-exp", "ctrw-fixed", "ctrw-hyper", "ctrw-pareto", "persistent"],
    )
    def test_one_slot_blocks(self, walk_name):
        # K = 40000 steps one slot at a time: a CTRW's grid rows are that
        # slot's movers, one expiry each.
        for event_mode in ("independent", "exclusive"):
            assert_identical(
                build(terminals=40000, walk_name=walk_name, event_mode=event_mode),
                schedule=(0, 1, 2, 3),
                reset_after=1,
            )


def test_snapshots_match_per_terminal_meters():
    engine = build(walk_name="ctrw-hyper")
    engine.run(150)
    snapshots = engine.snapshots()
    for k in (0, 41, 96):
        snapshot = snapshots[k]
        calls = int(engine._calls[k])
        assert snapshot.calls == calls
        assert snapshot.mean_total_cost == engine._cost_sum[k] / 150
        histogram = {c + 1: int(n) for c, n in enumerate(engine._delay_counts[k]) if n}
        assert snapshot.delay_histogram == histogram
        delay = sum(c * n for c, n in histogram.items()) / calls if calls else 0.0
        assert snapshot.mean_paging_delay == delay
    assert np.isinf(build().snapshots()[0].total_cost_half_width_95)
