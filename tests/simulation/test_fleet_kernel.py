"""The index-list fleet step is bit-identical to the boolean-mask step.

A :class:`FleetShardEngine` and a :class:`FleetReference` built on the
same columns must report equal ``snapshot().to_dict()`` -- event
totals, float cost sums, per-profile costs and delay histogram -- and
hold the same center-relative positions after every ``run()``.
"""

import math

import numpy as np
import pytest

from repro.core.parameters import CostParams, MobilityParams
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.geometry.hex import AXIAL_DIRECTIONS
from repro.simulation.fleet import FleetShardEngine, FleetSpec
from repro.simulation.kernels import (
    _MIX_A,
    _MIX_B,
    _S27,
    _S30,
    _S31,
    STREAM_DIRECTION,
    mix64,
    slot_key,
)
from repro.workload import DEFAULT_MIX, Population

from .fleet_reference import FleetReference

TOPOLOGIES = {"line": LineTopology, "hex": HexTopology, "square": SquareTopology}
MODES = ("exclusive", "independent")
#: Costs that are not integers, so the float cost sums depend on the
#: order they are added in.
COSTS = CostParams(update_cost=13.7, poll_cost=0.31)
#: Run lengths: empty, one slot and several; meters reset after run 2.
SCHEDULE = (0, 1, 7, 0, 7, 1)
RESET_AFTER = 2


def spec_columns(spec):
    return dict(
        topology=spec.topology,
        q=spec.q,
        c=spec.c,
        update_cost=spec.update_cost,
        poll_cost=spec.poll_cost,
        threshold=spec.threshold,
        profile_index=spec.profile_index,
        n_profiles=len(spec.profile_names),
        max_delay=spec.max_delay,
    )


def axial_positions(engine):
    """The engine's ``(dims, K)`` positions as the reference's ``(K, dims)``
    native coordinates: hex cells drop the cube form's third coordinate."""
    pos = engine._pos
    if isinstance(engine.topology, HexTopology):
        assert (pos.sum(axis=0) == 0).all(), "hex positions left cube form"
        pos = pos[:2]
    return pos.T


def assert_identical(columns, event_mode, seed=5, global_offset=1_000):
    kwargs = dict(
        columns, event_mode=event_mode, seed=seed, global_offset=global_offset
    )
    engine = FleetShardEngine(**kwargs)
    reference = FleetReference(**kwargs)
    for index, slots in enumerate(SCHEDULE):
        engine.run(slots)
        reference.run(slots)
        context = f"after run {index} ({slots} slots)"
        expected = reference.snapshot(index).to_dict()
        assert engine.snapshot(index).to_dict() == expected, context
        np.testing.assert_array_equal(
            axial_positions(engine), reference._pos, err_msg=context
        )
        if index == RESET_AFTER:
            engine.reset_meters()
            reference.reset_meters()
    return engine.snapshot()


@pytest.mark.parametrize("max_delay", [1, 2, math.inf], ids=["m1", "m2", "minf"])
@pytest.mark.parametrize("event_mode", MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_default_mix(topology, event_mode, max_delay):
    spec = FleetSpec.from_population(
        Population(DEFAULT_MIX), 2_000, COSTS, max_delay, seed=3,
        topology=TOPOLOGIES[topology](), d_max=8,
    )
    snapshot = assert_identical(spec_columns(spec), event_mode)
    assert snapshot.moves > 0 and snapshot.calls > 0


@pytest.mark.parametrize("event_mode", MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_high_mobility_updates_often(topology, event_mode):
    # The default mix barely updates; this spec crosses its threshold
    # on a sizeable share of moves, so the update path is exercised.
    spec = FleetSpec.homogeneous(
        TOPOLOGIES[topology](), 2, MobilityParams(0.6, 0.1), COSTS, 2, 1_500
    )
    snapshot = assert_identical(spec_columns(spec), event_mode)
    assert snapshot.updates > 100


@pytest.mark.parametrize("event_mode", MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_edge_terminals(topology, event_mode):
    # Thresholds of 0, terminals that never call, and terminals whose
    # q + c is exactly 1, interleaved across three profiles.
    count = 1_200
    rows = np.arange(count)
    q = np.choose(rows % 4, [0.2, 0.75, 0.05, 0.5])
    c = np.choose(rows % 4, [0.0, 0.25, 0.1, 0.5])
    spec = FleetSpec(
        topology=TOPOLOGIES[topology](),
        q=q,
        c=c,
        update_cost=np.where(rows % 3 == 0, 13.7, 2.9),
        poll_cost=np.where(rows % 5 == 0, 0.31, 1.7),
        threshold=(rows % 3 * 2).astype(np.int64),
        profile_index=(rows % 3).astype(np.int32),
        profile_names=("a", "b", "c"),
        max_delay=2,
        population_seed=0,
    )
    assert_identical(spec_columns(spec), event_mode)


@pytest.mark.parametrize("event_mode", MODES)
def test_out_of_range_probabilities_cut_like_float_comparisons(event_mode):
    # A directly built engine skips FleetSpec's checks: a negative call
    # probability pages nobody, q + c > 1 always draws an event, and a
    # NaN probability draws nothing, exactly as u < p does.
    count = 400
    rows = np.arange(count)
    columns = dict(
        topology=HexTopology(),
        q=np.choose(rows % 4, [0.3, 1.5, math.nan, -0.2]),
        c=np.choose(rows % 4, [-0.5, 0.2, 0.1, math.nan]),
        update_cost=np.full(count, 13.7),
        poll_cost=np.full(count, 0.31),
        threshold=np.full(count, 2, dtype=np.int64),
        profile_index=np.zeros(count, dtype=np.int32),
        n_profiles=1,
        max_delay=2,
    )
    assert_identical(columns, event_mode)
    only_negative_c = dict(columns, c=np.full(count, -0.5), q=np.full(count, 0.3))
    assert assert_identical(only_negative_c, event_mode).calls == 0


def unmix64(h: int) -> int:
    """Inverse of :func:`mix64`: each xorshift and odd multiply of a
    64-bit word is a bijection."""

    def unshift(y: int, shift: int) -> int:
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    x = unshift(h, int(_S31))
    x = x * pow(int(_MIX_B), -1, 2**64) % 2**64
    x = unshift(x, int(_S27))
    x = x * pow(int(_MIX_A), -1, 2**64) % 2**64
    return unshift(x, int(_S30))


def test_direction_keeps_the_float_draw_at_a_rounding_boundary():
    # For k = (2**54 - 1) // 3 the float draw int(k * 2**-53 * 6) rounds
    # up to direction 4, while the integer shortcut (k * 6) >> 53 gives
    # 3.  Plant k as terminal 0's direction bits in slot 0; with q = 1
    # every terminal moves every slot.
    k = (2**54 - 1) // 3
    assert int(mix64(np.array([unmix64(k << 11)], dtype=np.uint64))[0]) >> 11 == k
    seed = 5
    count = 2
    columns = dict(
        topology=HexTopology(),
        q=np.full(count, 1.0),
        c=np.full(count, 0.0),
        update_cost=np.full(count, 13.7),
        poll_cost=np.full(count, 0.31),
        threshold=np.full(count, 3, dtype=np.int64),
        profile_index=np.zeros(count, dtype=np.int32),
        n_profiles=1,
        max_delay=2,
    )
    engine = FleetShardEngine(**columns, seed=seed)
    reference = FleetReference(**columns, seed=seed)
    key = unmix64(k << 11) ^ int(slot_key(seed, STREAM_DIRECTION, 0))
    engine._idx_keys[0] = reference._idx_keys[0] = key
    engine.run(1)
    reference.run(1)
    assert tuple(reference._pos[0]) == AXIAL_DIRECTIONS[4]
    np.testing.assert_array_equal(axial_positions(engine), reference._pos)
