"""Lost location updates and recovery paging.

The paper's fire-and-forget signaling (no acks, retries or re-pages)
with one :class:`~repro.faults.UpdateLoss` fault: the terminal resets
its center on every transmitted update, the register keeps the stale
one when the message is lost, and recovery paging must still answer
every call, at any loss rate.
"""

import pytest

from repro import CostParams, MobilityParams, ParameterError
from repro.faults import ResilientEngine, SignalingPolicy, UpdateLoss
from repro.geometry import HexTopology, LineTopology
from repro.simulation import SimulationEngine
from repro.strategies import DistanceStrategy, TimerStrategy

MOBILITY = MobilityParams(0.3, 0.03)
COSTS = CostParams(30.0, 2.0)


def make_engine(loss, topology=None, seed=0, d=2, m=2, strategy=None):
    return ResilientEngine(
        topology=topology or LineTopology(),
        strategy=strategy or DistanceStrategy(d, max_delay=m),
        mobility=MOBILITY,
        costs=COSTS,
        faults=[UpdateLoss(loss)],
        signaling=SignalingPolicy.fire_and_forget(),
        seed=seed,
    )


class TestConstruction:
    @pytest.mark.parametrize("loss", [-0.1, 1.001, 1.5])
    def test_invalid_loss_probability(self, loss):
        with pytest.raises(ParameterError):
            make_engine(loss)

    def test_total_loss_is_valid(self):
        # The closed interval [0, 1]: a dead uplink is a legitimate
        # (and the most demanding) failure regime, not a config error.
        assert make_engine(1.0).faults[0].probability == 1.0

    def test_requires_distance_strategy(self):
        with pytest.raises(ParameterError):
            make_engine(0.1, strategy=TimerStrategy(5))


class TestZeroLossEquivalence:
    def test_matches_base_engine_costs(self):
        lossless = make_engine(0.0, seed=3).run(40_000)
        base = SimulationEngine(
            LineTopology(),
            DistanceStrategy(2, max_delay=2),
            MOBILITY,
            COSTS,
            seed=3,
        ).run(40_000)
        # Different RNG draw counts make exact trace equality too
        # strict; statistical agreement is the right check.
        assert lossless.mean_total_cost == pytest.approx(
            base.mean_total_cost, rel=0.05
        )

    def test_no_lost_updates_or_recoveries(self):
        engine = make_engine(0.0, seed=4)
        engine.run(20_000)
        assert engine.lost_updates == 0
        assert engine.recovery_pagings == 0


class TestLossBehavior:
    def test_every_call_is_answered(self):
        # The correctness invariant under any loss rate.
        for loss in (0.2, 0.5, 0.9):
            engine = make_engine(loss, seed=5)
            snapshot = engine.run(30_000)  # SimulationError would surface
            assert snapshot.calls > 0

    def test_loss_counter_tracks_rate(self):
        engine = make_engine(0.5, seed=6)
        snapshot = engine.run(60_000)
        assert engine.lost_updates / snapshot.updates == pytest.approx(0.5, abs=0.05)

    def test_recovery_used_when_views_diverge(self):
        engine = make_engine(0.5, seed=7)
        engine.run(60_000)
        assert engine.recovery_pagings > 0
        assert engine.recovery_cells > 0

    def test_views_resync_after_call(self):
        engine = make_engine(0.7, seed=8)
        for _ in range(30_000):
            updates, calls = engine.meter.updates, engine.meter.calls
            engine.step()
            if engine.meter.calls > calls:
                assert engine.network_center == engine.walk.position
                assert engine.strategy.last_known == engine.walk.position

    def test_cost_degrades_gracefully(self):
        costs = [
            make_engine(loss, seed=9).run(80_000).mean_total_cost
            for loss in (0.0, 0.3, 0.7)
        ]
        # More loss means more recovery paging: higher cost...
        assert costs[0] < costs[2]
        # ...but bounded degradation, not collapse (recovery finds the
        # terminal quickly because it cannot have drifted far).
        assert costs[2] < 4 * costs[0]

    def test_delay_bound_violated_only_by_recoveries(self):
        engine = make_engine(0.5, seed=10)
        snapshot = engine.run(60_000)
        over_bound = sum(
            count
            for cycles, count in snapshot.delay_histogram.items()
            if cycles > 2
        )
        assert over_bound == engine.recovery_pagings

    def test_hex_geometry(self):
        engine = make_engine(0.4, topology=HexTopology(), seed=11, d=2, m=2)
        snapshot = engine.run(30_000)
        assert snapshot.calls > 0
        assert engine.recovery_pagings > 0


class TestTotalLoss:
    def test_every_call_answered_at_total_loss(self):
        # loss = 1.0: no update ever reaches the register, so the
        # residing-area belief is refreshed *only* by located calls --
        # the regime where the every-call-eventually-answered invariant
        # rests entirely on recovery paging.
        engine = make_engine(1.0, seed=12)
        snapshot = engine.run(30_000)  # SimulationError would surface
        assert snapshot.calls > 0
        assert engine.lost_updates == snapshot.updates
        assert engine.recovery_pagings > 0

    def test_views_still_resync_via_calls(self):
        engine = make_engine(1.0, seed=13)
        for _ in range(10_000):
            calls = engine.meter.calls
            engine.step()
            if engine.meter.calls > calls:
                assert engine.network_center == engine.walk.position
