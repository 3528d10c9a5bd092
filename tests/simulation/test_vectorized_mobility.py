"""Vectorized-engine CTRW path: validation, meters, ring-hit recording."""

from functools import partial

import numpy as np
import pytest

from repro import ParameterError
from repro.conformance import replicated_agreement
from repro.core.parameters import CostParams, MobilityParams
from repro.geometry import HexTopology
from repro.mobility import CTRWSpec, GeometricResidence, mobility_preset
from repro.simulation import run_replicated
from repro.simulation.vectorized import VectorizedDistanceEngine
from repro.strategies import DistanceStrategy

MOBILITY = MobilityParams(move_probability=0.2, call_probability=0.05)
COSTS = CostParams(update_cost=50.0, poll_cost=10.0)


def engine(**kwargs):
    defaults = dict(
        topology=HexTopology(),
        threshold=2,
        mobility=MOBILITY,
        costs=COSTS,
        terminals=64,
        max_delay=2,
        seed=3,
    )
    defaults.update(kwargs)
    return VectorizedDistanceEngine(**defaults)


class TestConstruction:
    def test_walk_must_be_spec(self):
        with pytest.raises(ParameterError):
            engine(walk=GeometricResidence(0.2))

    def test_uniform_walk_unaffected(self):
        e = engine()
        result = e.run(500)
        assert result.mean_total_cost > 0


class TestCTRWMeters:
    def test_move_rate_tracks_effective_probability(self):
        spec = mobility_preset("ctrw-fixed", 0.25)
        e = engine(walk=spec, terminals=128)
        result = e.run(4000)
        moves = sum(s.moves for s in result.snapshots)
        slots = 4000 * 128
        assert moves / slots == pytest.approx(
            spec.effective_move_probability(), rel=0.05
        )

    def test_drift_increases_update_rate(self):
        # Ballistic motion crosses the threshold faster than diffusive
        # motion at the same residence rate: strictly more updates.
        base = CTRWSpec(residence=GeometricResidence(0.3))
        drifted = CTRWSpec(residence=GeometricResidence(0.3), drift=0.8)
        a = engine(walk=base, terminals=128, seed=5).run(3000)
        b = engine(walk=drifted, terminals=128, seed=5).run(3000)
        assert b.mean_update_cost > a.mean_update_cost

    def test_reset_meters_preserves_state(self):
        spec = mobility_preset("ctrw-hyper", 0.2)
        e = engine(walk=spec)
        e.run(500)
        e.reset_meters()
        result = e.run(500)
        assert result.snapshots[0].slots == 500


class TestPersistence:
    SPEC = CTRWSpec(GeometricResidence(0.2), persistence=0.6)

    def test_array_engine_agrees_with_per_cell_engine(self):
        # The persistence branch of drifted_directions reads each
        # mover's last direction; the per-cell PersistentWalk is the
        # independent implementation of the same law.
        per_cell = run_replicated(
            topology=HexTopology(),
            strategy_factory=partial(DistanceStrategy, 2, max_delay=2),
            mobility=MOBILITY,
            costs=COSTS,
            slots=4000,
            replications=6,
            seed=3,
            walker_factory=self.SPEC.walker_factory(),
        )
        vectorized = engine(walk=self.SPEC, terminals=192, seed=4).run(4000)
        # The criterion of the ctrw-engine-vs-vectorized oracle.
        assert replicated_agreement(per_cell, vectorized).value <= 1.0

    def test_persistence_raises_update_rate(self):
        # Repeating directions makes motion ballistic, so a persistent
        # walk leaves the residing area more often than a memoryless one.
        memoryless = CTRWSpec(GeometricResidence(0.2))
        a = engine(walk=memoryless, terminals=128, seed=5).run(3000)
        b = engine(walk=self.SPEC, terminals=128, seed=5).run(3000)
        assert b.mean_update_cost > 1.1 * a.mean_update_cost


class TestRingHitRecording:
    def test_distribution_is_normalized(self):
        e = engine(record_ring_hits=True, walk=mobility_preset("ctrw-drift", 0.3))
        e.run(2000)
        dist = e.ring_hit_distribution()
        assert len(dist) == 3  # rings 0..threshold
        assert np.isclose(sum(dist), 1.0)
        assert all(p >= 0 for p in dist)

    def test_requires_recording_enabled(self):
        e = engine()
        e.run(100)
        with pytest.raises(Exception):
            e.ring_hit_distribution()

    def test_low_mobility_concentrates_at_center(self):
        spec = CTRWSpec(residence=GeometricResidence(0.05))
        e = engine(
            walk=spec,
            record_ring_hits=True,
            mobility=MobilityParams(move_probability=0.05, call_probability=0.1),
            terminals=128,
        )
        e.run(3000)
        dist = e.ring_hit_distribution()
        assert dist[0] > 0.5
