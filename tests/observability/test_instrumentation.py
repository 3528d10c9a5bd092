"""Instrumentation contract tests.

Two guarantees pinned here:

1. **Bit-identity** -- enabling observability (a live session or the
   armed no-op session) cannot change a single simulated number, for
   every engine and for serial vs pooled replication.
2. **Exact accounting** -- exported counters equal the engines' own
   meters exactly (not approximately), including the float cost totals,
   which are accumulated in the canonical order the registry promises.
"""

from functools import partial

from repro.core.parameters import CostParams, MobilityParams
from repro.faults import PageLoss, ResilientEngine, UpdateLoss
from repro.geometry import HexTopology
from repro.mobility import mobility_preset
from repro.observability import current, noop_session, session
from repro.simulation import (
    SimulationEngine,
    VectorizedDistanceEngine,
    run_replicated,
)
from repro.strategies import DistanceStrategy

MOBILITY = MobilityParams(move_probability=0.3, call_probability=0.05)
COSTS = CostParams(update_cost=100.0, poll_cost=10.0)
SLOTS = 400


def make_engine(seed=0, d=2, m=2):
    return SimulationEngine(
        topology=HexTopology(),
        strategy=DistanceStrategy(d, max_delay=m),
        mobility=MOBILITY,
        costs=COSTS,
        seed=seed,
    )


class TestBitIdentity:
    """Observed runs produce byte-for-byte the numbers unobserved runs do."""

    def test_per_cell_engine(self):
        plain = make_engine().run(SLOTS).to_dict()
        with session():
            observed = make_engine().run(SLOTS).to_dict()
        with noop_session():
            armed = make_engine().run(SLOTS).to_dict()
        assert observed == plain
        assert armed == plain

    def test_vectorized_engine(self):
        def run():
            engine = VectorizedDistanceEngine(
                topology=HexTopology(),
                threshold=2,
                mobility=MOBILITY,
                costs=COSTS,
                max_delay=2,
                terminals=16,
                seed=0,
            )
            return [s.to_dict() for s in engine.run(200).snapshots]

        plain = run()
        with session():
            observed = run()
        with noop_session():
            armed = run()
        assert observed == plain
        assert armed == plain

    def test_resilient_engine(self):
        def run():
            engine = ResilientEngine(
                topology=HexTopology(),
                strategy=DistanceStrategy(2, max_delay=2),
                mobility=MOBILITY,
                costs=COSTS,
                faults=[UpdateLoss(0.3, seed=1), PageLoss(0.2, seed=2)],
                seed=0,
            )
            snapshot = engine.run(SLOTS)
            return snapshot.to_dict(), engine.fault_report()

        plain = run()
        with session():
            observed = run()
        assert observed == plain

    def test_run_replicated_serial_vs_pooled_vs_unobserved(self):
        def run(workers=None, observe=False):
            def call():
                return run_replicated(
                    topology=HexTopology(),
                    strategy_factory=partial(DistanceStrategy, 2, max_delay=2),
                    mobility=MOBILITY,
                    costs=COSTS,
                    slots=200,
                    replications=4,
                    seed=7,
                    workers=workers,
                )

            if not observe:
                return call(), None
            with session() as obs:
                result = call()
            return result, obs

        plain, _ = run()
        serial, serial_obs = run(observe=True)
        pooled, pooled_obs = run(workers=2, observe=True)
        expect = [s.to_dict() for s in plain.snapshots]
        assert [s.to_dict() for s in serial.snapshots] == expect
        assert [s.to_dict() for s in pooled.snapshots] == expect
        # the merged registries agree series-for-series and bit-for-bit
        assert serial_obs.registry.collect() == pooled_obs.registry.collect()


class TestExactAccounting:
    def test_engine_counters_match_the_meter(self):
        with session() as obs:
            engine = make_engine()
            snapshot = engine.run(SLOTS)
        registry = obs.registry
        assert registry.total("slots_total") == SLOTS
        assert registry.total("moves_total") == snapshot.moves
        assert registry.total("updates_total") == snapshot.updates
        assert registry.total("calls_total") == snapshot.calls
        assert registry.total("polled_cells_total") == snapshot.polled_cells
        # per-cycle breakdown sums back to the total polled cells
        assert registry.total("polled_cells_by_cycle_total") == sum(
            registry.value("polled_cells_by_cycle_total", cycle=cycle,
                           strategy="distance", d=2, engine="per-cell") or 0
            for cycle in (1, 2)
        )
        histogram = registry.value(
            "paging_delay_cycles", strategy="distance", d=2, engine="per-cell"
        )
        assert histogram == snapshot.calls

    def test_cost_totals_equal_snapshot_sums_exactly(self):
        with session() as obs:
            result = run_replicated(
                topology=HexTopology(),
                strategy_factory=partial(DistanceStrategy, 2, max_delay=2),
                mobility=MOBILITY,
                costs=COSTS,
                slots=200,
                replications=5,
                seed=3,
            )
        registry = obs.registry
        assert registry.total("update_cost_total") == sum(
            s.update_cost for s in result.snapshots
        )
        assert registry.total("paging_cost_total") == sum(
            s.paging_cost for s in result.snapshots
        )

    def test_vectorized_cost_totals_exact(self):
        with session() as obs:
            engine = VectorizedDistanceEngine(
                topology=HexTopology(),
                threshold=2,
                mobility=MOBILITY,
                costs=COSTS,
                max_delay=2,
                terminals=32,
                seed=5,
            )
            result = engine.run(200)
        registry = obs.registry
        assert registry.total("update_cost_total") == sum(
            s.update_cost for s in result.snapshots
        )
        assert registry.total("paging_cost_total") == sum(
            s.paging_cost for s in result.snapshots
        )
        assert registry.total("slots_total") == 200 * 32
        assert registry.total("calls_total") == sum(
            s.calls for s in result.snapshots
        )

    def test_uniform_and_ctrw_runs_share_metric_identities(self):
        def identities(walk):
            with session() as obs:
                VectorizedDistanceEngine(
                    topology=HexTopology(),
                    threshold=2,
                    mobility=MOBILITY,
                    costs=COSTS,
                    max_delay=2,
                    terminals=16,
                    seed=0,
                    walk=walk,
                ).run(100)
            return [(r["name"], r["labels"]) for r in obs.registry.collect()]

        uniform = identities(None)
        assert uniform
        ctrw = identities(mobility_preset("ctrw-hyper", MOBILITY.move_probability))
        assert ctrw == uniform

    def test_fault_counters_match_fault_report(self):
        with session() as obs:
            engine = ResilientEngine(
                topology=HexTopology(),
                strategy=DistanceStrategy(2, max_delay=2),
                mobility=MOBILITY,
                costs=COSTS,
                faults=[UpdateLoss(0.4, seed=1), PageLoss(0.3, seed=2)],
                seed=0,
            )
            engine.run(SLOTS)
        report = engine.fault_report()
        registry = obs.registry
        for name in (
            "lost_transmissions",
            "lost_updates",
            "update_retries",
            "stale_lookups",
            "missed_polls",
            "repages",
            "recovery_pagings",
            "recovery_cells",
        ):
            assert registry.total(f"{name}_total") == report[name], name
        assert registry.total("update_backoff_slots_total") == report[
            "update_latency_slots"
        ]
        # the fault-injection run reports under its own engine label
        assert (
            registry.value(
                "lost_transmissions_total",
                strategy="distance", d=2, engine="resilient",
            )
            is not None
        )


class TestSpans:
    def test_run_replicated_traces_each_replication(self):
        with session() as obs:
            run_replicated(
                topology=HexTopology(),
                strategy_factory=partial(DistanceStrategy, 2, max_delay=2),
                mobility=MOBILITY,
                costs=COSTS,
                slots=100,
                replications=3,
                seed=0,
            )
        names = [r.name for r in obs.tracer.records]
        assert names.count("simulate.run_replicated") == 1
        assert names.count("simulate.replication") == 3
        root = next(
            r for r in obs.tracer.records if r.name == "simulate.run_replicated"
        )
        for record in obs.tracer.records:
            if record.name == "simulate.replication":
                assert record.parent_id == root.span_id
                assert record.duration is not None

    def test_pooled_replication_spans_are_adopted_with_index(self):
        with session() as obs:
            run_replicated(
                topology=HexTopology(),
                strategy_factory=partial(DistanceStrategy, 2, max_delay=2),
                mobility=MOBILITY,
                costs=COSTS,
                slots=100,
                replications=3,
                seed=0,
                workers=2,
            )
        replication_spans = [
            r for r in obs.tracer.records if r.name == "simulate.replication"
        ]
        assert sorted(r.metadata.get("replication") for r in replication_spans) == [
            0, 1, 2,
        ]

    def test_session_restores_the_disabled_default(self):
        before = current()
        with session():
            assert current().enabled
        assert current() is before
        assert not current().enabled
