"""Vectorized distance engine: agreement with the per-cell engine, and
its columnar pooled results."""

import math
import struct
import tracemalloc
from functools import partial

import numpy as np
import pytest

from repro import CostParams, MobilityParams, ParameterError
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.paging import sdf_partition
from repro.simulation import (
    SimulationEngine,
    VectorizedDistanceEngine,
    run_replicated,
)
from repro.simulation.vectorized import _plan_tables
from repro.strategies import DistanceStrategy

MOBILITY = MobilityParams(0.3, 0.02)
COSTS = CostParams(30.0, 2.0)


def engine_result(topology, d, m, slots=20_000, replications=4, seed=11):
    return run_replicated(
        topology=topology,
        strategy_factory=partial(DistanceStrategy, d, max_delay=m),
        mobility=MOBILITY,
        costs=COSTS,
        slots=slots,
        replications=replications,
        seed=seed,
    )


def vectorized_result(topology, d, m, slots=20_000, terminals=16, seed=11, **kwargs):
    engine = VectorizedDistanceEngine(
        topology=topology,
        threshold=d,
        mobility=MOBILITY,
        costs=COSTS,
        max_delay=m,
        terminals=terminals,
        seed=seed,
        **kwargs,
    )
    return engine.run(slots)


class TestAgreementWithCellEngine:
    @pytest.mark.parametrize("d,m", [(1, 1), (2, 2), (3, 1), (4, 3)])
    def test_line_grid(self, d, m):
        # On the line the distance process is exact for both engines:
        # the means must agree within the joint sampling noise.
        ref = engine_result(LineTopology(), d, m)
        vec = vectorized_result(LineTopology(), d, m)
        tolerance = ref.total_cost_ci() + vec.total_cost_ci()
        assert abs(ref.mean_total_cost - vec.mean_total_cost) <= tolerance

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 2)])
    def test_hex_grid(self, d, m):
        # The vectorized engine tracks true axial coordinates, so hex
        # corner/edge effects are reproduced -- not the ring-averaged
        # approximation -- and CI-level agreement holds in 2-D too.
        ref = engine_result(HexTopology(), d, m)
        vec = vectorized_result(HexTopology(), d, m)
        tolerance = ref.total_cost_ci() + vec.total_cost_ci()
        assert abs(ref.mean_total_cost - vec.mean_total_cost) <= tolerance

    def test_component_costs_agree(self):
        ref = engine_result(HexTopology(), 3, 2, slots=30_000)
        vec = vectorized_result(HexTopology(), 3, 2, slots=30_000, terminals=24)
        assert vec.mean_update_cost == pytest.approx(ref.mean_update_cost, rel=0.1)
        assert vec.mean_paging_cost == pytest.approx(ref.mean_paging_cost, rel=0.1)
        assert vec.mean_paging_delay == pytest.approx(ref.mean_paging_delay, rel=0.1)

    def test_independent_event_mode(self):
        ref = run_replicated(
            topology=LineTopology(),
            strategy_factory=partial(DistanceStrategy, 2, max_delay=1),
            mobility=MOBILITY,
            costs=COSTS,
            slots=20_000,
            replications=4,
            seed=3,
            event_mode="independent",
        )
        vec = vectorized_result(
            LineTopology(), 2, 1, seed=3, event_mode="independent"
        )
        tolerance = ref.total_cost_ci() + vec.total_cost_ci()
        assert abs(ref.mean_total_cost - vec.mean_total_cost) <= tolerance

    def test_zero_threshold_update_rate_is_q(self):
        # d = 0: every movement crosses the boundary, so the empirical
        # update rate must be q and paging always polls exactly 1 cell.
        vec = vectorized_result(LineTopology(), 0, 1, slots=30_000, terminals=32)
        q = MOBILITY.move_probability
        assert vec.mean_update_cost == pytest.approx(
            q * COSTS.update_cost, rel=0.05
        )
        for snapshot in vec.snapshots:
            assert snapshot.polled_cells == snapshot.calls


class TestMeterSemantics:
    def test_snapshot_decomposition(self):
        vec = vectorized_result(SquareTopology(), 2, 2, slots=5_000)
        for snapshot in vec.snapshots:
            assert snapshot.slots == 5_000
            assert snapshot.mean_total_cost == pytest.approx(
                snapshot.mean_update_cost + snapshot.mean_paging_cost
            )
            assert math.isfinite(snapshot.total_cost_half_width_95)

    def test_delay_bound_respected(self):
        vec = vectorized_result(LineTopology(), 4, 2, slots=10_000, terminals=32)
        for snapshot in vec.snapshots:
            if snapshot.delay_histogram:
                assert max(snapshot.delay_histogram) <= 2
        assert 1.0 <= vec.mean_paging_delay <= 2.0

    def test_terminals_are_independent(self):
        vec = vectorized_result(LineTopology(), 2, 1, slots=5_000, terminals=8)
        costs = {s.mean_total_cost for s in vec.snapshots}
        assert len(costs) > 1

    def test_deterministic_per_seed(self):
        a = vectorized_result(HexTopology(), 2, 1, slots=2_000, seed=9)
        b = vectorized_result(HexTopology(), 2, 1, slots=2_000, seed=9)
        assert a.snapshots == b.snapshots
        c = vectorized_result(HexTopology(), 2, 1, slots=2_000, seed=10)
        assert c.snapshots != a.snapshots

    def test_warmup_via_reset_meters(self):
        engine = VectorizedDistanceEngine(
            LineTopology(), 2, MOBILITY, COSTS, terminals=4, seed=1
        )
        engine.run(1_000)
        engine.reset_meters()
        result = engine.run(2_000)
        assert all(s.slots == 2_000 for s in result.snapshots)


def pooled_from_snapshots(snapshots):
    """The pooled statistics computed one snapshot at a time from a
    snapshot list: the reference the columnar statistics must equal."""
    n = len(snapshots)
    with_calls = [s for s in snapshots if s.calls > 0]
    totals = [s.mean_total_cost for s in snapshots]
    return {
        "replications": n,
        "mean_total_cost": float(np.mean(totals)),
        "mean_update_cost": float(np.mean([s.mean_update_cost for s in snapshots])),
        "mean_paging_cost": float(np.mean([s.mean_paging_cost for s in snapshots])),
        "mean_paging_delay": (
            float(np.mean([s.mean_paging_delay for s in with_calls]))
            if with_calls else 0.0
        ),
        "total_cost_ci": (
            1.96 * float(np.std(totals, ddof=1)) / math.sqrt(n) if n >= 2 else math.inf
        ),
    }


def pooled(result):
    return {
        "replications": result.replications,
        "mean_total_cost": result.mean_total_cost,
        "mean_update_cost": result.mean_update_cost,
        "mean_paging_cost": result.mean_paging_cost,
        "mean_paging_delay": result.mean_paging_delay,
        "total_cost_ci": result.total_cost_ci(),
    }


def bits(stats):
    """The statistics with every float as its IEEE bit pattern."""
    return {
        key: struct.pack("<d", value) if isinstance(value, float) else value
        for key, value in stats.items()
    }


class TestColumnarResult:
    """Pooled statistics read frozen per-terminal columns, bit for bit
    what the per-terminal snapshots give."""

    @pytest.mark.parametrize("slots", [0, 1, 150])
    @pytest.mark.parametrize("terminals", [1, 2, 97])
    @pytest.mark.parametrize("max_delay", [1, 3, math.inf])
    def test_statistics_equal_the_snapshot_way(self, slots, terminals, max_delay):
        costs = CostParams(50.3, 10.7)
        engine = VectorizedDistanceEngine(
            HexTopology(), 3, MOBILITY, costs, max_delay=max_delay,
            terminals=terminals, seed=5,
        )
        engine.run(20)
        engine.reset_meters()
        result = engine.run(slots)
        assert bits(pooled(result)) == bits(pooled_from_snapshots(result.snapshots))
        if terminals == 97 and slots == 150:
            calls = [s.calls for s in result.snapshots]
            assert 0 in calls and max(calls) > 0

    def test_result_is_frozen_and_snapshots_are_built_once(self):
        engine = VectorizedDistanceEngine(
            SquareTopology(), 2, MOBILITY, COSTS, terminals=9, seed=2
        )
        result = engine.run(300)
        before = pooled(result)
        engine.run(300)
        engine.reset_meters()
        assert pooled(result) == before
        assert result.snapshots is result.snapshots
        assert all(s.slots == 300 for s in result.snapshots)

    def test_per_cell_results_stack_their_snapshots(self):
        result = engine_result(LineTopology(), 2, 1, slots=500, replications=3)
        assert bits(pooled(result)) == bits(pooled_from_snapshots(result.snapshots))


class TestValidation:
    def test_unsupported_topology_rejected(self):
        class WeirdTopology(LineTopology):
            pass

        # Subclasses of supported geometries are fine (isinstance), but
        # a genuinely foreign topology is not.
        VectorizedDistanceEngine(
            WeirdTopology(), 1, MOBILITY, COSTS, terminals=2
        )
        with pytest.raises(ParameterError, match="SimulationEngine"):
            VectorizedDistanceEngine(object(), 1, MOBILITY, COSTS)  # type: ignore[arg-type]

    def test_threshold_past_the_code_tables_rejected(self):
        # Hex and square cells pack into (2d + 3)**2 codes, at most 2**22.
        for topology in (HexTopology(), SquareTopology()):
            with pytest.raises(ParameterError, match="packed cell codes"):
                VectorizedDistanceEngine(topology, 1023, MOBILITY, COSTS, terminals=2)
        # The line needs only 2d + 3.
        engine = VectorizedDistanceEngine(
            LineTopology(), 100_000, MOBILITY, COSTS, terminals=2
        )
        assert engine.run(10).replications == 2

    def test_tables_at_the_cap_build_without_table_sized_temporaries(self):
        # Two int32 tables of 2047**2 codes hold 32 MiB; decoding the
        # codes in chunks keeps the build within a few MiB of that.
        plans = (sdf_partition(1022, 2),)
        tracemalloc.start()
        try:
            tables = _plan_tables.__wrapped__(HexTopology(), plans)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tables.fold.size == tables.page.size == 2047**2
        assert retained < 33 * 2**20
        assert peak < 40 * 2**20

    def test_bad_event_mode_rejected(self):
        with pytest.raises(ParameterError):
            VectorizedDistanceEngine(
                LineTopology(), 1, MOBILITY, COSTS, event_mode="both"
            )

    def test_bad_terminal_count_rejected(self):
        with pytest.raises(ParameterError):
            VectorizedDistanceEngine(
                LineTopology(), 1, MOBILITY, COSTS, terminals=0
            )

    def test_mismatched_plan_rejected(self):
        from repro.paging import sdf_partition

        with pytest.raises(ParameterError):
            VectorizedDistanceEngine(
                LineTopology(), 2, MOBILITY, COSTS, plan=sdf_partition(3, 1)
            )

    def test_single_engine_comparable_api(self):
        # The vectorized engine's snapshots use the same MeterSnapshot
        # dataclass the per-cell engine emits.
        cell = SimulationEngine(
            topology=LineTopology(),
            strategy=DistanceStrategy(2, max_delay=1),
            mobility=MOBILITY,
            costs=COSTS,
            seed=0,
        )
        snap = cell.run(100)
        vec_snap = vectorized_result(LineTopology(), 2, 1, slots=100, terminals=1).snapshots[0]
        assert type(snap) is type(vec_snap)


def test_counter_engine_is_reproducible_and_seed_sensitive():
    a = vectorized_result(HexTopology(), 3, 2, slots=400, terminals=96, seed=11)
    b = vectorized_result(HexTopology(), 3, 2, slots=400, terminals=96, seed=11)
    c = vectorized_result(HexTopology(), 3, 2, slots=400, terminals=96, seed=12)
    assert a.mean_total_cost == b.mean_total_cost
    assert a.mean_total_cost != c.mean_total_cost


def test_counter_engine_requires_integer_seed():
    with pytest.raises(ParameterError, match="integer seed"):
        VectorizedDistanceEngine(HexTopology(), 3, MOBILITY, COSTS, seed=1.5)
    # None degrades to seed 0 rather than erroring.
    engine = VectorizedDistanceEngine(HexTopology(), 3, MOBILITY, COSTS, seed=None)
    assert engine._seed == 0
