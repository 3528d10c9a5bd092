"""Batched NumPy simulation of the distance strategy.

:class:`VectorizedDistanceEngine` simulates ``K`` independent terminals
of the distance-based scheme as one batched ring-distance chain: one
uniform per terminal and slot, hashed from the stateless SplitMix64
counter RNG of :mod:`repro.simulation.kernels`, classifies every
terminal as call / movement / idle, and threshold tests, resets, and
cost accumulation are plain NumPy array operations.  That delivers two
to three orders of magnitude more terminal-slots per second than
stepping :class:`~repro.simulation.engine.SimulationEngine`
instances one cell at a time.

Exactness
---------

The fast path is *exact*, not an approximation of the per-cell engine:
terminals are tracked by their true lattice coordinates **relative to
the current center cell** (the cell of the last update or page hit),
so ring distances, update triggers, and paging costs are computed from
the same geometry the cell-level engine walks.  In particular it does
NOT use the paper's ring-aggregated transition probabilities
``p+(i)/p-(i)`` -- corner/edge cell effects on the hex and square grids
are reproduced faithfully.  Beyond the uniform walk, the engine runs
CTRW mobility (``walk=CTRWSpec(...)``): per-terminal residence clocks
on dedicated counter-RNG streams, with drift/persistence direction
composition (see :mod:`repro.mobility.ctrw` for the timed slot
semantics).  What the vectorized engine *cannot* do is everything that
needs per-event hooks: event logs, fault models, arbitrary walker
classes or arrival processes, and non-distance strategies all require
:class:`~repro.simulation.engine.SimulationEngine`.

Because only relative coordinates are tracked, the absolute start cell
is irrelevant (both supported geometries are vertex-transitive), and a
paging hit or update simply resets a terminal's relative position to
the origin.

Statistical contract
--------------------

Each terminal gets its own meter; :meth:`VectorizedDistanceEngine.run`
returns a :class:`~repro.simulation.runner.ReplicatedResult` whose
per-terminal :class:`~repro.simulation.metrics.MeterSnapshot` entries
follow exactly the accounting of :class:`CostMeter` -- so the usual
pooled means and between-replication confidence intervals apply
unchanged, and agreement with ``SimulationEngine`` campaigns can be
asserted within CI.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError
from ..geometry.hex import AXIAL_DIRECTIONS, HexTopology
from ..geometry.line import LineTopology
from ..geometry.square import SQUARE_DIRECTIONS, SquareTopology
from ..geometry.topology import CellTopology
from ..observability.context import current as _observability
from ..paging import PagingPlan, sdf_partition
from ..core.parameters import validate_delay, validate_threshold
from ..mobility.ctrw import CTRWSpec
from .kernels import (
    STREAM_CALL,
    STREAM_DIRECTION,
    STREAM_EVENT,
    STREAM_RESIDENCE,
    STREAM_RESIDENCE_BRANCH,
    counter_uniforms,
    drifted_directions,
    terminal_keys,
)
from .metrics import MeterSnapshot
from .runner import ReplicatedResult

__all__ = [
    "VectorizedDistanceEngine",
    "replay_trace_meters",
    "throughput_report",
]

_EVENT_MODES = ("exclusive", "independent")

#: z-score matching CostMeter's 95% half-width.
_Z95 = 1.96


def _lattice_kernel(topology: CellTopology) -> Tuple[np.ndarray, callable]:
    """Direction vectors and a vectorized ring-distance function.

    Returns ``(directions, distance)`` where ``directions`` has shape
    ``(degree, dims)`` and ``distance`` maps an ``(K, dims)`` array of
    center-relative coordinates to ``(K,)`` ring distances.
    """
    if isinstance(topology, LineTopology):
        dirs = np.array([[-1], [1]], dtype=np.int64)
        return dirs, lambda pos: np.abs(pos[:, 0])
    if isinstance(topology, HexTopology):
        dirs = np.array(AXIAL_DIRECTIONS, dtype=np.int64)

        def hex_distance(pos: np.ndarray) -> np.ndarray:
            q, r = pos[:, 0], pos[:, 1]
            return (np.abs(q) + np.abs(r) + np.abs(q + r)) // 2

        return dirs, hex_distance
    if isinstance(topology, SquareTopology):
        dirs = np.array(SQUARE_DIRECTIONS, dtype=np.int64)
        return dirs, lambda pos: np.abs(pos[:, 0]) + np.abs(pos[:, 1])
    raise ParameterError(
        f"VectorizedDistanceEngine supports LineTopology, HexTopology, and "
        f"SquareTopology; got {topology!r} -- use SimulationEngine for "
        "other geometries"
    )


class VectorizedDistanceEngine:
    """K independent distance-strategy terminals as one NumPy chain.

    Parameters
    ----------
    topology:
        Cell geometry (line, hex, or square grid).
    threshold:
        Update threshold distance ``d`` in rings.
    mobility:
        ``(q, c)`` parameters, shared by all terminals.
    costs:
        ``(U, V)`` cost weights.
    max_delay:
        Paging delay bound ``m``; ignored when ``plan`` is given.
    plan:
        Optional explicit :class:`~repro.paging.PagingPlan` overriding
        the SDF default.
    terminals:
        Batch width ``K`` -- how many independent terminals to step per
        slot.
    seed:
        Integer seed of the stateless counter RNG (``None`` means 0).
        Terminal ``k`` draws the same keys as terminal ``k`` of a
        one-shard fleet with the same seed.
    event_mode:
        ``"exclusive"`` (chain-faithful, default) or ``"independent"``
        -- same slot semantics as :class:`SimulationEngine`.
    """

    def __init__(
        self,
        topology: CellTopology,
        threshold: int,
        mobility: MobilityParams,
        costs: CostParams,
        max_delay=1,
        plan: Optional[PagingPlan] = None,
        terminals: int = 1024,
        seed=None,
        event_mode: str = "exclusive",
        walk: Optional[CTRWSpec] = None,
        record_ring_hits: bool = False,
    ) -> None:
        if event_mode not in _EVENT_MODES:
            raise ParameterError(
                f"event_mode must be one of {_EVENT_MODES}, got {event_mode!r}"
            )
        if terminals < 1:
            raise ParameterError(f"terminals must be >= 1, got {terminals}")
        if walk is not None and not isinstance(walk, CTRWSpec):
            raise ParameterError(
                f"walk must be a CTRWSpec (or None for the paper's uniform "
                f"walk), got {walk!r}"
            )
        self.topology = topology
        self.threshold = validate_threshold(threshold)
        validate_delay(max_delay)
        self.mobility = mobility
        self.costs = costs
        self.event_mode = event_mode
        self.terminals = int(terminals)
        self.walk_spec = walk
        if seed is None:
            seed = 0
        if not isinstance(seed, (int, np.integer)):
            raise ParameterError(
                f"the counter RNG needs an integer seed; got {seed!r}"
            )
        self._seed = int(seed)
        self._idx_keys = terminal_keys(0, self.terminals)
        if plan is not None and plan.threshold != self.threshold:
            raise ParameterError(
                f"plan is for threshold {plan.threshold}, engine uses "
                f"{self.threshold}"
            )
        self.plan = plan if plan is not None else sdf_partition(self.threshold, max_delay)
        self._dirs, self._distance = _lattice_kernel(topology)
        # Paging lookup tables: ring index -> 0-based polling cycle, and
        # cycle -> cumulative cells polled (w_j of eqn (64)).
        ring_to_cycle = np.empty(self.threshold + 1, dtype=np.int64)
        for cycle, group in enumerate(self.plan.subareas):
            for ring in group:
                ring_to_cycle[ring] = cycle
        self._ring_to_cycle = ring_to_cycle
        self._cumulative_polled = np.asarray(
            self.plan.cumulative_polled(topology), dtype=np.int64
        )
        # Center-relative positions: the whole batch starts freshly
        # fixed at its (arbitrary) start cells.
        self._pos = np.zeros((self.terminals, self._dirs.shape[1]), dtype=np.int64)
        if walk is not None:
            degree = self._dirs.shape[0]
            if walk.drift_direction >= degree:
                raise ParameterError(
                    f"drift_direction {walk.drift_direction} out of range for "
                    f"{topology!r} (degree {degree})"
                )
            # Initial residences hash slot -1: in-run resamples use the
            # current slot index, which is always >= 0.
            self._residence = walk.residence.from_uniforms(
                counter_uniforms(
                    self._idx_keys, self._seed, STREAM_RESIDENCE_BRANCH, -1
                ),
                counter_uniforms(self._idx_keys, self._seed, STREAM_RESIDENCE, -1),
            )
            self._last_dir = np.full(self.terminals, -1, dtype=np.int64)
        self._record_ring_hits = bool(record_ring_hits)
        self.slot = 0
        # Metric handles, resolved once at construction (None when no
        # observability session is installed).  The vectorized engine
        # reports in bulk per run() call -- per-slot instrumentation
        # would defeat the point of batching.
        obs = _observability()
        if obs.enabled:
            labels = {
                "strategy": "distance",
                "d": self.threshold,
                "engine": "vectorized",
            }
            registry = obs.registry
            self._tracer = obs.tracer
            self._instruments = {
                "slots": registry.counter("slots_total", **labels),
                "moves": registry.counter("moves_total", **labels),
                "updates": registry.counter(
                    "updates_total", trigger="distance", **labels
                ),
                "calls": registry.counter("calls_total", **labels),
                "polled": registry.counter("polled_cells_total", **labels),
                "delay": registry.histogram("paging_delay_cycles", **labels),
                "update_cost": registry.counter("update_cost_total", **labels),
                "paging_cost": registry.counter("paging_cost_total", **labels),
            }
        else:
            self._tracer = None
            self._instruments = None
        self.reset_meters()

    # ------------------------------------------------------------------

    def reset_meters(self) -> None:
        """Zero every terminal's meter (positions and slot clock are kept).

        The vectorized analogue of swapping a fresh
        :class:`~repro.simulation.metrics.CostMeter` into an engine
        after warm-up slots.
        """
        K = self.terminals
        cycles = self.plan.delay_bound
        self._metered_slots = 0
        self._moves = np.zeros(K, dtype=np.int64)
        self._updates = np.zeros(K, dtype=np.int64)
        self._calls = np.zeros(K, dtype=np.int64)
        self._polled_cells = np.zeros(K, dtype=np.int64)
        self._cost_sum = np.zeros(K, dtype=np.float64)
        self._cost_sq_sum = np.zeros(K, dtype=np.float64)
        self._delay_counts = np.zeros((K, cycles), dtype=np.int64)
        self._ring_hits = (
            np.zeros(self.threshold + 1, dtype=np.int64)
            if self._record_ring_hits
            else None
        )

    def ring_hit_distribution(self) -> np.ndarray:
        """Empirical ring occupancy at call times (sums to 1).

        Requires the engine to have been built with
        ``record_ring_hits=True`` and to have metered at least one
        call.  This is the simulated location distribution the
        empirical paging optimizer feeds into
        :func:`repro.paging.optimal_contiguous_partition`.
        """
        if self._ring_hits is None:
            raise ParameterError(
                "ring hits are not recorded; build the engine with "
                "record_ring_hits=True"
            )
        total = int(self._ring_hits.sum())
        if total == 0:
            raise ParameterError(
                "no calls metered yet; run more slots before asking for the "
                "ring-hit distribution"
            )
        return self._ring_hits.astype(np.float64) / total

    def run(self, slots: int) -> ReplicatedResult:
        """Advance every terminal ``slots`` slots; return pooled results."""
        if slots < 0:
            raise ParameterError(f"slots must be >= 0, got {slots}")
        if self._instruments is None:
            self._advance(slots)
            return self.result()
        before = (
            self._moves.copy(),
            self._updates.copy(),
            self._calls.copy(),
            self._polled_cells.copy(),
            self._delay_counts.copy(),
        )
        with self._tracer.span(
            "simulate.vectorized_run",
            slots=slots,
            terminals=self.terminals,
            threshold=self.threshold,
        ):
            self._advance(slots)
        self._record_run(before, slots)
        return self.result()

    def _advance(self, slots: int) -> None:
        """Run ``slots`` steps of the uniform walk or the CTRW."""
        step = self._step_counter if self.walk_spec is None else self._step_ctrw
        for _ in range(slots):
            step()

    def _record_run(self, before: tuple, slots: int) -> None:
        """Fold one observed run() into the metrics registry.

        Event counts report as bulk deltas; the cost counters are fed
        one per-terminal increment in terminal order (integer event
        delta times unit cost), so for a fresh-meter single run the
        exported ``update_cost_total``/``paging_cost_total`` are
        bit-equal to summing the per-terminal snapshot columns -- the
        same exactness contract :func:`~repro.simulation.runner.
        run_replicated` keeps for the per-cell engine.
        """
        ins = self._instruments
        moves0, updates0, calls0, polled0, delays0 = before
        d_updates = self._updates - updates0
        d_polled = self._polled_cells - polled0
        ins["slots"].inc(int(slots) * self.terminals)
        ins["moves"].inc(int((self._moves - moves0).sum()))
        ins["updates"].inc(int(d_updates.sum()))
        ins["calls"].inc(int((self._calls - calls0).sum()))
        ins["polled"].inc(int(d_polled.sum()))
        for cycle, count in enumerate((self._delay_counts - delays0).sum(axis=0)):
            if count:
                ins["delay"].observe(cycle + 1, int(count))
        U, V = self.costs.update_cost, self.costs.poll_cost
        update_cost, paging_cost = ins["update_cost"], ins["paging_cost"]
        for k in range(self.terminals):
            update_cost.inc(int(d_updates[k]) * U)
            paging_cost.inc(int(d_polled[k]) * V)

    def result(self) -> ReplicatedResult:
        """Freeze the current per-terminal meters into a pooled result."""
        return ReplicatedResult(snapshots=self.snapshots())

    def snapshots(self) -> List[MeterSnapshot]:
        """One :class:`MeterSnapshot` per terminal (CostMeter semantics)."""
        out: List[MeterSnapshot] = []
        slots = self._metered_slots
        U, V = self.costs.update_cost, self.costs.poll_cost
        for k in range(self.terminals):
            if slots:
                mean = self._cost_sum[k] / slots
            else:
                mean = 0.0
            if slots >= 2:
                var = max(self._cost_sq_sum[k] / slots - mean * mean, 0.0)
                half = _Z95 * math.sqrt(var / slots)
            else:
                half = math.inf
            calls = int(self._calls[k])
            counts = self._delay_counts[k]
            if calls:
                delay = float(
                    np.arange(1, counts.size + 1, dtype=np.float64) @ counts
                ) / calls
            else:
                delay = 0.0
            out.append(
                MeterSnapshot(
                    slots=slots,
                    moves=int(self._moves[k]),
                    updates=int(self._updates[k]),
                    calls=calls,
                    polled_cells=int(self._polled_cells[k]),
                    update_cost=int(self._updates[k]) * U,
                    paging_cost=int(self._polled_cells[k]) * V,
                    mean_total_cost=float(mean),
                    total_cost_half_width_95=float(half),
                    mean_paging_delay=delay,
                    delay_histogram={
                        cycle + 1: int(count)
                        for cycle, count in enumerate(counts)
                        if count
                    },
                )
            )
        return out

    # -- internals --------------------------------------------------------

    def _handle_calls(self, called: np.ndarray, slot_cost: np.ndarray) -> None:
        rings = self._distance(self._pos[called])
        if self._ring_hits is not None:
            np.add.at(self._ring_hits, rings, 1)
        cycles = self._ring_to_cycle[rings]
        polled = self._cumulative_polled[cycles]
        self._calls[called] += 1
        self._polled_cells[called] += polled
        np.add.at(self._delay_counts, (np.nonzero(called)[0], cycles), 1)
        slot_cost[called] += self.costs.poll_cost * polled
        # The network pinpointed these terminals: their cells become the
        # new centers, i.e. the relative position resets to the origin.
        self._pos[called] = 0

    def _step_counter(self) -> None:
        """One slot of the uniform walk on the counter RNG.

        Same hashes and within-slot order (calls, then moves) as
        :class:`~repro.simulation.fleet.FleetShardEngine`, so a
        homogeneous one-shard fleet with the same seed replays this
        trajectory exactly.  Calls first is also SimulationEngine's
        independent-mode order; in exclusive mode the events are
        disjoint and the order is immaterial.
        """
        c = self.mobility.call_probability
        q = self.mobility.move_probability
        u = counter_uniforms(self._idx_keys, self._seed, STREAM_EVENT, self.slot)
        if self.event_mode == "exclusive":
            called = u < c
            moved = (~called) & (u < c + q)
        else:
            moved = u < q
            called = (
                counter_uniforms(self._idx_keys, self._seed, STREAM_CALL, self.slot)
                < c
            )
        slot_cost = np.zeros(self.terminals, dtype=np.float64)
        if called.any():
            self._handle_calls(called, slot_cost)
        if moved.any():
            self._handle_moves(moved, slot_cost)
        self._cost_sum += slot_cost
        self._cost_sq_sum += slot_cost * slot_cost
        self._metered_slots += 1
        self.slot += 1

    def _handle_moves(self, moved: np.ndarray, slot_cost: np.ndarray) -> None:
        movers = np.nonzero(moved)[0]
        unit = counter_uniforms(
            self._idx_keys[movers], self._seed, STREAM_DIRECTION, self.slot
        )
        directions = (unit * float(self._dirs.shape[0])).astype(np.int64)
        self._pos[movers] += self._dirs[directions]
        self._moves[movers] += 1
        # Threshold test on the movers only; crossing the residing-area
        # boundary triggers an update and re-centers the terminal.
        updating = movers[self._distance(self._pos[movers]) > self.threshold]
        if updating.size:
            self._updates[updating] += 1
            slot_cost[updating] += self.costs.update_cost
            self._pos[updating] = 0

    # -- timed (CTRW) mobility on the counter RNG -------------------------

    def _step_ctrw(self) -> None:
        """One slot of residence-clock mobility.

        Timed slot semantics (the same as SimulationEngine's timed
        path): the call is the only probabilistic per-slot event,
        processed before the move; every terminal's residence clock
        then ticks, and expired clocks move.  ``event_mode`` plays no
        role -- a CTRW has no per-slot move probability to compete
        with the call draw.
        """
        c = self.mobility.call_probability
        called = (
            counter_uniforms(self._idx_keys, self._seed, STREAM_CALL, self.slot)
            < c
        )
        slot_cost = np.zeros(self.terminals, dtype=np.float64)
        if called.any():
            self._handle_calls(called, slot_cost)
        self._residence -= 1
        moved = self._residence <= 0
        if moved.any():
            self._handle_moves_ctrw(moved, slot_cost)
        self._cost_sum += slot_cost
        self._cost_sq_sum += slot_cost * slot_cost
        self._metered_slots += 1
        self.slot += 1

    def _handle_moves_ctrw(self, moved: np.ndarray, slot_cost: np.ndarray) -> None:
        movers = np.nonzero(moved)[0]
        spec = self.walk_spec
        keys = self._idx_keys[movers]
        u_dir = counter_uniforms(keys, self._seed, STREAM_DIRECTION, self.slot)
        directions = drifted_directions(
            u_dir,
            self._dirs.shape[0],
            spec.drift,
            spec.drift_direction,
            spec.persistence,
            self._last_dir[movers],
        )
        self._last_dir[movers] = directions
        self._pos[movers] += self._dirs[directions]
        self._moves[movers] += 1
        # Re-arm the movers' clocks for their new cells.
        self._residence[movers] = spec.residence.from_uniforms(
            counter_uniforms(keys, self._seed, STREAM_RESIDENCE_BRANCH, self.slot),
            counter_uniforms(keys, self._seed, STREAM_RESIDENCE, self.slot),
        )
        updating = movers[self._distance(self._pos[movers]) > self.threshold]
        if updating.size:
            self._updates[updating] += 1
            slot_cost[updating] += self.costs.update_cost
            self._pos[updating] = 0


def replay_trace_meters(
    trace,
    threshold: int,
    costs: CostParams,
    max_delay=1,
    plan: Optional[PagingPlan] = None,
) -> MeterSnapshot:
    """Replay a recorded :class:`~repro.mobility.traces.Trace` vectorized.

    Drives the distance strategy over the trace's recorded positions
    and call slots using the vectorized engine's relative-coordinate
    bookkeeping (same lattice kernel, same paging tables, same
    within-slot order: call before move).  Returns one
    :class:`MeterSnapshot` with CostMeter accounting -- the regression
    contract is that this snapshot matches a replay of the same trace
    through :class:`~repro.simulation.engine.SimulationEngine` meter
    for meter (see :func:`repro.mobility.traces.replay_trace`).
    """
    threshold = validate_threshold(threshold)
    if plan is not None and plan.threshold != threshold:
        raise ParameterError(
            f"plan is for threshold {plan.threshold}, replay uses {threshold}"
        )
    plan = plan if plan is not None else sdf_partition(threshold, max_delay)
    dirs, distance = _lattice_kernel(trace.topology)
    ring_to_cycle = np.empty(threshold + 1, dtype=np.int64)
    for cycle, group in enumerate(plan.subareas):
        for ring in group:
            ring_to_cycle[ring] = cycle
    cumulative_polled = np.asarray(
        plan.cumulative_polled(trace.topology), dtype=np.int64
    )

    def coords(cell) -> np.ndarray:
        raw = cell if isinstance(cell, tuple) else (cell,)
        return np.asarray(raw, dtype=np.int64)

    pos = np.zeros((1, dirs.shape[1]), dtype=np.int64)
    prev = coords(trace.start)
    moves = updates = calls = polled_cells = 0
    cost_sum = cost_sq_sum = 0.0
    delay_counts = np.zeros(plan.delay_bound, dtype=np.int64)
    U, V = costs.update_cost, costs.poll_cost
    for cell, call in trace.steps:
        slot_cost = 0.0
        if call:
            ring = int(distance(pos)[0])
            if ring > threshold:
                raise ParameterError(
                    f"trace is inconsistent with threshold {threshold}: a call "
                    f"found the terminal at ring {ring}"
                )
            cycle = int(ring_to_cycle[ring])
            polled = int(cumulative_polled[cycle])
            calls += 1
            polled_cells += polled
            delay_counts[cycle] += 1
            slot_cost += V * polled
            pos[:] = 0
        here = coords(cell)
        if not np.array_equal(here, prev):
            pos[0] += here - prev
            moves += 1
            if int(distance(pos)[0]) > threshold:
                updates += 1
                slot_cost += U
                pos[:] = 0
        prev = here
        cost_sum += slot_cost
        cost_sq_sum += slot_cost * slot_cost
    slots = len(trace.steps)
    mean = cost_sum / slots if slots else 0.0
    if slots >= 2:
        var = max(cost_sq_sum / slots - mean * mean, 0.0)
        half = _Z95 * math.sqrt(var / slots)
    else:
        half = math.inf
    if calls:
        delay = float(
            np.arange(1, delay_counts.size + 1, dtype=np.float64) @ delay_counts
        ) / calls
    else:
        delay = 0.0
    return MeterSnapshot(
        slots=slots,
        moves=moves,
        updates=updates,
        calls=calls,
        polled_cells=polled_cells,
        update_cost=updates * U,
        paging_cost=polled_cells * V,
        mean_total_cost=float(mean),
        total_cost_half_width_95=float(half),
        mean_paging_delay=delay,
        delay_histogram={
            cycle + 1: int(count)
            for cycle, count in enumerate(delay_counts)
            if count
        },
    )


def throughput_report(
    topology: CellTopology,
    threshold: int,
    mobility: MobilityParams,
    costs: CostParams,
    max_delay=1,
    engine_slots: int = 20_000,
    vector_slots: int = 20_000,
    terminals: int = 1024,
    seed: int = 0,
) -> dict:
    """Measure slots/sec of the per-cell engine vs the vectorized one.

    Both engines run the distance strategy at the same ``(d, m, q, c)``
    point; throughput counts *terminal-slots* per wall-clock second, so
    the numbers are directly comparable.  Returns a JSON-ready dict
    (consumed by ``benchmarks/bench_throughput.py`` and the CLI's
    ``speed`` subcommand).
    """
    from ..strategies.distance import DistanceStrategy  # local: avoid cycle
    from .engine import SimulationEngine

    engine = SimulationEngine(
        topology=topology,
        strategy=DistanceStrategy(threshold, max_delay=max_delay),
        mobility=mobility,
        costs=costs,
        seed=seed,
    )
    tic = time.perf_counter()
    engine.run(engine_slots)
    engine_seconds = time.perf_counter() - tic

    vectorized = VectorizedDistanceEngine(
        topology=topology,
        threshold=threshold,
        mobility=mobility,
        costs=costs,
        max_delay=max_delay,
        terminals=terminals,
        seed=seed,
    )
    tic = time.perf_counter()
    vectorized.run(vector_slots)
    vector_seconds = time.perf_counter() - tic

    engine_rate = engine_slots / engine_seconds if engine_seconds else math.inf
    vector_rate = (
        vector_slots * terminals / vector_seconds if vector_seconds else math.inf
    )
    return {
        "config": {
            "topology": repr(topology),
            "threshold": threshold,
            "max_delay": None if max_delay == math.inf else max_delay,
            "q": mobility.move_probability,
            "c": mobility.call_probability,
            "update_cost": costs.update_cost,
            "poll_cost": costs.poll_cost,
            "seed": seed,
        },
        "engine": {
            "terminal_slots": engine_slots,
            "seconds": engine_seconds,
            "slots_per_sec": engine_rate,
        },
        "vectorized": {
            "terminals": terminals,
            "slots": vector_slots,
            "terminal_slots": vector_slots * terminals,
            "seconds": vector_seconds,
            "slots_per_sec": vector_rate,
        },
        "speedup": vector_rate / engine_rate if engine_rate else math.inf,
    }
