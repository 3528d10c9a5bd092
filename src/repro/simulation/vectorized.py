"""Batched NumPy simulation of the distance strategy.

:class:`VectorizedDistanceEngine` simulates ``K`` independent terminals
of the distance-based scheme as one batched ring-distance chain.  Every
draw is a hash of ``(seed, stream, slot, terminal index)`` from the
stateless SplitMix64 counter RNG of :mod:`repro.simulation.kernels`;
threshold tests, resets, and cost accumulation are NumPy array
operations.  That is two to three orders of magnitude more
terminal-slots per second than stepping
:class:`~repro.simulation.engine.SimulationEngine` one cell at a time.

Block stepping
--------------

The engine advances ``B = min(64, 2**16 // K)`` slots per block, a
length computed from the batch width, and one slot when that is fewer
than 8 (K > 8192): small batches amortize Python dispatch over up to 64
slots, while a block of 2-7 slots does not pay back its fixed cost.
A block's mobility is drawn before the
strategy sees it: one ``mix64`` call over the ``(K, B)`` key grid draws
every call (and uniform-walk event) uniform; the uniform walk's movers
come from the event draw, and a CTRW's residence clocks advance in
rounds, each hashing the direction and re-arm draws of every
terminal's next expiry inside the block.  Only movers are hashed for
direction and residence.  The strategy pass then replays each
terminal's events in slot order: round ``r`` applies the ``r``-th event
of every terminal, a call before the same slot's move.  A round is five
NumPy calls on one int32 code per terminal: gather the codes, reset the
callers and step (``code * keep + shift``), fold through a table, and
scatter.  The polling cycles and cells polled at calls and the update
flags come from the tables once per block, after the last round.

Drawing moves ahead of the strategy is exact because mobility never
reads strategy state: calls and updates move the center, never a
residence clock or a last direction.  Each draw is still keyed by its
own slot, and the cost sums fold in per terminal in slot order, so a
run is bit-identical to stepping one slot at a time.

Exactness
---------

Terminals are tracked by their true lattice coordinates **relative to
the current center cell** (the cell of the last update or page hit),
not by the paper's ring-aggregated ``p+(i)/p-(i)`` chain, so hex and
square corner effects are exact.  Those coordinates (axial on the hex
grid) never leave ``[-d-1, d+1]``, so each terminal's cell packs into
one int32 code in base ``2d + 3``.  Two read-only int32 tables of
``(2d + 3)**dims`` entries, built once per ``(topology, plan)``, give
every code's polling cycle at a call and fold the codes of ring
``d + 1`` -- an update -- back to the origin.  A page hit also resets
a terminal to the origin.  :func:`_plan_tables` builds the tables for
this engine as one plan row and for a fleet shard
(:class:`~repro.simulation.fleet.FleetShardEngine`) as one row per
distinct threshold.  CTRW mobility (``walk=CTRWSpec(...)``) follows
the timed slot semantics of :mod:`repro.mobility.ctrw`.

Each terminal has its own meter with :class:`CostMeter` accounting.
``run()`` returns a :class:`~repro.simulation.runner.ReplicatedResult`
over a frozen copy of the per-terminal meter columns: its pooled
statistics are array reductions, and its per-terminal
:class:`MeterSnapshot` list is built only when first read.  Event logs,
fault models, arbitrary walkers or arrival processes, and non-distance
strategies need :class:`~repro.simulation.engine.SimulationEngine`.
"""

from __future__ import annotations

import functools
import math
import time
from typing import List, NamedTuple, Optional, Tuple

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
    key_uniforms,
    slot_keys,
    terminal_keys,
)
from .metrics import MeterColumns, MeterSnapshot
from .runner import ReplicatedResult

__all__ = [
    "VectorizedDistanceEngine",
    "replay_trace_meters",
    "throughput_report",
]

_EVENT_MODES = ("exclusive", "independent")

#: Slot-key streams of a block; a CTRW's last three draw each expiry.
_UNIFORM_STREAMS = (STREAM_EVENT, STREAM_CALL, STREAM_DIRECTION)
_CTRW_STREAMS = (
    STREAM_CALL, STREAM_DIRECTION, STREAM_RESIDENCE_BRANCH, STREAM_RESIDENCE
)

#: z-score matching CostMeter's 95% half-width.
_Z95 = 1.96

#: Most packed codes one engine's or shard's tables may hold (two int32
#: tables of 16 MiB each): d up to 1022 on the hex and square grids.
_MAX_CODES = 2**22


class _PlanTables(NamedTuple):
    """See :func:`_plan_tables`."""

    step: np.ndarray
    base: int
    powers: np.ndarray
    origins: np.ndarray
    fold: np.ndarray
    page: np.ndarray
    polled: np.ndarray

    @property
    def cells(self) -> int:
        """Codes per plan row, ``base**dims``."""
        return self.base**self.powers.size

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The ``(dims, K)`` center-relative native coordinates (axial on
        the hex grid) that ``codes`` pack; the plan row drops out."""
        return codes // self.powers[:, None] % self.base - self.base // 2

    def row_origins(self, codes: np.ndarray) -> np.ndarray:
        """The origin code of each code's plan row: a page hit's new
        center."""
        return self.origins.take(codes // self.cells)


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


def _check_codes(topology: CellTopology, thresholds, remedy: str) -> None:
    """Refuse plan rows, one per threshold, whose tables would hold more
    than ``_MAX_CODES`` codes: ``(2D + 3)**dims`` per row at the largest
    threshold ``D``.  ``remedy`` ends the message."""
    dims = _lattice_kernel(topology)[0].shape[1]
    top = max(thresholds)
    count = len(thresholds) * (2 * top + 3) ** dims
    if count > _MAX_CODES:
        raise ParameterError(
            f"{len(thresholds)} plan row(s) up to threshold {top} need {count} "
            f"packed cell codes on {topology!r}, more than {_MAX_CODES}; {remedy}"
        )


@functools.lru_cache(maxsize=32)
def _plan_tables(
    topology: CellTopology, plans: Tuple[PagingPlan, ...]
) -> _PlanTables:
    """The read-only packed-code tables of one row per paging plan.

    A terminal's coordinates relative to its center (axial on the hex
    grid) stay in ``[-D-1, D+1]``, ``D`` the largest threshold of
    ``plans``, so its cell packs into ``c = sum_i (x_i + D + 1) * b**i``
    in base ``b = 2D + 3``; a terminal paged by ``plans[r]`` holds the
    int32 code ``r * cells + c``, ``cells = b**dims``, and ``origins[r]``
    is row ``r``'s center.  Adding ``step[j]`` moves a code one cell in
    direction ``j`` (``step[degree] = 0`` is "no move").  ``fold`` maps
    a row's codes past its threshold to the row's origin (an update)
    and every other code to itself.  At a call, ``page`` gives ``r * w +
    j`` for the 0-based polling cycle ``j`` of the code's ring, and the
    ``(rows, w)`` table ``polled`` the cumulative cells polled through
    cycle ``j`` (the w_j of eqn (64)), ``w`` the largest delay bound.
    Callers bound the rows with :func:`_check_codes`.
    """
    dirs, distance = _lattice_kernel(topology)
    top = max(plan.threshold for plan in plans)
    base = 2 * top + 3
    powers = base ** np.arange(dirs.shape[1], dtype=np.int32)
    cells = base**powers.size
    rows, width = len(plans), max(plan.delay_bound for plan in plans)
    tables = _PlanTables(
        step=np.append(dirs @ powers, 0).astype(np.int32),
        base=base,
        powers=powers,
        origins=(np.arange(0, rows * cells, cells, dtype=np.int32)
                 + np.int32((top + 1) * powers.sum())),
        fold=np.empty(rows * cells, dtype=np.int32),
        page=np.empty(rows * cells, dtype=np.int32),
        # int64 like the meters: np.add.at casts other dtypes slowly.
        polled=np.empty((rows, width), dtype=np.int64),
    )
    # Each row's ring -> page lookup.  Every ring of a code is below
    # ``base``; those past the threshold only occur before the fold.
    pages = []
    for row, plan in enumerate(plans):
        ring_to_cycle, cumulative = _paging_tables(plan, topology)
        rings = np.minimum(np.arange(base), plan.threshold)
        pages.append((ring_to_cycle[rings] + row * width).astype(np.int32))
        # Pad: no plan pages past its delay bound.
        tables.polled[row] = cumulative[-1]
        tables.polled[row, : cumulative.size] = cumulative
    # Codes in chunks: decoding a whole row at once would need several
    # temporaries the size of a table.
    for start in range(0, cells, 2**16):
        codes = np.arange(start, min(start + 2**16, cells), dtype=np.int32)
        ring = distance(tables.decode(codes).T)
        for row, (plan, page) in enumerate(zip(plans, pages)):
            at = slice(row * cells + start, row * cells + start + codes.size)
            tables.fold[at] = np.where(
                ring > plan.threshold, tables.origins[row], codes + row * cells
            )
            tables.page[at] = page[ring]
    for array in (tables.step, tables.powers, tables.origins, tables.fold,
                  tables.page, tables.polled):
        array.flags.writeable = False
    return tables


def _resolve_plan(plan: Optional[PagingPlan], threshold: int, max_delay) -> PagingPlan:
    """``plan``, checked against ``threshold``, or the SDF default."""
    if plan is None:
        return sdf_partition(threshold, max_delay)
    if plan.threshold != threshold:
        raise ParameterError(f"plan is for threshold {plan.threshold}, not {threshold}")
    return plan


def _paging_tables(plan: PagingPlan, topology: CellTopology):
    """``(ring -> 0-based polling cycle, cycle -> cumulative cells
    polled)`` -- the w_j of eqn (64) -- of ``plan`` on ``topology``."""
    ring_to_cycle = np.empty(plan.threshold + 1, dtype=np.int64)
    for cycle, group in enumerate(plan.subareas):
        ring_to_cycle[list(group)] = cycle
    polled = np.asarray(plan.cumulative_polled(topology), dtype=np.int64)
    return ring_to_cycle, polled


def _block_length(terminals: int) -> int:
    """Slots per block: ~2**16 terminal-slots of draws, at most 64; one
    when under 8, which does not pay back a block's fixed cost."""
    width = 2**16 // terminals
    return min(64, width) if width >= 8 else 1


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
        _check_codes(topology, [self.threshold], "use SimulationEngine")
        self.plan = _resolve_plan(plan, self.threshold, max_delay)
        self._tables = _plan_tables(topology, (self.plan,))
        self._degree = len(self._tables.step) - 1
        self._block = _block_length(self.terminals)
        # Packed center-relative positions: the whole batch starts
        # freshly fixed at its (arbitrary) start cells.
        self._code = np.full(self.terminals, self._tables.origins[0], dtype=np.int32)
        if walk is not None:
            if walk.drift_direction >= self._degree:
                raise ParameterError(
                    f"drift_direction {walk.drift_direction} out of range for "
                    f"{topology!r} (degree {self._degree})"
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
        """Run ``slots`` steps of the uniform walk or the CTRW, in blocks."""
        while slots > 0:
            width = min(self._block, slots)
            if self.walk_spec is None:
                called, direction = self._uniform_block(width)
            else:
                called, direction = self._ctrw_block(width)
            self._strategy_pass(called, direction)
            self._metered_slots += width
            self.slot += width
            slots -= width

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
        for updates, polled in zip(d_updates.tolist(), d_polled.tolist()):
            update_cost.inc(updates * U)
            paging_cost.inc(polled * V)

    def result(self) -> ReplicatedResult:
        """Freeze a copy of the per-terminal meters into a pooled result;
        its :class:`MeterSnapshot` list is built when first read."""
        slots, costs, *arrays = self._meters()
        meters = (slots, costs, *[array.copy() for array in arrays])
        return ReplicatedResult(
            snapshots=functools.partial(_meter_snapshots, *meters),
            columns=_meter_columns(*meters),
        )

    def snapshots(self) -> List[MeterSnapshot]:
        """One :class:`MeterSnapshot` per terminal (CostMeter semantics)."""
        return _meter_snapshots(*self._meters())

    @property
    def _pos(self) -> np.ndarray:
        """The ``(dims, K)`` center-relative native coordinates the
        codes pack (axial on the hex grid)."""
        return self._tables.decode(self._code)

    # -- internals --------------------------------------------------------

    def _meters(self) -> tuple:
        """The arguments of :func:`_meter_snapshots` for the live meters."""
        return (
            self._metered_slots, self.costs, self._moves, self._updates,
            self._calls, self._polled_cells, self._cost_sum, self._cost_sq_sum,
            self._delay_counts,
        )

    def _uniform_block(self, width: int) -> Tuple[np.ndarray, np.ndarray]:
        """The uniform walk's ``(K, width)`` call flags and directions,
        with the hashes of :class:`~repro.simulation.fleet.FleetShardEngine`.
        """
        c, q = self.mobility.call_probability, self.mobility.move_probability
        streams = slot_keys(self._seed, _UNIFORM_STREAMS, self.slot, width)
        keys = self._idx_keys[:, None]
        if self.event_mode == "exclusive":
            u = key_uniforms(keys ^ streams[0])
            called = u < c
            moved = (u < c + q) & ~called
        else:
            u = key_uniforms(keys ^ streams[:2, None])
            moved, called = u[0] < q, u[1] < c
        movers = np.flatnonzero(moved)
        terminal, offset = np.divmod(movers, width)
        unit = key_uniforms(self._idx_keys[terminal] ^ streams[2, offset])
        direction = np.full(moved.shape, self._degree, dtype=np.int8)
        direction.flat[movers] = (unit * float(self._degree)).astype(np.int8)
        return called, direction

    def _ctrw_block(self, width: int) -> Tuple[np.ndarray, np.ndarray]:
        """The CTRW's ``(K, width)`` call flags and directions.

        Timed slot semantics (as in SimulationEngine): a call draw per
        slot, and a move in the slot the residence clock expires, so
        ``event_mode`` plays no role.  Each round of the clock loop
        handles the next expiry of every terminal still inside the block.
        """
        spec = self.walk_spec
        streams = slot_keys(self._seed, _CTRW_STREAMS, self.slot, width)
        u = key_uniforms(self._idx_keys[:, None] ^ streams[0])
        called = u < self.mobility.call_probability
        direction = np.full(called.shape, self._degree, dtype=np.int8)
        # Block offset of each terminal's next move: a clock reading r
        # at the block start expires r - 1 slots in.
        due = self._residence - 1
        moving = np.flatnonzero(due < width)
        while moving.size:
            offset = due[moving]
            u_dir, u_branch, u_value = key_uniforms(
                self._idx_keys[moving] ^ streams[1:].take(offset, axis=1)
            )
            turn = drifted_directions(
                u_dir, self._degree, spec.drift, spec.drift_direction,
                spec.persistence, self._last_dir[moving],
            )
            self._last_dir[moving] = turn
            direction.flat[moving * width + offset] = turn
            # Re-arm the movers' clocks for their new cells.
            offset += spec.residence.from_uniforms(u_branch, u_value)
            due[moving] = offset
            moving = moving[offset < width]
        self._residence = due - (width - 1)
        return called, direction

    def _strategy_pass(self, called: np.ndarray, direction: np.ndarray) -> None:
        """Apply a block's events -- terminal-slots with a call, a move or
        both, call first -- to the strategy, round ``r`` replaying every
        terminal's ``r``-th event; costs fold in per terminal in slot order.
        """
        width = called.shape[1]
        moved = direction != self._degree
        events = np.flatnonzero(called | moved)
        terminal = events // width
        first = np.flatnonzero(np.concatenate(([True], terminal[1:] != terminal[:-1])))
        rank = np.arange(events.size)
        rank -= np.repeat(first, np.diff(first, append=events.size))
        order = np.argsort(rank.astype(np.int8), kind="stable")
        events, who = events[order], terminal[order]
        call = called.ravel()[events]
        # An event maps code x to x * keep + shift: a page hit makes the
        # terminal's cell the new center (the origin), then it steps.
        keep = (~call).astype(np.int32)
        shift = self._tables.step.take(direction.ravel()[events])
        shift += call * self._tables.origins[0]
        before = np.empty(events.size, dtype=np.int32)
        after = np.empty(events.size, dtype=np.int32)
        code, fold = self._code, self._tables.fold
        start = 0
        for stop in np.cumsum(np.bincount(rank)).tolist():
            t = who[start:stop]
            now, moved_to = before[start:stop], after[start:stop]
            # "clip" writes straight into `now`; "raise" would buffer.
            code.take(t, out=now, mode="clip")
            np.multiply(now, keep[start:stop], out=moved_to)
            moved_to += shift[start:stop]
            # Crossing the residing-area boundary triggers an update
            # and re-centers the terminal.
            code[t] = fold.take(moved_to)
            start = stop
        crossed = fold.take(after) != after
        at_call, callers = before[call], who[call]
        # One plan row: the page of a call is its polling cycle.
        cycles = self._tables.page.take(at_call)
        polled = self._tables.polled.take(cycles)
        if self._ring_hits is not None:
            _, distance = _lattice_kernel(self.topology)
            rings = distance(self._tables.decode(at_call).T)
            self._ring_hits += np.bincount(rings, minlength=self.threshold + 1)
        np.add.at(self._calls, callers, 1)
        np.add.at(self._polled_cells, callers, polled)
        cells = self._delay_counts.ravel()  # (terminal, cycle) flattened
        np.add.at(cells, callers * self._delay_counts.shape[1] + cycles, 1)
        np.add.at(self._moves, who[moved.ravel()[events]], 1)
        np.add.at(self._updates, who[crossed], 1)
        cost = np.zeros(events.size)
        cost[call] = self.costs.poll_cost * polled
        cost[crossed] += self.costs.update_cost
        np.add.at(self._cost_sum, who, cost)
        np.add.at(self._cost_sq_sum, who, cost * cost)


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
    dirs, distance = _lattice_kernel(trace.topology)
    plan = _resolve_plan(plan, threshold, max_delay)
    ring_to_cycle, cumulative_polled = _paging_tables(plan, trace.topology)

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
    columns = (moves, updates, calls, polled_cells, cost_sum, cost_sq_sum)
    meters = [np.array([value]) for value in columns] + [delay_counts[None, :]]
    return _meter_snapshots(len(trace.steps), costs, *meters)[0]


def _meter_columns(
    slots, costs, moves, updates, calls, polled_cells, cost_sum, cost_sq_sum,
    delay_counts,
) -> MeterColumns:
    """CostMeter accounting of ``(K,)`` meter columns, as columns;
    element-wise IEEE arithmetic gives the floats a per-terminal loop
    gives, and the delay sums are exact integers."""
    K = len(moves)

    def per_slot(total: np.ndarray) -> np.ndarray:
        return total / slots if slots else np.zeros(K)

    weighted = delay_counts @ np.arange(1.0, delay_counts.shape[1] + 1)
    return MeterColumns(
        calls=calls,
        mean_total_cost=per_slot(cost_sum),
        mean_update_cost=per_slot(updates * costs.update_cost),
        mean_paging_cost=per_slot(polled_cells * costs.poll_cost),
        mean_paging_delay=np.divide(weighted, calls, out=np.zeros(K), where=calls > 0),
    )


def _meter_snapshots(
    slots, costs, moves, updates, calls, polled_cells, cost_sum, cost_sq_sum,
    delay_counts,
) -> List[MeterSnapshot]:
    """The :func:`_meter_columns` accounting as one snapshot per terminal."""
    columns = _meter_columns(
        slots, costs, moves, updates, calls, polled_cells, cost_sum, cost_sq_sum,
        delay_counts,
    )
    mean = columns.mean_total_cost
    if slots >= 2:
        var = np.maximum(cost_sq_sum / slots - mean * mean, 0.0)
        half = _Z95 * np.sqrt(var / slots)
    else:
        half = np.full(len(moves), math.inf)
    U, V = costs.update_cost, costs.poll_cost
    return [
        MeterSnapshot(
            slots=slots,
            moves=m,
            updates=u,
            calls=c,
            polled_cells=p,
            update_cost=u * U,
            paging_cost=p * V,
            mean_total_cost=mean_k,
            total_cost_half_width_95=half_k,
            mean_paging_delay=delay_k,
            delay_histogram={cycle + 1: n for cycle, n in enumerate(row) if n},
        )
        for m, u, c, p, mean_k, half_k, delay_k, row in zip(
            *(column.tolist() for column in (moves, updates, calls, polled_cells)),
            mean.tolist(), half.tolist(), columns.mean_paging_delay.tolist(),
            delay_counts.tolist(),
        )
    ]


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
