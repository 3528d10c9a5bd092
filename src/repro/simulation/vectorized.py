"""Batched NumPy simulation of the distance strategy.

:class:`VectorizedDistanceEngine` simulates ``K`` independent terminals
of the distance-based scheme as one batched ring-distance chain.  Every
draw is a hash of ``(seed, stream, slot, terminal index)`` from the
stateless SplitMix64 counter RNG of :mod:`repro.simulation.kernels`, so
terminal ``k`` follows the trajectory of terminal ``k`` of a one-shard
fleet with the same seed.  That is two to three orders of magnitude
more terminal-slots per second than stepping
:class:`~repro.simulation.engine.SimulationEngine` one cell at a time.

The block step
--------------

This engine and the fleet shards of :mod:`repro.simulation.fleet` run
one step, :class:`_BlockStep`, over per-terminal columns; a homogeneous
batch is the case where every terminal has the same cuts and plan row.
It advances ``B = min(64, 2**16 // K)`` slots per block, and one slot
when that is fewer than 8 (K > 8192): small batches amortize Python
dispatch over up to 64 slots, while a block of 2-7 slots does not pay
back its fixed cost.

1. *Draw.*  The block's ``(K, B)`` grid of terminal keys XOR slot keys
   is hashed in place in two buffers reused every block, and its top
   53 bits are compared with per-terminal integer cuts of the event and
   call probabilities, which is exactly the float test ``u < p``.
   Each event hashes a direction, the float draw ``int(u * degree)``.
   A CTRW's residence clocks instead advance in rounds, each hashing
   the direction and re-arm draws of every terminal's next expiry
   inside the block.
2. *Replay.*  Round ``r`` applies the ``r``-th event of every terminal,
   a call before the same slot's move.  A round is five NumPy calls on
   one int32 code per terminal: gather the codes, reset the callers
   and step (``code * keep + shift``; a page hit re-centers on the
   origin of the terminal's plan row), fold through a table, and
   scatter.  A one-slot block is one round, without the rank sort.
3. *Ledger.*  Each engine books the events in its own ledger: this
   engine in per-terminal :class:`CostMeter` columns, a fleet shard in
   O(1) aggregates.

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
one int32 code in base ``2d + 3``.  :func:`_plan_tables` builds, once
per ``(topology, plans)``, two read-only int32 tables of ``(2d +
3)**dims`` entries per plan row that give every code's page at a call
and fold the codes of ring ``d + 1`` -- an update -- back to the
origin.  This engine is the one-row case; a fleet shard has one row
per distinct threshold.  CTRW mobility (``walk=CTRWSpec(...)``) follows
the timed slot semantics of :mod:`repro.mobility.ctrw`.

``run()`` returns a :class:`~repro.simulation.runner.ReplicatedResult`
over a frozen copy of the per-terminal meter columns; its
:class:`MeterSnapshot` list is built only when first read.  Event logs,
fault models, arbitrary walkers or arrival processes, and non-distance
strategies need :class:`~repro.simulation.engine.SimulationEngine`.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.parameters import (
    CostParams, MobilityParams, validate_delay, validate_threshold,
)
from ..exceptions import ParameterError
from ..geometry.hex import AXIAL_DIRECTIONS, HexTopology
from ..geometry.line import LineTopology
from ..geometry.square import SQUARE_DIRECTIONS, SquareTopology
from ..geometry.topology import CellTopology
from ..observability.context import current as _observability
from ..paging import PagingPlan, sdf_partition
from ..mobility.ctrw import CTRWSpec
from .kernels import (
    _INV53,
    _S11,
    STREAM_CALL,
    STREAM_DIRECTION,
    STREAM_EVENT,
    STREAM_RESIDENCE,
    STREAM_RESIDENCE_BRANCH,
    counter_uniforms,
    drifted_directions,
    key_uniforms,
    mix64_into,
    slot_keys,
    terminal_keys,
    uniform_cuts,
)
from .engine import _check_event_mode
from .metrics import MeterColumns, MeterSnapshot
from .runner import ReplicatedResult

__all__ = [
    "VectorizedDistanceEngine",
    "replay_trace_meters",
    "throughput_report",
]

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
    norm: Callable[[np.ndarray], np.ndarray]

    @property
    def cells(self) -> int:
        """Codes per plan row, ``base**dims``."""
        return self.base**self.powers.size

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The ``(dims, K)`` center-relative native coordinates (axial on
        the hex grid) that ``codes`` pack; the plan row drops out."""
        return codes // self.powers[:, None] % self.base - self.base // 2

    def rings(self, codes: np.ndarray) -> np.ndarray:
        """The ring of each code's cell around its center."""
        return self.norm(self.decode(codes))

    def row_origins(self, codes: np.ndarray) -> np.ndarray:
        """The origin code of each code's plan row: a page hit's new
        center."""
        return self.origins.take(codes // self.cells)


def _lattice_kernel(topology: CellTopology):
    """``(directions, norm)`` of a lattice the array engines step: the
    ``(degree, dims)`` direction vectors, in the order seeded walks
    index them, and the ring distance of ``(dims, K)`` center-relative
    coordinates."""
    if isinstance(topology, LineTopology):
        return np.array([[-1], [1]]), lambda x: np.abs(x[0])
    if isinstance(topology, HexTopology):
        return np.array(AXIAL_DIRECTIONS), lambda x: (
            np.abs(x[0]) + np.abs(x[1]) + np.abs(x[0] + x[1])
        ) // 2
    if isinstance(topology, SquareTopology):
        return np.array(SQUARE_DIRECTIONS), lambda x: np.abs(x[0]) + np.abs(x[1])
    raise ParameterError(
        f"the array engines support LineTopology, HexTopology, and "
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
    direction ``j`` of the lattice (``step[degree] = 0`` is "no move"),
    and ``norm`` is the ring distance of decoded coordinates (see
    :func:`_lattice_kernel`, which the table builder alone reads).  ``fold``
    maps a row's codes past its threshold to the row's origin (an
    update) and every other code to itself.  At a call, ``page`` gives
    ``r * w + j`` for the 0-based polling cycle ``j`` of the code's
    ring, and the ``(rows, w)`` table ``polled`` the cumulative cells
    polled through cycle ``j`` (the w_j of eqn (64)), ``w`` the largest
    delay bound.  Callers bound the rows with :func:`_check_codes`.
    """
    dirs, norm = _lattice_kernel(topology)
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
        norm=norm,
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
        ring = tables.rings(codes)
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


def _event_instruments(registry, **labels) -> dict:
    """The counters and delay histogram both array engines report into."""
    return {
        "slots": registry.counter("slots_total", **labels),
        "moves": registry.counter("moves_total", **labels),
        "updates": registry.counter("updates_total", trigger="distance", **labels),
        "calls": registry.counter("calls_total", **labels),
        "polled": registry.counter("polled_cells_total", **labels),
        "delay": registry.histogram("paging_delay_cycles", **labels),
        "update_cost": registry.counter("update_cost_total", **labels),
        "paging_cost": registry.counter("paging_cost_total", **labels),
    }


def _block_length(terminals: int) -> int:
    """Slots per block: ~2**16 terminal-slots of draws, at most 64; one
    when under 8, which does not pay back a block's fixed cost."""
    width = 2**16 // terminals
    return min(64, width) if width >= 8 else 1


class _Events(NamedTuple):
    """One block's events after the replay, in replay order."""

    events: np.ndarray  # flat (terminal, slot in the block) index
    who: np.ndarray  # the terminal
    moved: np.ndarray  # stepped (bool)
    calls: np.ndarray  # positions of the calls
    callers: np.ndarray  # their terminals
    updates: np.ndarray  # positions of the updates
    at_call: np.ndarray  # each caller's code when paged
    pages: np.ndarray  # each caller's page, row * w + cycle
    polled: np.ndarray  # each caller's cells polled


class _BlockStep:
    """The block step both array engines run (see the module docstring);
    a subclass books each block's events in ``_book(width, events)``."""

    #: A CTRW walk, or None for the uniform walk.
    walk_spec: Optional[CTRWSpec] = None

    def _setup(self, tables: _PlanTables, codes: np.ndarray, q, c, offset: int,
               seed: int, event_mode: str) -> None:
        """Step ``codes`` through ``tables`` with move and call
        probabilities ``q`` and ``c`` (columns or scalars), keyed by the
        global terminal indices ``offset ..``."""
        _check_event_mode(event_mode)
        self.event_mode = event_mode
        self._seed = seed
        self._tables = tables
        self._degree = tables.step.size - 1
        self._code = codes
        self.terminals = K = codes.size
        self._block = _block_length(K)
        # One block's hash buffers and hit flags; until the first block,
        # the second buffer is the scratch space of the cuts and keys.
        size = K * self._block
        self._hash_buffers = (np.empty(size, np.uint64), np.empty(size, np.uint64))
        self._hits = np.empty(size, dtype=bool)
        scratch = self._hash_buffers[1][:K].view(np.float64)
        # Integer cuts on the event and call draws.  Exclusive: one event
        # draw calls below the call cut, else moves below the cut of the
        # rounded q + c (raised to the call cut).  Independent: the event
        # draw moves and a call-stream draw calls.
        call_cut = uniform_cuts(c, np.empty(K, np.uint64), scratch)
        if event_mode == "exclusive":
            event_cut = uniform_cuts(np.add(q, c, out=scratch), np.empty(K, np.uint64), scratch)
            np.maximum(event_cut, call_cut, out=event_cut)
        else:
            event_cut = uniform_cuts(q, np.empty(K, np.uint64), scratch)
        self._cuts = (event_cut, call_cut)
        self._idx_keys = terminal_keys(offset, K, self._hash_buffers[1][:K])
        self.slot = 0

    @property
    def _pos(self) -> np.ndarray:
        """The ``(dims, K)`` coordinates (axial on hex) the codes pack."""
        return self._tables.decode(self._code)

    def _advance(self, slots: int) -> None:
        """Run ``slots`` steps of the uniform walk or the CTRW, in blocks."""
        if slots < 0:
            raise ParameterError(f"slots must be >= 0, got {slots}")
        draw = self._uniform_block if self.walk_spec is None else self._ctrw_block
        while slots > 0:
            width = min(self._block, slots)
            self._book(width, self._replay(width, *draw(width)))
            self._metered_slots += width
            self.slot += width
            slots -= width

    def _bits(self, keys: np.ndarray, slot_keys: np.ndarray) -> np.ndarray:
        """Top 53 bits of the counter hash of ``keys ^ slot_keys``
        (broadcast), written into the first hash buffer."""
        shape = np.broadcast_shapes(keys.shape, slot_keys.shape)
        size = math.prod(shape)
        x, scratch = (buffer[:size].reshape(shape) for buffer in self._hash_buffers)
        np.bitwise_xor(keys, slot_keys, out=x)
        mix64_into(x, scratch)
        x >>= _S11
        return x

    def _uniform_block(self, width: int):
        """The uniform walk's events in the next ``width`` slots, in
        terminal-major order: ``(events, who, call, moved, shift)``, where
        ``events`` are flat ``(K, width)`` indices and ``shift`` is the
        step's code delta (0 if no move)."""
        K = self.terminals
        streams = slot_keys(self._seed, _UNIFORM_STREAMS, self.slot, width)
        event_cut, call_cut = self._cuts
        keys = self._idx_keys[:, None]
        bits = self._bits(keys, streams[0])
        hit = np.less(bits, event_cut[:, None],
                      out=self._hits[: K * width].reshape(K, width))
        if self.event_mode == "exclusive":
            events = np.flatnonzero(hit)
            who = events if width == 1 else events // width
            call = bits.ravel().take(events) < call_cut.take(who)
            moved = ~call
        else:
            called = self._bits(keys, streams[1]) < call_cut[:, None]
            events = np.flatnonzero(hit | called)
            who = events if width == 1 else events // width
            call, moved = called.ravel().take(events), hit.ravel().take(events)
        # Every event hashes a direction, the float draw int(u * degree);
        # only movers step.
        slot = 0 if width == 1 else events - who * width
        unit = self._bits(self._idx_keys.take(who), streams[2].take(slot)) * _INV53
        shift = self._tables.step.take((unit * float(self._degree)).astype(np.intp))
        shift *= moved
        return events, who, call, moved, shift

    def _ctrw_block(self, width: int):
        """The CTRW's events in the next ``width`` slots, as
        :meth:`_uniform_block` gives them.

        Timed slot semantics (as in SimulationEngine): a call draw per
        slot, and a move in the slot the residence clock expires, so
        ``event_mode`` plays no role.  Each round of the clock loop
        handles the next expiry of every terminal still inside the block.
        """
        K = self.terminals
        spec = self.walk_spec
        streams = slot_keys(self._seed, _CTRW_STREAMS, self.slot, width)
        called = np.less(self._bits(self._idx_keys[:, None], streams[0]),
                         self._cuts[1][:, None],
                         out=self._hits[: K * width].reshape(K, width))
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
        moved = direction != self._degree
        events = np.flatnonzero(called | moved)
        return (events, events // width, called.ravel().take(events),
                moved.ravel().take(events), self._tables.step.take(direction.ravel().take(events)))

    def _replay(self, width, events, who, call, moved, shift) -> _Events:
        """Apply a block's events -- terminal-slots with a call, a move or
        both, call first -- to the codes, round ``r`` replaying every
        terminal's ``r``-th event."""
        if width > 1:
            first = np.flatnonzero(np.concatenate(([True], who[1:] != who[:-1])))
            rank = np.arange(who.size)
            rank -= np.repeat(first, np.diff(first, append=who.size))
            order = np.argsort(rank.astype(np.int8), kind="stable")
            events, who, call, moved, shift = (
                array[order] for array in (events, who, call, moved, shift)
            )
            stops = np.cumsum(np.bincount(rank)).tolist()
        else:
            # At most one event per terminal: one round.
            stops = [who.size]
        tables = self._tables
        code, fold = self._code, tables.fold
        # An event maps code x to x * keep + shift: a page hit makes the
        # terminal's cell the new center (its plan row's origin, which
        # the block-start code gives, as a row never changes), then it
        # steps.
        calls = np.flatnonzero(call)
        callers = who.take(calls)
        keep = (~call).astype(np.int32)
        shift[calls] += tables.row_origins(code.take(callers))
        before = np.empty(who.size, dtype=np.int32)
        after, folded = np.empty_like(before), np.empty_like(before)
        start = 0
        for stop in stops:
            t = who[start:stop]
            now, moved_to = before[start:stop], after[start:stop]
            # "clip" writes straight into the output; "raise" would buffer.
            code.take(t, out=now, mode="clip")
            np.multiply(now, keep[start:stop], out=moved_to)
            moved_to += shift[start:stop]
            # Crossing the residing-area boundary triggers an update
            # and re-centers the terminal.
            code[t] = fold.take(moved_to, out=folded[start:stop], mode="clip")
            start = stop
        at_call = before.take(calls)
        pages = tables.page.take(at_call)
        return _Events(
            events, who, moved, calls, callers, np.flatnonzero(folded != after),
            at_call, pages, tables.polled.take(pages),
        )


class VectorizedDistanceEngine(_BlockStep):
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
        self.walk_spec = walk
        if seed is None:
            seed = 0
        if not isinstance(seed, (int, np.integer)):
            raise ParameterError(
                f"the counter RNG needs an integer seed; got {seed!r}"
            )
        _check_codes(topology, [self.threshold], "use SimulationEngine")
        self.plan = _resolve_plan(plan, self.threshold, max_delay)
        tables = _plan_tables(topology, (self.plan,))
        # The whole batch starts freshly fixed at its (arbitrary) start
        # cells, and every terminal has the same cuts.
        self._setup(
            tables, np.full(int(terminals), tables.origins[0], dtype=np.int32),
            mobility.move_probability, mobility.call_probability, 0, int(seed),
            event_mode,
        )
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
            self._tracer = obs.tracer
            self._instruments = _event_instruments(
                obs.registry, strategy="distance", d=self.threshold, engine="vectorized"
            )
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

    # -- internals --------------------------------------------------------

    def _meters(self) -> tuple:
        """The arguments of :func:`_meter_snapshots` for the live meters."""
        return (
            self._metered_slots, self.costs, self._moves, self._updates,
            self._calls, self._polled_cells, self._cost_sum, self._cost_sq_sum,
            self._delay_counts,
        )

    def _book(self, width: int, events: _Events) -> None:
        """Fold a block's events into the per-terminal meters; np.add.at
        applies them in replay order, so each terminal's costs add up
        in slot order."""
        who, callers = events.who, events.callers
        if self._ring_hits is not None:
            self._ring_hits += np.bincount(
                self._tables.rings(events.at_call), minlength=self.threshold + 1
            )
        np.add.at(self._calls, callers, 1)
        np.add.at(self._polled_cells, callers, events.polled)
        # One plan row: a call's page is its polling cycle.
        cells = self._delay_counts.ravel()  # (terminal, cycle) flattened
        np.add.at(cells, callers * self._delay_counts.shape[1] + events.pages, 1)
        np.add.at(self._moves, who[events.moved], 1)
        np.add.at(self._updates, who.take(events.updates), 1)
        cost = np.zeros(who.size)
        cost[events.calls] = self.costs.poll_cost * events.polled
        cost[events.updates] += self.costs.update_cost
        np.add.at(self._cost_sum, who, cost)
        np.add.at(self._cost_sq_sum, who, cost * cost)


def replay_trace_meters(
    trace,
    threshold: int,
    costs: CostParams,
    max_delay=1,
    plan: Optional[PagingPlan] = None,
) -> MeterSnapshot:
    """Replay a recorded :class:`~repro.mobility.traces.Trace` with the
    array engines' paging tables and meter arithmetic (call before move
    within a slot; ring distances from the trace's topology).

    Returns one :class:`MeterSnapshot`, which must match a replay of the
    same trace through :class:`~repro.simulation.engine.SimulationEngine`
    meter for meter (see :func:`repro.mobility.traces.replay_trace`).
    """
    threshold = validate_threshold(threshold)
    plan = _resolve_plan(plan, threshold, max_delay)
    ring_to_cycle, cumulative_polled = _paging_tables(plan, trace.topology)
    distance = trace.topology.distance
    center = here = trace.start
    moves = updates = calls = polled_cells = 0
    cost_sum = cost_sq_sum = 0.0
    delay_counts = np.zeros(plan.delay_bound, dtype=np.int64)
    U, V = costs.update_cost, costs.poll_cost
    for cell, call in trace.steps:
        slot_cost = 0.0
        if call:
            ring = distance(center, here)
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
            center = here
        if cell != here:
            here = cell
            moves += 1
            if distance(center, here) > threshold:
                updates += 1
                slot_cost += U
                center = here
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
