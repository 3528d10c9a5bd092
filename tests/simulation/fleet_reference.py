"""Boolean-mask reference of the fleet shard step.

:class:`FleetReference` is the slot step that
:class:`~repro.simulation.fleet.FleetShardEngine` ran before it moved to
index lists: it classifies every terminal through float uniforms and
boolean masks, pages and moves through masked gathers, keeps four
per-terminal event counters and stores ``(K, dims)`` int64 positions in
native lattice coordinates (axial on the hex grid), with directions and
ring distances from :mod:`repro.geometry`.  It takes the engine's
constructor arguments, so a test can build both on the same columns
and compare them after every ``run()``; it groups terminals by their
own thresholds and ignores ``plan_rows``.
"""

import math

import numpy as np

from repro.core.parameters import validate_delay
from repro.exceptions import ParameterError
from repro.geometry.topology import CellTopology
from repro.paging import sdf_partition
from repro.simulation.fleet import ShardSnapshot
from repro.simulation.kernels import (
    _INV53,
    _S11,
    STREAM_CALL as _STREAM_CALL,
    STREAM_DIRECTION as _STREAM_DIRECTION,
    STREAM_EVENT as _STREAM_EVENT,
    counter_uniforms as _counter_uniforms,
    mix64 as _mix64,
    slot_key as _slot_key,
    terminal_keys as _terminal_keys,
)
from repro.simulation.engine import _EVENT_MODES
from repro.simulation.vectorized import _Z95

from .per_slot_reference import lattice


class FleetReference:
    """The boolean-mask shard step over the same columns as the engine."""

    def __init__(
        self,
        topology: CellTopology,
        q: np.ndarray,
        c: np.ndarray,
        update_cost: np.ndarray,
        poll_cost: np.ndarray,
        threshold: np.ndarray,
        profile_index: np.ndarray,
        n_profiles: int,
        max_delay,
        plan_rows=None,
        global_offset: int = 0,
        seed: int = 0,
        event_mode: str = "exclusive",
    ) -> None:
        if event_mode not in _EVENT_MODES:
            raise ParameterError(
                f"event_mode must be one of {_EVENT_MODES}, got {event_mode!r}"
            )
        self.topology = topology
        self.max_delay = validate_delay(max_delay)
        self.event_mode = event_mode
        self.seed = int(seed)
        self.global_offset = int(global_offset)
        self._q = np.ascontiguousarray(q, dtype=np.float64)
        self._c = np.ascontiguousarray(c, dtype=np.float64)
        self._qc = self._q + self._c
        self._update_cost = np.ascontiguousarray(update_cost, dtype=np.float64)
        self._poll_cost = np.ascontiguousarray(poll_cost, dtype=np.float64)
        self._threshold = np.ascontiguousarray(threshold, dtype=np.int64)
        self._profile = np.ascontiguousarray(profile_index, dtype=np.int64)
        self.terminals = int(self._q.shape[0])
        self.n_profiles = int(n_profiles)
        if self.terminals < 1:
            raise ParameterError("shard needs at least one terminal")
        self._dirs, self._distance = lattice(topology)
        self._degree = int(self._dirs.shape[0])
        # Per-terminal paging plans, grouped into (d, m) classes: row i
        # of the lookup tables serves every terminal whose threshold is
        # unique_d[i].  ring -> 0-based polling cycle, and cycle ->
        # cumulative cells polled (w_j of eqn (64)).
        unique_d = np.unique(self._threshold)
        self._class_idx = np.ascontiguousarray(
            np.searchsorted(unique_d, self._threshold), dtype=np.int64
        )
        plans = [sdf_partition(int(d), self.max_delay) for d in unique_d]
        max_d = int(unique_d[-1])
        self.max_cycles = max(plan.delay_bound for plan in plans)
        self._ring_to_cycle = np.zeros((len(plans), max_d + 1), dtype=np.int64)
        self._cum_polled = np.zeros((len(plans), self.max_cycles), dtype=np.int64)
        for row, plan in enumerate(plans):
            for cycle, group in enumerate(plan.subareas):
                for ring in group:
                    self._ring_to_cycle[row, ring] = cycle
            cumulative = np.asarray(
                plan.cumulative_polled(topology), dtype=np.int64
            )
            self._cum_polled[row, : cumulative.shape[0]] = cumulative
            # Pad defensively: a class never pages past its own plan's
            # delay bound, but keep the tail monotone anyway.
            self._cum_polled[row, cumulative.shape[0]:] = cumulative[-1]
        # Hash keys of the *global* terminal indices, fixed once.
        self._idx_keys = _terminal_keys(self.global_offset, self.terminals)
        self._pos = np.zeros((self.terminals, self._dirs.shape[1]), dtype=np.int64)
        self.slot = 0
        self.reset_meters()

    # ------------------------------------------------------------------

    def reset_meters(self) -> None:
        """Zero the shard's accounting (positions and slot clock kept)."""
        K = self.terminals
        self._metered_slots = 0
        self._moves = np.zeros(K, dtype=np.int64)
        self._updates = np.zeros(K, dtype=np.int64)
        self._calls = np.zeros(K, dtype=np.int64)
        self._polled = np.zeros(K, dtype=np.int64)
        self._cost_sum = 0.0
        self._cost_sq_sum = 0.0
        self._delay_counts = np.zeros(self.max_cycles, dtype=np.int64)

    def _uniforms(self, stream: int, slot: int) -> np.ndarray:
        """One U(0,1) per terminal for ``(stream, slot)``, layout-free."""
        return _counter_uniforms(self._idx_keys, self.seed, stream, slot)

    def run(self, slots: int) -> None:
        """Advance every terminal in the shard ``slots`` slots."""
        if slots < 0:
            raise ParameterError(f"slots must be >= 0, got {slots}")
        for _ in range(slots):
            self._step()

    def _step(self) -> None:
        t = self.slot
        u = self._uniforms(_STREAM_EVENT, t)
        called = u < self._c
        if self.event_mode == "exclusive":
            moved = (~called) & (u < self._qc)
        else:
            moved = u < self._q
            called = self._uniforms(_STREAM_CALL, t) < self._c
        slot_cost = 0.0
        # Calls first -- the same within-slot order as the per-cell and
        # vectorized engines.
        if called.any():
            slot_cost += self._handle_calls(called)
        if moved.any():
            slot_cost += self._handle_moves(moved, t)
        self._cost_sum += slot_cost
        self._cost_sq_sum += slot_cost * slot_cost
        self._metered_slots += 1
        self.slot += 1

    def _handle_calls(self, called: np.ndarray) -> float:
        rings = self._distance(self._pos[called])
        classes = self._class_idx[called]
        cycles = self._ring_to_cycle[classes, rings]
        polled = self._cum_polled[classes, cycles]
        self._calls[called] += 1
        self._polled[called] += polled
        np.add.at(self._delay_counts, cycles, 1)
        cost = float(self._poll_cost[called] @ polled)
        # Pinpointed terminals re-center: relative position resets.
        self._pos[called] = 0
        return cost

    def _handle_moves(self, moved: np.ndarray, slot: int) -> float:
        movers = np.nonzero(moved)[0]
        h = _mix64(self._idx_keys[movers] ^ _slot_key(self.seed, _STREAM_DIRECTION, slot))
        directions = (
            (h >> _S11).astype(np.float64) * _INV53 * self._degree
        ).astype(np.int64)
        self._pos[movers] += self._dirs[directions]
        self._moves[movers] += 1
        distances = self._distance(self._pos[movers])
        updating = movers[distances > self._threshold[movers]]
        cost = 0.0
        if updating.size:
            self._updates[updating] += 1
            cost = float(self._update_cost[updating].sum())
            self._pos[updating] = 0
        return cost

    # ------------------------------------------------------------------

    def snapshot(self, index: int = 0) -> ShardSnapshot:
        """Freeze the shard's aggregates (no per-terminal data leaves)."""
        slots = self._metered_slots
        K = self.terminals
        update_cost = float(
            self._updates.astype(np.float64) @ self._update_cost
        )
        paging_cost = float(self._polled.astype(np.float64) @ self._poll_cost)
        if slots:
            # Per-slot shard cost, normalized per terminal: mean and a
            # CLT half-width over slots (the batch dimension).
            mean_slot = self._cost_sum / slots / K
        else:
            mean_slot = 0.0
        if slots >= 2:
            per_terminal_sq = self._cost_sq_sum / (K * K)
            var = max(per_terminal_sq / slots - mean_slot * mean_slot, 0.0)
            half = _Z95 * math.sqrt(var / slots)
        else:
            half = math.inf
        calls = int(self._calls.sum())
        if calls:
            delay = float(
                np.arange(1, self.max_cycles + 1, dtype=np.float64)
                @ self._delay_counts
            ) / calls
        else:
            delay = 0.0
        profile_terminals = np.bincount(self._profile, minlength=self.n_profiles)
        profile_update = np.bincount(
            self._profile,
            weights=self._updates * self._update_cost,
            minlength=self.n_profiles,
        )
        profile_paging = np.bincount(
            self._profile,
            weights=self._polled * self._poll_cost,
            minlength=self.n_profiles,
        )
        return ShardSnapshot(
            index=index,
            start=self.global_offset,
            stop=self.global_offset + K,
            slots=slots,
            moves=int(self._moves.sum()),
            updates=int(self._updates.sum()),
            calls=calls,
            polled_cells=int(self._polled.sum()),
            update_cost=update_cost,
            paging_cost=paging_cost,
            mean_total_cost=mean_slot,
            total_cost_half_width_95=half,
            mean_paging_delay=delay,
            delay_histogram={
                cycle + 1: int(count)
                for cycle, count in enumerate(self._delay_counts)
                if count
            },
            profile_terminals=tuple(int(v) for v in profile_terminals),
            profile_update_cost=tuple(float(v) for v in profile_update),
            profile_paging_cost=tuple(float(v) for v in profile_paging),
        )
