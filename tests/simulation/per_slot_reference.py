"""Per-slot reference of the vectorized engine's step.

:class:`PerSlotReference` steps the same terminals as a
:class:`~repro.simulation.vectorized.VectorizedDistanceEngine` one slot
at a time, with one counter-RNG draw per terminal and slot and NumPy
boolean masks -- the step the engine ran before it stepped blocks of
slots.  It keeps its own copy of every piece of engine state, so a test
can run both side by side and compare them after every ``run()``.
"""

import numpy as np

from repro.simulation.kernels import (
    STREAM_CALL,
    STREAM_DIRECTION,
    STREAM_EVENT,
    STREAM_RESIDENCE,
    STREAM_RESIDENCE_BRANCH,
    counter_uniforms,
    drifted_directions,
    terminal_keys,
)
from repro.simulation.vectorized import _lattice_kernel


class PerSlotReference:
    """The per-slot step over the configuration of ``engine``.

    Positions are ``(K, dims)`` native lattice coordinates (axial on
    the hex grid).  Build it before the engine runs.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        K = engine.terminals
        self.seed = engine._seed
        self.keys = terminal_keys(0, K)
        self.dirs, self.distance = _lattice_kernel(engine.topology)
        self.ring_to_cycle = engine._ring_to_cycle
        self.cumulative_polled = engine._cumulative_polled
        self.pos = np.zeros((K, self.dirs.shape[1]), dtype=np.int64)
        self.slot = 0
        spec = engine.walk_spec
        if spec is not None:
            self.residence = spec.residence.from_uniforms(
                counter_uniforms(self.keys, self.seed, STREAM_RESIDENCE_BRANCH, -1),
                counter_uniforms(self.keys, self.seed, STREAM_RESIDENCE, -1),
            )
            self.last_dir = np.full(K, -1, dtype=np.int64)
        self.reset_meters()

    def reset_meters(self) -> None:
        K = self.engine.terminals
        self.metered_slots = 0
        self.moves = np.zeros(K, dtype=np.int64)
        self.updates = np.zeros(K, dtype=np.int64)
        self.calls = np.zeros(K, dtype=np.int64)
        self.polled_cells = np.zeros(K, dtype=np.int64)
        self.cost_sum = np.zeros(K, dtype=np.float64)
        self.cost_sq_sum = np.zeros(K, dtype=np.float64)
        self.delay_counts = np.zeros((K, self.engine.plan.delay_bound), dtype=np.int64)
        self.ring_hits = np.zeros(self.engine.threshold + 1, dtype=np.int64)

    def run(self, slots: int) -> None:
        step = self.step_uniform if self.engine.walk_spec is None else self.step_ctrw
        for _ in range(slots):
            step()

    # -- one slot ---------------------------------------------------------

    def _uniforms(self, keys, stream):
        return counter_uniforms(keys, self.seed, stream, self.slot)

    def _handle_calls(self, called, slot_cost) -> None:
        rings = self.distance(self.pos[called])
        np.add.at(self.ring_hits, rings, 1)
        cycles = self.ring_to_cycle[rings]
        polled = self.cumulative_polled[cycles]
        self.calls[called] += 1
        self.polled_cells[called] += polled
        np.add.at(self.delay_counts, (np.nonzero(called)[0], cycles), 1)
        slot_cost[called] += self.engine.costs.poll_cost * polled
        self.pos[called] = 0

    def _finish_moves(self, movers, slot_cost) -> None:
        self.moves[movers] += 1
        updating = movers[self.distance(self.pos[movers]) > self.engine.threshold]
        if updating.size:
            self.updates[updating] += 1
            slot_cost[updating] += self.engine.costs.update_cost
            self.pos[updating] = 0

    def _finish_slot(self, slot_cost) -> None:
        self.cost_sum += slot_cost
        self.cost_sq_sum += slot_cost * slot_cost
        self.metered_slots += 1
        self.slot += 1

    def step_uniform(self) -> None:
        mobility = self.engine.mobility
        c, q = mobility.call_probability, mobility.move_probability
        u = self._uniforms(self.keys, STREAM_EVENT)
        if self.engine.event_mode == "exclusive":
            called = u < c
            moved = (~called) & (u < c + q)
        else:
            moved = u < q
            called = self._uniforms(self.keys, STREAM_CALL) < c
        slot_cost = np.zeros(self.engine.terminals)
        if called.any():
            self._handle_calls(called, slot_cost)
        if moved.any():
            movers = np.nonzero(moved)[0]
            unit = self._uniforms(self.keys[movers], STREAM_DIRECTION)
            directions = (unit * float(self.dirs.shape[0])).astype(np.int64)
            self.pos[movers] += self.dirs[directions]
            self._finish_moves(movers, slot_cost)
        self._finish_slot(slot_cost)

    def step_ctrw(self) -> None:
        spec = self.engine.walk_spec
        c = self.engine.mobility.call_probability
        called = self._uniforms(self.keys, STREAM_CALL) < c
        slot_cost = np.zeros(self.engine.terminals)
        if called.any():
            self._handle_calls(called, slot_cost)
        self.residence -= 1
        moved = self.residence <= 0
        if moved.any():
            movers = np.nonzero(moved)[0]
            keys = self.keys[movers]
            directions = drifted_directions(
                self._uniforms(keys, STREAM_DIRECTION),
                self.dirs.shape[0],
                spec.drift,
                spec.drift_direction,
                spec.persistence,
                self.last_dir[movers],
            )
            self.last_dir[movers] = directions
            self.pos[movers] += self.dirs[directions]
            self.residence[movers] = spec.residence.from_uniforms(
                self._uniforms(keys, STREAM_RESIDENCE_BRANCH),
                self._uniforms(keys, STREAM_RESIDENCE),
            )
            self._finish_moves(movers, slot_cost)
        self._finish_slot(slot_cost)

    # -- comparison -------------------------------------------------------

    def mismatches(self) -> list:
        """Names of the engine state fields that differ from this one."""
        engine = self.engine
        checks = {
            "slot": engine.slot == self.slot,
            "metered_slots": engine._metered_slots == self.metered_slots,
            # The engine's packed codes, decoded to (dims, K) rows.
            "positions": np.array_equal(engine._pos.T, self.pos),
            "moves": np.array_equal(engine._moves, self.moves),
            "updates": np.array_equal(engine._updates, self.updates),
            "calls": np.array_equal(engine._calls, self.calls),
            "polled_cells": np.array_equal(engine._polled_cells, self.polled_cells),
            "cost_sum": np.array_equal(engine._cost_sum, self.cost_sum),
            "cost_sq_sum": np.array_equal(engine._cost_sq_sum, self.cost_sq_sum),
            "delay_counts": np.array_equal(engine._delay_counts, self.delay_counts),
        }
        if engine._ring_hits is not None:
            checks["ring_hits"] = np.array_equal(engine._ring_hits, self.ring_hits)
        if engine.walk_spec is not None:
            checks["residence"] = np.array_equal(engine._residence, self.residence)
            checks["last_dir"] = np.array_equal(engine._last_dir, self.last_dir)
        return [name for name, ok in checks.items() if not ok]
