"""The discrete-time simulation engine for one terminal.

Slot semantics
--------------

The Markov chain of Sections 3-4 treats "call arrival" and "movement"
as *competing* events: from state ``i`` the chain goes to 0 with
probability ``c``, to ``i +- 1`` with probabilities ``a_i``/``b_i``
(which sum to ``q`` split over neighbors), and stays otherwise.  The
engine's default slot draw matches this exactly so that simulation
results are an unbiased estimate of the analytical quantities:

    u ~ Uniform(0, 1)
    u < c                -> call slot (page, then reset; no movement)
    c <= u < c + q       -> movement slot (move, maybe update)
    otherwise            -> idle slot

``event_mode="independent"`` draws movement and call independently per
slot (both can happen; the call is processed *before* the move, so
paging sees the position the elapsed-slot-derived radius covers) --
the physically plausible variant, used by the robustness bench to show
the model's predictions survive the relaxation for small ``q c``.

*Timed* walkers (``walk.timed`` is True, e.g.
:class:`~repro.mobility.ctrw.CTRWWalk`) carry their own residence
clock: the engine draws only the call arrival and asks the walker
``move_due()`` every slot -- there is no per-slot move probability to
compete with, so timed walkers always run the independent-within-slot
semantics (call processed first, then the move) regardless of
``event_mode``.

Per-slot sequence
-----------------

1. ``strategy.on_slot`` -- timer-driven updates fire first,
2. the event draw,
3. movement (and a possible movement/dist-triggered update),
4. call handling: poll the strategy's groups cycle by cycle until the
   group containing the terminal is reached, charge ``V`` per polled
   cell, then inform the strategy of the located position.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError, SimulationError
from ..geometry.topology import Cell, CellTopology
from ..mobility.walk import RandomWalk
from ..observability.context import current as _observability
from ..strategies.base import UpdateStrategy
from .events import EventLog, MoveEvent, PagingEvent, UpdateEvent
from .metrics import CostMeter, MeterSnapshot

__all__ = ["SimulationEngine"]

_EVENT_MODES = ("exclusive", "independent")


def _check_event_mode(event_mode: str) -> None:
    if event_mode not in _EVENT_MODES:
        raise ParameterError(f"event_mode must be one of {_EVENT_MODES}, got {event_mode!r}")


def strategy_labels(strategy: UpdateStrategy) -> dict:
    """Metric labels identifying a strategy: ``{strategy: ..., d: ...}``.

    The class name (minus the ``Strategy`` suffix, lowercased) plus the
    threshold when the strategy has one -- the label set the issue's
    metric catalog uses, e.g. ``updates_total{strategy=distance,d=3}``.
    """
    name = type(strategy).__name__
    if name.endswith("Strategy"):
        name = name[: -len("Strategy")]
    labels = {"strategy": name.lower()}
    threshold = getattr(strategy, "threshold", None)
    if threshold is not None:
        labels["d"] = threshold
    return labels


class EngineInstruments:
    """Pre-resolved metric handles for one engine instance.

    Handles are resolved once at engine construction, so the per-event
    cost is a single attribute access plus a counter increment -- and
    engines skip building this object entirely when observability is
    disabled (``engine._instruments is None``), keeping the default hot
    path free of instrumentation work.
    """

    __slots__ = (
        "slots",
        "moves",
        "updates_move",
        "updates_timer",
        "calls",
        "polled_cells",
        "delay_histogram",
        "_registry",
        "_labels",
        "_cycle_counters",
    )

    def __init__(self, registry, strategy: UpdateStrategy, engine: str) -> None:
        labels = dict(strategy_labels(strategy), engine=engine)
        self._registry = registry
        self._labels = labels
        self.slots = registry.counter("slots_total", **labels)
        self.moves = registry.counter("moves_total", **labels)
        self.updates_move = registry.counter(
            "updates_total", trigger="distance", **labels
        )
        self.updates_timer = registry.counter(
            "updates_total", trigger="timer", **labels
        )
        self.calls = registry.counter("calls_total", **labels)
        self.polled_cells = registry.counter("polled_cells_total", **labels)
        self.delay_histogram = registry.histogram("paging_delay_cycles", **labels)
        self._cycle_counters: dict = {}

    def record_call(self, polled: int, cycles: int) -> None:
        """One completed paging operation."""
        self.calls.inc()
        self.polled_cells.inc(polled)
        self.delay_histogram.observe(cycles)

    def polled_in_cycle(self, cycle: int, cells: int) -> None:
        """Per-cycle breakdown: ``polled_cells_by_cycle_total{cycle=j}``."""
        counter = self._cycle_counters.get(cycle)
        if counter is None:
            counter = self._registry.counter(
                "polled_cells_by_cycle_total", cycle=cycle, **self._labels
            )
            self._cycle_counters[cycle] = counter
        counter.inc(cells)


class SimulationEngine:
    """Drives one terminal, one strategy, and one cost meter.

    Parameters
    ----------
    topology:
        Cell geometry.
    strategy:
        The location-update strategy under test; attached to ``start``.
    mobility:
        ``(q, c)`` parameters.
    costs:
        ``(U, V)`` cost weights.
    seed:
        Seeds the engine's private RNG.
    start:
        Initial cell (defaults to the topology origin).
    event_mode:
        ``"exclusive"`` (chain-faithful, default) or ``"independent"``.
    event_log:
        Optional :class:`EventLog` to record protocol events into.
    arrivals:
        Optional call-arrival process overriding the default Bernoulli
        draw: any object with a ``step() -> bool`` method (e.g.
        :class:`~repro.mobility.arrivals.BatchedArrivals`).  Used by
        the traffic-robustness study to feed the same strategies bursty
        traffic.  With a custom process, slot semantics are: the
        process decides whether this is a call slot; otherwise the
        terminal moves with probability ``q``.
    walker_factory:
        Optional factory ``(topology, q, rng, start) -> RandomWalk``
        overriding the default uniform random walk -- e.g.
        :class:`~repro.mobility.persistent.PersistentWalk` for the
        direction-memory robustness study, or
        ``CTRWSpec.walker_factory()`` for residence-clock (timed)
        mobility (see the module docstring for timed slot semantics).
    """

    def __init__(
        self,
        topology: CellTopology,
        strategy: UpdateStrategy,
        mobility: MobilityParams,
        costs: CostParams,
        seed: Optional[int] = None,
        start: Optional[Cell] = None,
        event_mode: str = "exclusive",
        event_log: Optional[EventLog] = None,
        arrivals=None,
        walker_factory=None,
    ) -> None:
        _check_event_mode(event_mode)
        self.topology = topology
        self.strategy = strategy
        self.mobility = mobility
        self.costs = costs
        self.event_mode = event_mode
        self.rng = np.random.default_rng(seed)
        if walker_factory is None:
            self.walk = RandomWalk(
                topology, mobility.move_probability, rng=self.rng, start=start
            )
        else:
            self.walk = walker_factory(
                topology, mobility.move_probability, self.rng, start
            )
            if not isinstance(self.walk, RandomWalk):
                raise ParameterError(
                    f"walker_factory must build a RandomWalk, got {self.walk!r}"
                )
        self._timed = bool(getattr(self.walk, "timed", False))
        strategy.attach(topology, self.walk.position)
        self.meter = CostMeter(costs.update_cost, costs.poll_cost)
        self.log = event_log
        self.arrivals = arrivals
        if arrivals is not None and not callable(getattr(arrivals, "step", None)):
            raise ParameterError(
                f"arrivals must expose a step() -> bool method, got {arrivals!r}"
            )
        self.slot = 0
        # Metric handles, resolved once; None keeps the hot path clean
        # when no observability session is installed.  Instrumentation
        # never draws randomness, so enabling it cannot change results.
        obs = _observability()
        self._instruments = (
            EngineInstruments(obs.registry, strategy, engine=self._engine_label)
            if obs.enabled
            else None
        )

    #: Value of the ``engine`` metric label; subclasses override.
    _engine_label = "per-cell"

    # ------------------------------------------------------------------

    def run(self, slots: int) -> MeterSnapshot:
        """Advance ``slots`` slots and return the metric snapshot."""
        if slots < 0:
            raise ParameterError(f"slots must be >= 0, got {slots}")
        ins = self._instruments
        if ins is None:
            for _ in range(slots):
                self.step()
            return self.meter.snapshot()
        # Slot and move totals are recorded as one bulk increment per
        # run() call from the meter's own counts -- moves are ~q per
        # slot, and a per-event instrument call there is the difference
        # between <1% and >2% overhead on the armed-no-op bench guard.
        moves_before = self.meter.moves
        for _ in range(slots):
            self.step()
        ins.slots.inc(slots)
        moved = self.meter.moves - moves_before
        if moved:
            ins.moves.inc(moved)
        return self.meter.snapshot()

    def step(self) -> None:
        """Advance exactly one slot."""
        meter = self.meter
        meter.begin_slot()
        try:
            self._run_slot()
        finally:
            meter.end_slot()
        self.slot += 1

    # -- internals --------------------------------------------------------

    def _run_slot(self) -> None:
        c = self.mobility.call_probability
        q = self.mobility.move_probability

        if self.strategy.on_slot(self.walk.position, self.slot):
            self._perform_update(timer=True)

        if self._timed:
            # Timed walkers (residence clocks): the call is the only
            # per-slot draw, processed before the move so paging sees
            # the pre-move position; the clock ticks every slot.
            if self.arrivals is not None:
                called = self.arrivals.step()
            else:
                called = self.rng.random() < c
            if called:
                self._handle_call()
            if self.walk.move_due():
                self._handle_move()
        elif self.arrivals is not None:
            if self.arrivals.step():
                self._handle_call()
            elif self.rng.random() < q:
                self._handle_move()
        elif self.event_mode == "exclusive":
            u = self.rng.random()
            if u < c:
                self._handle_call()
            elif u < c + q:
                self._handle_move()
        else:
            moved = self.rng.random() < q
            called = self.rng.random() < c
            # The call is processed before the movement: the paging
            # radius strategies derive from elapsed slots/moves covers
            # everything up to the *previous* slot, so paging must see
            # the pre-move position.  (Found by the fuzz suite: with
            # move-then-call, a timer update plus a move plus a call in
            # one slot paged a radius-0 area around a stale center.)
            if called:
                self._handle_call()
            if moved:
                self._handle_move()

    def _handle_move(self) -> None:
        position = self.walk.move()
        self.meter.note_move()  # moves_total is flushed in bulk by run()
        if self.log is not None:
            self.log.append(
                MoveEvent(
                    slot=self.slot,
                    cell=position,
                    distance_from_center=self.topology.distance(
                        self.strategy.last_known, position
                    ),
                )
            )
        if self.strategy.on_move(position):
            self._perform_update(timer=False)

    def _perform_update(self, timer: bool) -> None:
        position = self.walk.position
        self.meter.charge_update()
        self.strategy.on_location_known(position)
        if self._instruments is not None:
            ins = self._instruments
            (ins.updates_timer if timer else ins.updates_move).inc()
        if self.log is not None:
            self.log.append(
                UpdateEvent(slot=self.slot, cell=position, timer_triggered=timer)
            )

    def _handle_call(self) -> None:
        position = self.walk.position
        ins = self._instruments
        polled = 0
        cycles = 0
        found = False
        for group in self.strategy.polling_groups():
            cycles += 1
            polled += len(group)
            if ins is not None:
                ins.polled_in_cycle(cycles, len(group))
            if position in group:
                found = True
                break
        if not found:
            raise SimulationError(
                f"paging failed: terminal at {position!r} not covered by "
                f"{self.strategy!r} (center {self.strategy.last_known!r}); "
                "the strategy's uncertainty tracking is broken"
            )
        self.meter.charge_paging(cells_polled=polled, cycles=cycles)
        if ins is not None:
            ins.record_call(polled, cycles)
        self.strategy.on_location_known(position)
        if self.log is not None:
            self.log.append(
                PagingEvent(
                    slot=self.slot, cell=position, cells_polled=polled, cycles=cycles
                )
            )
