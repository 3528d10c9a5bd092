"""Composable fault models for the signaling plane.

The paper's analysis assumes a perfect signaling plane: every location
update reaches the register, every page is heard, every base station is
up, every register read is fresh.  Each class here breaks exactly one
of those assumptions as a small seedable stochastic process, behind the
common :class:`FaultModel` interface, so an engine can compose any
subset of them in one run instead of needing a bespoke engine subclass
per failure scenario.

A fault model is passive: it never touches the engine.  The engine
calls the hooks at well-defined protocol points and combines the
answers conservatively (a transaction succeeds only if *every* fault
model lets it through).  Hooks a model does not care about keep the
base-class no-fault default, which is what makes composition free.

Time is measured in *ticks*: the engine advances one tick per slot and
one extra tick per polling cycle during a call, so that long recovery
sequences experience the passage of time (base-station outages expire,
register failovers end) even though the whole call resolves within one
slot of the mobility chain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import FaultInjectionError, ParameterError
from ..geometry.topology import Cell, CellTopology

__all__ = [
    "FaultModel",
    "UpdateLoss",
    "PageLoss",
    "BaseStationOutage",
    "RegisterDegradation",
]


class FaultModel:
    """Base class: one seedable failure process with protocol hooks.

    Parameters
    ----------
    seed:
        Optional private seed.  When given, the model draws from its
        own ``numpy`` generator so the fault process is reproducible
        independently of the engine's event stream; when omitted the
        model shares the engine's RNG (binding order then matters for
        exact reproducibility, as with any shared stream).
    """

    name = "fault"

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self.topology: Optional[CellTopology] = None

    def bind(self, rng: np.random.Generator, topology: CellTopology) -> None:
        """Attach the model to an engine's RNG and geometry."""
        self._rng = np.random.default_rng(self._seed) if self._seed is not None else rng
        self.topology = topology

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            raise FaultInjectionError(
                f"{type(self).__name__} used before bind(); fault models must "
                "be attached to an engine (or bound explicitly) first"
            )
        return self._rng

    # -- hooks (defaults: no fault) -------------------------------------

    def on_slot(self, slot: int) -> None:
        """Advance any autonomous state; called once per engine slot."""

    def update_delivered(self, tick: int, cell: Cell) -> bool:
        """Does an update transmitted from ``cell`` reach the register?"""
        return True

    def page_heard(self, tick: int, cell: Cell) -> bool:
        """Does the terminal at ``cell`` hear (and answer) its poll?"""
        return True

    def cell_dark(self, tick: int, cell: Cell) -> bool:
        """Is the base station serving ``cell`` out of service?"""
        return False

    def register_read(
        self, tick: int, history: List[Tuple[int, Cell]]
    ) -> Optional[Cell]:
        """Override the register's answer for a location lookup.

        ``history`` is the write history, oldest first, newest last,
        as ``(slot, cell)`` pairs.  Return ``None`` to pass through
        (the engine then uses the newest entry or asks the next model).
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _validate_probability(name: str, value: float, closed_top: bool) -> float:
    top_ok = value <= 1.0 if closed_top else value < 1.0
    if not (0.0 <= value and top_ok):
        interval = "[0, 1]" if closed_top else "[0, 1)"
        raise ParameterError(f"{name} must be in {interval}, got {value}")
    return float(value)


class UpdateLoss(FaultModel):
    """Each transmitted location update is lost with a fixed probability.

    The closed interval ``[0, 1]`` is allowed: total loss is exactly the
    regime where recovery paging carries the whole correctness burden,
    and the every-call-eventually-answered invariant is most worth
    exercising.
    """

    name = "update-loss"

    def __init__(self, probability: float, seed: Optional[int] = None) -> None:
        super().__init__(seed)
        self.probability = _validate_probability(
            "update loss probability", probability, closed_top=True
        )
        self.drops = 0

    def update_delivered(self, tick: int, cell: Cell) -> bool:
        if self.rng.random() < self.probability:
            self.drops += 1
            return False
        return True

    def __repr__(self) -> str:
        return f"UpdateLoss(probability={self.probability})"


class PageLoss(FaultModel):
    """The terminal misses a poll with a fixed probability.

    A missed poll wastes the polling cycle (and the cells polled in
    it); the engine re-pages on the next cycle, so the call is still
    answered eventually.  The open interval ``[0, 1)`` is required: at
    probability 1 no page is ever heard and no paging scheme, however
    resilient, can answer a call.
    """

    name = "page-loss"

    def __init__(self, probability: float, seed: Optional[int] = None) -> None:
        super().__init__(seed)
        self.probability = _validate_probability(
            "page loss probability", probability, closed_top=False
        )
        self.misses = 0

    def page_heard(self, tick: int, cell: Cell) -> bool:
        if self.rng.random() < self.probability:
            self.misses += 1
            return False
        return True

    def __repr__(self) -> str:
        return f"PageLoss(probability={self.probability})"


class BaseStationOutage(FaultModel):
    """Base stations go dark for a fixed duration at a per-tick hazard.

    Polls sent to a dark cell are wasted cost (the terminal cannot hear
    them); updates transmitted from a dark cell never reach the
    register.  Outage state is materialized lazily per cell, at most
    one hazard draw per ``(cell, tick)``, because the geometries are
    infinite and only touched cells matter.

    Parameters
    ----------
    rate:
        Per-tick probability, in ``[0, 1)``, that a queried station
        starts an outage.
    duration:
        How many ticks an outage lasts (>= 1).  Finite by construction,
        so every call is still answered eventually: paging cycles
        advance the tick clock, and the outage expires under them.
    """

    name = "station-outage"

    def __init__(
        self, rate: float, duration: int, seed: Optional[int] = None
    ) -> None:
        super().__init__(seed)
        self.rate = _validate_probability("outage rate", rate, closed_top=False)
        if duration < 1:
            raise ParameterError(f"outage duration must be >= 1, got {duration}")
        self.duration = int(duration)
        self.outages_started = 0
        self._dark_until: Dict[Cell, int] = {}
        self._last_draw: Dict[Cell, int] = {}

    def cell_dark(self, tick: int, cell: Cell) -> bool:
        until = self._dark_until.get(cell)
        if until is not None and tick < until:
            return True
        if self._last_draw.get(cell) == tick:
            return False  # already drawn for this (cell, tick)
        self._last_draw[cell] = tick
        if self.rng.random() < self.rate:
            self._dark_until[cell] = tick + self.duration
            self.outages_started += 1
            return True
        return False

    def __repr__(self) -> str:
        return f"BaseStationOutage(rate={self.rate}, duration={self.duration})"


class RegisterDegradation(FaultModel):
    """Register crashes with a failover window serving stale reads.

    With per-slot hazard ``failure_rate`` the register fails over to a
    replica whose state lags the primary: for the next
    ``failover_slots`` slots every location read returns the entry that
    was current when the failure started, not the newest write.  A
    stale read makes the network page around an outdated center, which
    the engine's re-page/recovery escalation then repairs.
    """

    name = "register-degradation"

    def __init__(
        self,
        failure_rate: float,
        failover_slots: int,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed)
        self.failure_rate = _validate_probability(
            "register failure rate", failure_rate, closed_top=False
        )
        if failover_slots < 1:
            raise ParameterError(
                f"failover_slots must be >= 1, got {failover_slots}"
            )
        self.failover_slots = int(failover_slots)
        self.failovers = 0
        self.stale_reads = 0
        self._failed_at: Optional[int] = None
        self._fail_until = -1

    @property
    def in_failover(self) -> bool:
        return self._failed_at is not None

    def on_slot(self, slot: int) -> None:
        if self._failed_at is not None and slot >= self._fail_until:
            self._failed_at = None
        if self._failed_at is None and self.rng.random() < self.failure_rate:
            self._failed_at = slot
            self._fail_until = slot + self.failover_slots
            self.failovers += 1

    def register_read(
        self, tick: int, history: List[Tuple[int, Cell]]
    ) -> Optional[Cell]:
        if self._failed_at is None or not history:
            return None
        # The replica's state: the newest write that predates the failure.
        snapshot: Optional[Cell] = None
        for slot, cell in history:
            if slot >= self._failed_at:
                break
            snapshot = cell
        if snapshot is None:
            snapshot = history[0][1]
        if snapshot != history[-1][1]:
            self.stale_reads += 1
        return snapshot

    def __repr__(self) -> str:
        return (
            f"RegisterDegradation(failure_rate={self.failure_rate}, "
            f"failover_slots={self.failover_slots})"
        )
