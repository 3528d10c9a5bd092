"""A simulation engine that survives a faulty signaling plane.

:class:`ResilientEngine` accepts any list of
:class:`~repro.faults.FaultModel` processes plus a
:class:`~repro.faults.SignalingPolicy`, and keeps the paper's protocol
correct under their composition.  The simplest composition is the
classic lost-update scenario: one :class:`~repro.faults.UpdateLoss`
under :meth:`SignalingPolicy.fire_and_forget`, where the terminal
resets its center on every transmitted update, the register keeps the
stale one when the message dies, and the two views diverge.  In
general:

* **updates** are acknowledged; a transmission any fault drops is
  retried with exponential backoff, each retry charged a full ``U``
  (see :mod:`repro.faults.signaling`).  An update that exhausts its
  retries leaves the register stale, and the terminal and network
  views diverge;
* **register reads** go through the fault models, so a degraded
  register can serve a stale center and paging starts in the wrong
  place;
* **paging** polls the plan around the register's (possibly stale)
  center; a call the terminal does not answer -- wrong center, missed
  poll, or dark base station -- is re-paged up to the policy's limit
  and then escalates to expanding-ring **recovery paging**, which keeps
  polling (advancing the tick clock, so outages expire under it) until
  the terminal answers or the hard cap trips with
  :class:`~repro.exceptions.RecoveryExhaustedError`.

The correctness invariant holds for any composition of the shipped
fault models, total update loss included: every call is eventually
answered, because update loss is repaired by recovery, page loss has
probability < 1 per poll, and outages/failovers have finite duration.

Simulator shortcuts (documented, deliberate): retries resolve within
the triggering slot (the chain's slot is much coarser than a signaling
round-trip) with the backoff waiting time accounted in
:attr:`update_latency_slots`; and recovery stops expanding at the
terminal's actual ring instead of sweeping past it, since the terminal
is static within the slot and polls beyond its ring are dead cost in
every sweep strategy.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError, RecoveryExhaustedError
from ..geometry.topology import Cell, CellTopology
from ..observability.context import current as _observability
from ..simulation.engine import SimulationEngine, strategy_labels
from ..simulation.events import EventLog, PagingEvent, UpdateEvent
from ..strategies.distance import DistanceStrategy
from .models import FaultModel
from .signaling import SignalingPolicy

__all__ = ["ResilientEngine"]

#: Hard cap on recovery ring expansion, far beyond anything reachable:
#: the terminal drifts at most one ring per slot, so hitting this means
#: a bookkeeping bug, not an unlucky walk.
_MAX_RECOVERY_RADIUS = 10_000

#: Hard cap on recovery polling cycles per call.  Re-polls are a
#: geometric race against page loss / outage expiry, so this bounds the
#: tail without ever firing in a correctly configured run.
_MAX_RECOVERY_CYCLES = 50_000

#: Register write history kept for degradation models (oldest dropped).
_HISTORY_LIMIT = 256


class ResilientEngine(SimulationEngine):
    """A :class:`SimulationEngine` composing fault models with resilient
    signaling.

    Parameters (beyond the base engine's)
    -------------------------------------
    faults:
        Any iterable of :class:`~repro.faults.FaultModel` instances;
        they compose (a transaction succeeds only if every model lets
        it through).  An empty list reproduces the fault-free engine.
    signaling:
        The ack/retry/backoff and re-page policy; defaults to
        ``SignalingPolicy()`` (3 retries, 1 re-page).
    """

    def __init__(
        self,
        topology: CellTopology,
        strategy: DistanceStrategy,
        mobility: MobilityParams,
        costs: CostParams,
        faults: Iterable[FaultModel] = (),
        signaling: Optional[SignalingPolicy] = None,
        seed: Optional[int] = None,
        start: Optional[Cell] = None,
        event_mode: str = "exclusive",
        event_log: Optional[EventLog] = None,
    ) -> None:
        if not isinstance(strategy, DistanceStrategy):
            raise ParameterError(
                "ResilientEngine pages around the register's center using the "
                f"distance scheme's plan; got {strategy!r}"
            )
        if signaling is not None and not isinstance(signaling, SignalingPolicy):
            raise ParameterError(
                f"signaling must be a SignalingPolicy, got {signaling!r}"
            )
        super().__init__(
            topology=topology,
            strategy=strategy,
            mobility=mobility,
            costs=costs,
            seed=seed,
            start=start,
            event_mode=event_mode,
            event_log=event_log,
        )
        self.faults: List[FaultModel] = list(faults)
        for fault in self.faults:
            if not isinstance(fault, FaultModel):
                raise ParameterError(
                    f"faults must be FaultModel instances, got {fault!r}"
                )
            fault.bind(self.rng, topology)
        self.signaling = signaling if signaling is not None else SignalingPolicy()
        #: The register's belief; diverges from the terminal's center
        #: after an update whose every (re)transmission was lost.
        self.network_center: Cell = self.walk.position
        self._center_history: List[Tuple[int, Cell]] = [(0, self.network_center)]
        #: Monotone protocol clock: one tick per slot plus one per
        #: polling cycle, so within-call time passes for outage expiry.
        self.clock = 0
        # A plan miss only proves the terminal left the (possibly
        # stale) residing area when no fault can silence an in-area
        # poll; otherwise recovery must re-sweep from ring 0.
        self._recovery_start = (
            0 if any(_affects_paging(f) for f in self.faults)
            else strategy.threshold + 1
        )
        # -- resilience accounting ------------------------------------
        self.lost_transmissions = 0  # individual attempts any fault dropped
        self.lost_updates = 0        # update events never delivered
        self.update_retries = 0
        self.update_latency_slots = 0.0
        self.stale_lookups = 0
        self.missed_polls = 0        # polls the terminal failed to answer
        self.repages = 0
        self.recovery_pagings = 0
        self.recovery_cells = 0
        # Fault-layer metric handles (base-class instruments cover the
        # protocol events; these cover the resilience machinery).
        obs = _observability()
        if obs.enabled:
            labels = dict(strategy_labels(strategy), engine=self._engine_label)
            registry = obs.registry
            self._fault_instruments = {
                name: registry.counter(f"{name}_total", **labels)
                for name in (
                    "lost_transmissions",
                    "lost_updates",
                    "update_retries",
                    "update_backoff_slots",
                    "stale_lookups",
                    "missed_polls",
                    "repages",
                    "recovery_pagings",
                    "recovery_cells",
                )
            }
        else:
            self._fault_instruments = None

    #: Resilient runs report under their own engine label so fault-free
    #: and faulty campaigns in one session stay distinguishable.
    _engine_label = "resilient"

    # -- slot protocol -----------------------------------------------------

    def step(self) -> None:
        for fault in self.faults:
            fault.on_slot(self.slot)
        self.clock += 1
        super().step()

    # -- update path -------------------------------------------------------

    def _perform_update(self, timer: bool) -> None:
        position = self.walk.position
        fins = self._fault_instruments
        self.meter.charge_update()  # the terminal transmitted either way
        self.strategy.on_location_known(position)  # terminal view resets
        if self._instruments is not None:
            ins = self._instruments
            (ins.updates_timer if timer else ins.updates_move).inc()
        delivered = self._transmit(position)
        attempt = 0
        while not delivered and attempt < self.signaling.max_update_retries:
            attempt += 1
            self.update_retries += 1
            wait = self.signaling.retry_wait(attempt)
            self.update_latency_slots += wait
            if fins is not None:
                fins["update_retries"].inc()
                fins["update_backoff_slots"].inc(wait)
            self.meter.charge_update()  # each retry is a full U transaction
            delivered = self._transmit(position)
        if delivered:
            self._register_write(position)
        else:
            self.lost_updates += 1
            if fins is not None:
                fins["lost_updates"].inc()
            if self.signaling.on_exhaustion == "raise":
                raise RecoveryExhaustedError(
                    f"update from {position!r} lost after "
                    f"{self.signaling.max_update_retries} retries"
                )
        if self.log is not None:
            self.log.append(
                UpdateEvent(slot=self.slot, cell=position, timer_triggered=timer)
            )

    def _transmit(self, position: Cell) -> bool:
        """One update transmission through every fault model."""
        tick = self.clock
        delivered = not any(
            f.cell_dark(tick, position) for f in self.faults
        ) and all(f.update_delivered(tick, position) for f in self.faults)
        if not delivered:
            self.lost_transmissions += 1
            if self._fault_instruments is not None:
                self._fault_instruments["lost_transmissions"].inc()
        return delivered

    # -- register ----------------------------------------------------------

    def _register_write(self, cell: Cell) -> None:
        self.network_center = cell
        self._center_history.append((self.slot, cell))
        if len(self._center_history) > _HISTORY_LIMIT:
            del self._center_history[0]

    def _register_lookup(self) -> Cell:
        for fault in self.faults:
            cell = fault.register_read(self.slot, self._center_history)
            if cell is not None:
                if cell != self.network_center:
                    self.stale_lookups += 1
                    if self._fault_instruments is not None:
                        self._fault_instruments["stale_lookups"].inc()
                return cell
        return self.network_center

    # -- paging path -------------------------------------------------------

    def _handle_call(self) -> None:
        position = self.walk.position
        topo = self.topology
        plan = self.strategy.plan
        center = self._register_lookup()
        distance = topo.distance(center, position)
        polled = 0
        cycles = 0
        found = False
        attempts = 0
        fins = self._fault_instruments
        while not found and attempts <= self.signaling.max_repage_attempts:
            if attempts:
                self.repages += 1
                if fins is not None:
                    fins["repages"].inc()
            for group in plan.subareas:
                cycles += 1
                self.clock += 1
                polled += sum(topo.ring_size(ring) for ring in group)
                if distance in group and self._terminal_answers(position):
                    found = True
                    break
            attempts += 1
        if not found:
            polled, cycles = self._recover(position, center, distance, polled, cycles)
        self.meter.charge_paging(cells_polled=polled, cycles=cycles)
        if self._instruments is not None:
            self._instruments.record_call(polled, cycles)
        self._register_write(position)  # the located call re-synchronizes views
        self.strategy.on_location_known(position)
        if self.log is not None:
            self.log.append(
                PagingEvent(
                    slot=self.slot, cell=position, cells_polled=polled, cycles=cycles
                )
            )

    def _recover(
        self, position: Cell, center: Cell, distance: int, polled: int, cycles: int
    ) -> Tuple[int, int]:
        """Expanding-ring recovery around ``center`` until answered."""
        self.recovery_pagings += 1
        fins = self._fault_instruments
        if fins is not None:
            fins["recovery_pagings"].inc()
        topo = self.topology
        radius = min(self._recovery_start, distance)
        recovery_cycles = 0
        while True:
            recovery_cycles += 1
            if recovery_cycles > _MAX_RECOVERY_CYCLES:
                raise RecoveryExhaustedError(
                    f"recovery paging gave up after {recovery_cycles - 1} "
                    f"cycles: terminal at ring {distance} never answered"
                )
            if radius > _MAX_RECOVERY_RADIUS:
                raise RecoveryExhaustedError(
                    f"recovery paging exceeded the {_MAX_RECOVERY_RADIUS}-ring "
                    f"cap: terminal {distance} rings out"
                )
            cycles += 1
            self.clock += 1
            cells = topo.ring_size(radius)
            polled += cells
            self.recovery_cells += cells
            if fins is not None:
                fins["recovery_cells"].inc(cells)
            if radius == distance and self._terminal_answers(position):
                return polled, cycles
            # The terminal is static within the slot: expanding past its
            # ring is dead cost in every sweep, so clamp and re-poll.
            radius = min(radius + 1, distance)

    def _terminal_answers(self, position: Cell) -> bool:
        """Would the terminal hear and answer a poll right now?"""
        tick = self.clock
        if any(f.cell_dark(tick, position) for f in self.faults) or not all(
            f.page_heard(tick, position) for f in self.faults
        ):
            self.missed_polls += 1
            if self._fault_instruments is not None:
                self._fault_instruments["missed_polls"].inc()
            return False
        return True

    # -- reporting ---------------------------------------------------------

    def fault_report(self) -> dict:
        """Structured resilience counters (engine plus per-fault)."""
        return {
            "faults": [repr(f) for f in self.faults],
            "lost_transmissions": self.lost_transmissions,
            "lost_updates": self.lost_updates,
            "update_retries": self.update_retries,
            "update_latency_slots": self.update_latency_slots,
            "stale_lookups": self.stale_lookups,
            "missed_polls": self.missed_polls,
            "repages": self.repages,
            "recovery_pagings": self.recovery_pagings,
            "recovery_cells": self.recovery_cells,
        }


def _affects_paging(fault: FaultModel) -> bool:
    """Can ``fault`` silence a poll to a cell the terminal occupies?"""
    return (
        type(fault).page_heard is not FaultModel.page_heard
        or type(fault).cell_dark is not FaultModel.cell_dark
    )
