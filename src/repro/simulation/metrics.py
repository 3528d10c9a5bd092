"""Cost accounting and statistics for simulations.

The analytical model predicts *per-slot averages* (``C_u``, ``C_v``,
``C_T``); the simulator measures the same quantities empirically.  A
:class:`CostMeter` accumulates everything needed to compare the two:

* event counts (slots, moves, updates, calls, polled cells);
* cost sums, split into update and paging components;
* a running sum of squares of per-slot total cost, for a normal-
  approximation confidence interval on the mean (per-slot costs are
  i.i.d. bounded, so the CLT applies comfortably at the slot counts
  used here);
* a paging-delay histogram (polling cycles per call).

:class:`MeterColumns` holds what pooled statistics read of many meters
as arrays, one row per meter.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..exceptions import ParameterError, SimulationError

__all__ = ["CostMeter", "MeterColumns", "MeterSnapshot", "z_score"]

#: Two-sided z-scores for the common confidence levels, kept as a fast
#: path; any other level in (0, 1) is computed exactly via the normal
#: quantile function (see :func:`z_score`).
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_score(level: float) -> float:
    """Two-sided z-score for a confidence ``level`` in (0, 1).

    The common levels (0.90/0.95/0.99) come from a lookup table so the
    historical values (and every snapshot ever written with them) stay
    bit-stable; anything else -- 0.975, 0.5, 0.999 -- is computed via
    ``statistics.NormalDist().inv_cdf`` instead of raising ``KeyError``
    as the old table-only lookup did.
    """
    if isinstance(level, bool) or not isinstance(level, (int, float)):
        raise ParameterError(f"confidence level must be a number, got {level!r}")
    if not 0.0 < level < 1.0:
        raise ParameterError(
            f"confidence level must be strictly between 0 and 1, got {level}"
        )
    fast = _Z_SCORES.get(level)
    if fast is not None:
        return fast
    return statistics.NormalDist().inv_cdf(0.5 + level / 2.0)


@dataclass(frozen=True)
class MeterSnapshot:
    """Immutable summary of a finished measurement."""

    slots: int
    moves: int
    updates: int
    calls: int
    polled_cells: int
    update_cost: float
    paging_cost: float
    mean_total_cost: float
    total_cost_half_width_95: float
    mean_paging_delay: float
    delay_histogram: Dict[int, int]

    @property
    def total_cost(self) -> float:
        return self.update_cost + self.paging_cost

    @property
    def mean_update_cost(self) -> float:
        """Empirical ``C_u`` (per slot)."""
        return self.update_cost / self.slots if self.slots else 0.0

    @property
    def mean_paging_cost(self) -> float:
        """Empirical ``C_v`` (per slot)."""
        return self.paging_cost / self.slots if self.slots else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (checkpoints, machine-readable benches).

        ``delay_histogram`` keys become strings (JSON objects cannot
        have integer keys); :meth:`from_dict` restores them.
        """
        return {
            "slots": self.slots,
            "moves": self.moves,
            "updates": self.updates,
            "calls": self.calls,
            "polled_cells": self.polled_cells,
            "update_cost": self.update_cost,
            "paging_cost": self.paging_cost,
            "mean_total_cost": self.mean_total_cost,
            "total_cost_half_width_95": self.total_cost_half_width_95,
            "mean_paging_delay": self.mean_paging_delay,
            "delay_histogram": {
                str(cycles): count
                for cycles, count in sorted(self.delay_histogram.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MeterSnapshot":
        """Inverse of :meth:`to_dict`; raises on malformed payloads."""
        try:
            return cls(
                slots=int(payload["slots"]),
                moves=int(payload["moves"]),
                updates=int(payload["updates"]),
                calls=int(payload["calls"]),
                polled_cells=int(payload["polled_cells"]),
                update_cost=float(payload["update_cost"]),
                paging_cost=float(payload["paging_cost"]),
                mean_total_cost=float(payload["mean_total_cost"]),
                total_cost_half_width_95=float(payload["total_cost_half_width_95"]),
                mean_paging_delay=float(payload["mean_paging_delay"]),
                delay_histogram={
                    int(cycles): int(count)
                    for cycles, count in dict(payload["delay_histogram"]).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed snapshot payload: {exc}") from exc


@dataclass(frozen=True, eq=False)
class MeterColumns:
    """Several meters' call counts and per-slot means, one array each.

    Row ``k`` holds meter ``k``'s values of the :class:`MeterSnapshot`
    field or property of the same name, so a statistic pooled over the
    rows equals, bit for bit, the one pooled over the snapshots.
    """

    calls: np.ndarray
    mean_total_cost: np.ndarray
    mean_update_cost: np.ndarray
    mean_paging_cost: np.ndarray
    mean_paging_delay: np.ndarray

    @classmethod
    def from_snapshots(cls, snapshots: Sequence[MeterSnapshot]) -> "MeterColumns":
        """Stack the snapshots' values, one row per snapshot."""
        means = ("mean_total_cost", "mean_update_cost", "mean_paging_cost",
                 "mean_paging_delay")
        return cls(
            calls=np.array([s.calls for s in snapshots], dtype=np.int64),
            **{
                name: np.array([getattr(s, name) for s in snapshots], dtype=np.float64)
                for name in means
            },
        )


class CostMeter:
    """Accumulates per-slot costs and event counts during a simulation."""

    def __init__(self, update_cost: float, poll_cost: float) -> None:
        if update_cost < 0 or poll_cost < 0:
            raise ParameterError(
                f"costs must be >= 0, got U={update_cost}, V={poll_cost}"
            )
        self.unit_update_cost = update_cost
        self.unit_poll_cost = poll_cost
        self.slots = 0
        self.moves = 0
        self.updates = 0
        self.calls = 0
        self.polled_cells = 0
        self._cost_sum = 0.0
        self._cost_sq_sum = 0.0
        self._slot_cost = 0.0
        self._slot_open = False
        self.delay_histogram: Counter = Counter()

    # -- per-slot protocol ---------------------------------------------

    def begin_slot(self) -> None:
        """Open a slot; every charge until :meth:`end_slot` belongs to it."""
        if self._slot_open:
            raise SimulationError("begin_slot called with a slot already open")
        self._slot_open = True
        self._slot_cost = 0.0

    def end_slot(self) -> None:
        """Close the slot and fold its cost into the running statistics."""
        if not self._slot_open:
            raise SimulationError("end_slot called without an open slot")
        self._slot_open = False
        self.slots += 1
        self._cost_sum += self._slot_cost
        self._cost_sq_sum += self._slot_cost * self._slot_cost

    # -- charges -----------------------------------------------------------

    def charge_update(self) -> None:
        """Record one location update (cost ``U``)."""
        self._require_open()
        self.updates += 1
        self._slot_cost += self.unit_update_cost

    def charge_paging(self, cells_polled: int, cycles: int) -> None:
        """Record one paging operation: ``cells_polled`` at cost ``V`` each."""
        self._require_open()
        if cells_polled < 1 or cycles < 1:
            raise SimulationError(
                f"paging must poll >= 1 cell in >= 1 cycle, got "
                f"{cells_polled} cells / {cycles} cycles"
            )
        self.calls += 1
        self.polled_cells += cells_polled
        self.delay_histogram[cycles] += 1
        self._slot_cost += self.unit_poll_cost * cells_polled

    def note_move(self) -> None:
        """Record a cell crossing (no direct cost)."""
        self._require_open()
        self.moves += 1

    def _require_open(self) -> None:
        if not self._slot_open:
            raise SimulationError("charge outside of a slot; call begin_slot first")

    # -- results ----------------------------------------------------------

    @property
    def mean_total_cost(self) -> float:
        """Empirical per-slot total cost (``C_T`` estimate)."""
        return self._cost_sum / self.slots if self.slots else 0.0

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation CI for the per-slot mean total cost.

        Any ``level`` in (0, 1) is accepted: the common levels use the
        historical z-score table, everything else the exact normal
        quantile (see :func:`z_score`).
        """
        z = z_score(level)
        if self.slots < 2:
            return (self.mean_total_cost, math.inf)
        mean = self.mean_total_cost
        var = max(self._cost_sq_sum / self.slots - mean * mean, 0.0)
        half = z * math.sqrt(var / self.slots)
        return (mean, half)

    @property
    def mean_paging_delay(self) -> float:
        """Average polling cycles per call (0 if no calls arrived)."""
        if self.calls == 0:
            return 0.0
        return sum(k * v for k, v in self.delay_histogram.items()) / self.calls

    def snapshot(self) -> MeterSnapshot:
        """Freeze the current statistics into a :class:`MeterSnapshot`."""
        mean, half = self.confidence_interval(0.95) if self.slots >= 2 else (self.mean_total_cost, math.inf)
        update_cost = self.updates * self.unit_update_cost
        paging_cost = self.polled_cells * self.unit_poll_cost
        return MeterSnapshot(
            slots=self.slots,
            moves=self.moves,
            updates=self.updates,
            calls=self.calls,
            polled_cells=self.polled_cells,
            update_cost=update_cost,
            paging_cost=paging_cost,
            mean_total_cost=mean,
            total_cost_half_width_95=half,
            mean_paging_delay=self.mean_paging_delay,
            delay_histogram=dict(self.delay_histogram),
        )
