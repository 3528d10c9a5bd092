"""Sharded million-terminal fleet simulation of the distance strategy.

:class:`~repro.simulation.vectorized.VectorizedDistanceEngine` batches
``K`` *identical* terminals; a real PCS network serves millions of
*heterogeneous* subscribers -- pedestrians, vehicles, and static
terminals whose ``(q, c, U, V, d)`` all differ (the mixed-population
setting surveyed by Bhadauria & Sharma, arXiv 1201.0140, and measured
across mobility profiles by Martin & Bajcsy, arXiv 1108.1361).  This
module scales the population axis three orders of magnitude past the
vectorized engine:

* :class:`FleetSpec` -- the whole population as read-only
  per-terminal NumPy columns (sampled from
  :class:`repro.workload.Population` distributions, with per-profile
  optimal thresholds), carrying a SHA-256 fingerprint of the realized
  arrays, hashed once per spec;
* :class:`FleetShardEngine` -- one contiguous shard, stepped by the
  block step of :mod:`repro.simulation.vectorized` over per-terminal
  columns (each terminal's SDF plan row is one of the fleet's distinct
  thresholds) and booked into O(1) shard aggregates;
* :func:`run_fleet` -- partitions the fleet into contiguous shards,
  runs them in-process or on a :class:`ProcessPoolExecutor` (parameter
  columns shipped to workers as memory-mapped ``.npy`` spill files, so
  a worker's RSS covers its shard, not the fleet), streams per-shard
  aggregates through the observability collect/merge path in
  shard-index order, and checkpoints at *fleet granularity* -- a killed
  run resumes with any subset of shards complete.

Shard-layout invariance
-----------------------

The kernel's randomness is **stateless and counter-based**: the event
draw for terminal ``t`` at slot ``s`` is a SplitMix64-style hash of
``(seed, stream, s, global index of t)``, not a draw from a sequential
generator.  A terminal therefore sees the *same* random trajectory no
matter which shard it lands in, which gives a contract much stronger
than statistical agreement: event totals (moves, updates, calls,
polled cells) are **exactly invariant** under the shard count and
under the executor (in-process vs worker pool).  Cost totals are dot
products of those integer counts with per-terminal float costs, summed
shard by shard -- bit-identical for a fixed shard layout regardless of
executor, exactly invariant across layouts whenever the costs are
integer-valued, and equal to ~1e-12 relative otherwise (float
summation order is the only difference).  The conformance suite pins
both contracts (``fleet-pooled-vs-inprocess`` bit identity,
``fleet-sharded-vs-single`` near-exact).

Bounded memory
--------------

No per-terminal history is ever materialized: a shard holds its
parameter columns and their integer event cuts, one int32 code per
terminal (its plan row and center-relative cell), two per-terminal
event counters (updates and polled cells, the two that feed
per-terminal costs), and two hash buffers reused every block -- order
100 bytes per terminal.  Moves and calls are shard totals, and
everything that leaves the shard is an O(1) :class:`ShardSnapshot`
aggregate (the vectorized engine's per-terminal meters would add 48
bytes and an ``np.add.at`` per meter and block).  The code tables are
two shared read-only int32 lookups of at most 2**22 entries (16 MiB)
each; a :class:`FleetSpec` whose plan rows would need more is refused
when it is built.  Two gates assert the RSS bound:
``benchmarks/bench_throughput.py --fleet-only`` at 100k terminals in
CI, and ``test_fleet_million`` in the same file at 1M nightly.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.parameters import CostParams, MobilityParams, validate_delay
from ..exceptions import ParameterError
from ..geometry.hex import HexTopology
from ..geometry.line import LineTopology
from ..geometry.square import SquareTopology
from ..geometry.topology import CellTopology
from ..observability import context as _obs_context
from ..paging import sdf_partition
from ..parallel import Job, resolve_workers, run_jobs
from ..persist import atomic_write_json, read_checkpoint
from ..workload.profiles import Population
from .engine import _check_event_mode
from .metrics import snapshot_from_dict, snapshot_to_dict
from .vectorized import (
    _Z95,
    _BlockStep,
    _Events,
    _check_codes,
    _event_instruments,
    _plan_tables,
)

__all__ = [
    "FleetSpec",
    "FleetShardEngine",
    "ShardSnapshot",
    "FleetResult",
    "shard_bounds",
    "run_fleet",
    "fleet_report",
]

#: Fleet checkpoint schema version.  Extends the simulation checkpoint
#: lineage (schema v2 established topology/strategy identity pinning);
#: the fleet fingerprint additionally pins the *population* (realized
#: per-terminal arrays) and the shard layout.
_FLEET_CHECKPOINT_VERSION = 1


# -- the fleet specification -------------------------------------------


def _model_class_for(topology: CellTopology):
    """The exact analytic model matching a fleet topology."""
    from ..core.models import (  # local: models imports geometry, not us
        OneDimensionalModel,
        SquareGridModel,
        TwoDimensionalModel,
    )

    if isinstance(topology, LineTopology):
        return OneDimensionalModel
    if isinstance(topology, HexTopology):
        return TwoDimensionalModel
    if isinstance(topology, SquareTopology):
        return SquareGridModel
    raise ParameterError(
        f"fleet engine supports LineTopology, HexTopology, and "
        f"SquareTopology; got {topology!r}"
    )


def _json_delay(m) -> object:
    return "inf" if m == math.inf else m


#: The per-terminal columns of a :class:`FleetSpec`, in fingerprint and
#: spill order.
_SPEC_COLUMNS = (
    "q", "c", "update_cost", "poll_cost", "threshold", "profile_index"
)


@dataclass(frozen=True)
class FleetSpec:
    """A heterogeneous population as per-terminal parameter columns.

    All columns have length ``count``; ``profile_index`` maps each
    terminal into ``profile_names`` for reporting.  ``population_seed``
    is the seed the columns were sampled with (see
    :meth:`Population.sample_arrays` -- explicit seeds are required
    precisely so this spec can be re-derived), and
    :meth:`fingerprint` digests the realized arrays for checkpoint
    identity.  Construction marks the columns read-only, so the digest
    is computed once per spec, and finds ``plan_rows``, the distinct
    thresholds ascending: every shard's tables hold one SDF plan row
    for each.
    """

    topology: CellTopology
    q: np.ndarray
    c: np.ndarray
    update_cost: np.ndarray
    poll_cost: np.ndarray
    threshold: np.ndarray
    profile_index: np.ndarray
    profile_names: Tuple[str, ...]
    max_delay: float
    population_seed: int
    description: str = "custom"
    plan_rows: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate_delay(self.max_delay)
        count = self.q.shape[0]
        if count < 1:
            raise ParameterError("FleetSpec needs at least one terminal")
        for name in ("c", "update_cost", "poll_cost", "threshold", "profile_index"):
            column = getattr(self, name)
            if column.shape != (count,):
                raise ParameterError(
                    f"FleetSpec column {name!r} has shape {column.shape}, "
                    f"expected ({count},)"
                )
        if not np.issubdtype(self.threshold.dtype, np.integer):
            # A cast would run 2.9 as 2, under another fingerprint.
            raise ParameterError(
                f"FleetSpec column 'threshold' needs an integer dtype, got "
                f"{self.threshold.dtype}"
            )
        for name in _SPEC_COLUMNS:
            if not np.isfinite(getattr(self, name)).all():
                raise ParameterError(f"FleetSpec column {name!r} is not finite")
        if np.any(self.q <= 0) or np.any(self.c < 0) or np.any(self.q + self.c > 1.0):
            raise ParameterError(
                "per-terminal mobility out of range: need q > 0, c >= 0, "
                "q + c <= 1 for every terminal"
            )
        if np.any(self.update_cost < 0) or np.any(self.poll_cost < 0):
            raise ParameterError("per-terminal costs must be >= 0")
        if np.any(self.threshold < 0):
            raise ParameterError("per-terminal thresholds must be >= 0")
        # Whatever the shard layout, every shard's code tables fit: the
        # largest threshold is checked first, which bounds the count.
        _check_codes(self.topology, [int(self.threshold.max())], _CAP_REMEDY)
        counts = np.bincount(self.threshold.astype(np.int64, copy=False))
        rows = tuple(np.flatnonzero(counts).tolist())
        _check_codes(self.topology, rows, _CAP_REMEDY)
        object.__setattr__(self, "plan_rows", rows)
        if np.any(self.profile_index < 0) or np.any(
            self.profile_index >= len(self.profile_names)
        ):
            raise ParameterError("profile_index out of range for profile_names")
        for name in _SPEC_COLUMNS:
            getattr(self, name).flags.writeable = False

    @property
    def count(self) -> int:
        return int(self.q.shape[0])

    def fingerprint(self) -> str:
        """SHA-256 identity of the realized population + geometry."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    repr(self.topology),
                    _json_delay(self.max_delay),
                    self.profile_names,
                    self.population_seed,
                    self.description,
                    self.count,
                )
            ).encode()
        )
        for name in _SPEC_COLUMNS:
            digest.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        return digest.hexdigest()

    def profile_counts(self) -> Dict[str, int]:
        tallies = np.bincount(self.profile_index, minlength=len(self.profile_names))
        return {name: int(n) for name, n in zip(self.profile_names, tallies)}

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_population(
        cls,
        population: Population,
        count: int,
        costs: CostParams,
        max_delay,
        seed: int,
        topology: Optional[CellTopology] = None,
        d_max: int = 40,
        convention: str = "physical",
        thresholds: Optional[Dict[str, int]] = None,
        profile_costs: Optional[Dict[str, CostParams]] = None,
    ) -> "FleetSpec":
        """Sample a fleet from population distributions.

        Per-terminal ``(q, c)`` come from
        :meth:`Population.sample_arrays` (explicit ``seed`` required);
        each terminal's threshold is its *profile's* optimal ``d``
        (solved once per archetype at the archetype's mean mobility --
        per-terminal solves would cost a million optimizations for no
        modelling gain), overridable via ``thresholds``; costs default
        to the shared ``costs`` with optional per-profile overrides.
        """
        from ..core.threshold import find_optimal_threshold  # local: cycle

        topology = topology if topology is not None else HexTopology()
        model_class = _model_class_for(topology)
        arrays = population.sample_arrays(count, seed=seed)
        per_profile_d = np.empty(len(population.profiles), dtype=np.int64)
        for i, profile in enumerate(population.profiles):
            if thresholds is not None and profile.name in thresholds:
                per_profile_d[i] = int(thresholds[profile.name])
            else:
                per_profile_d[i] = find_optimal_threshold(
                    model_class(profile.mobility),
                    costs,
                    max_delay,
                    d_max=d_max,
                    convention=convention,
                ).threshold
        per_profile_u = np.full(len(population.profiles), costs.update_cost)
        per_profile_v = np.full(len(population.profiles), costs.poll_cost)
        for i, profile in enumerate(population.profiles):
            override = (profile_costs or {}).get(profile.name)
            if override is not None:
                per_profile_u[i] = override.update_cost
                per_profile_v[i] = override.poll_cost
        return cls(
            topology=topology,
            q=arrays.q,
            c=arrays.c,
            update_cost=per_profile_u[arrays.profile_index],
            poll_cost=per_profile_v[arrays.profile_index],
            threshold=per_profile_d[arrays.profile_index],
            profile_index=arrays.profile_index,
            profile_names=arrays.profile_names,
            max_delay=validate_delay(max_delay),
            population_seed=seed,
            description=f"population:{population!r}",
        )

    @classmethod
    def homogeneous(
        cls,
        topology: CellTopology,
        threshold: int,
        mobility: MobilityParams,
        costs: CostParams,
        max_delay,
        count: int,
    ) -> "FleetSpec":
        """Every terminal identical: the fleet of one operating point, as
        :class:`~repro.simulation.vectorized.VectorizedDistanceEngine`
        batches it."""
        if count < 1:
            raise ParameterError(f"count must be >= 1, got {count}")
        return cls(
            topology=topology,
            q=np.full(count, mobility.move_probability),
            c=np.full(count, mobility.call_probability),
            update_cost=np.full(count, float(costs.update_cost)),
            poll_cost=np.full(count, float(costs.poll_cost)),
            threshold=np.full(count, int(threshold), dtype=np.int64),
            profile_index=np.zeros(count, dtype=np.int32),
            profile_names=("uniform",),
            max_delay=validate_delay(max_delay),
            population_seed=0,
            description=f"homogeneous:d={threshold}",
        )


#: How a fleet gets under the code-table cap.
_CAP_REMEDY = "give the fleet smaller or fewer distinct thresholds (a lower d_max)"


# -- shard accounting ---------------------------------------------------


@dataclass(frozen=True)
class ShardSnapshot:
    """O(1) aggregate of one finished shard.

    The only thing a shard ever ships out: event totals, cost totals
    (dot products of per-terminal event counts with per-terminal
    costs), shard-level per-slot cost statistics, the aggregated
    paging-delay histogram, and a per-profile cost breakdown.
    ``mean_total_cost`` is per *terminal-slot*, so it is directly
    comparable with the analytic per-slot ``C_T``.
    """

    index: int
    start: int
    stop: int
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
    profile_terminals: Tuple[int, ...]
    profile_update_cost: Tuple[float, ...]
    profile_paging_cost: Tuple[float, ...]

    @property
    def terminals(self) -> int:
        return self.stop - self.start

    @property
    def total_cost(self) -> float:
        return self.update_cost + self.paging_cost

    def to_dict(self) -> Dict[str, object]:
        return snapshot_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardSnapshot":
        return snapshot_from_dict(cls, payload, "shard snapshot")


@dataclass(frozen=True)
class FleetResult:
    """Pooled outcome of a fleet run: shard snapshots in shard order.

    Fleet totals are folded in shard-index order, so they equal the sum
    of the shard snapshot columns *exactly* -- the same accounting
    contract ``run_replicated`` keeps for replications (and the
    invariant the fleet property tests assert).
    """

    spec_fingerprint: str
    profile_names: Tuple[str, ...]
    shards: Tuple[ShardSnapshot, ...]

    @property
    def terminals(self) -> int:
        return sum(s.terminals for s in self.shards)

    @property
    def slots(self) -> int:
        return self.shards[0].slots if self.shards else 0

    @property
    def moves(self) -> int:
        return sum(s.moves for s in self.shards)

    @property
    def updates(self) -> int:
        return sum(s.updates for s in self.shards)

    @property
    def calls(self) -> int:
        return sum(s.calls for s in self.shards)

    @property
    def polled_cells(self) -> int:
        return sum(s.polled_cells for s in self.shards)

    @property
    def update_cost(self) -> float:
        return sum(s.update_cost for s in self.shards)

    @property
    def paging_cost(self) -> float:
        return sum(s.paging_cost for s in self.shards)

    @property
    def total_cost(self) -> float:
        return self.update_cost + self.paging_cost

    @property
    def terminal_slots(self) -> int:
        return sum(s.terminals * s.slots for s in self.shards)

    @property
    def mean_total_cost(self) -> float:
        """Fleet-wide mean cost per terminal-slot (empirical ``C_T``)."""
        denominator = self.terminal_slots
        return self.total_cost / denominator if denominator else 0.0

    @property
    def mean_update_cost(self) -> float:
        denominator = self.terminal_slots
        return self.update_cost / denominator if denominator else 0.0

    @property
    def mean_paging_cost(self) -> float:
        denominator = self.terminal_slots
        return self.paging_cost / denominator if denominator else 0.0

    @property
    def delay_histogram(self) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for shard in self.shards:
            for cycles, count in shard.delay_histogram.items():
                merged[cycles] = merged.get(cycles, 0) + count
        return dict(sorted(merged.items()))

    @property
    def mean_paging_delay(self) -> float:
        histogram = self.delay_histogram
        calls = sum(histogram.values())
        if not calls:
            return 0.0
        return sum(cycles * count for cycles, count in histogram.items()) / calls

    def per_profile(self) -> Dict[str, Dict[str, float]]:
        """Fleet cost breakdown per population profile."""
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.profile_names):
            terminals = sum(s.profile_terminals[i] for s in self.shards)
            update = sum(s.profile_update_cost[i] for s in self.shards)
            paging = sum(s.profile_paging_cost[i] for s in self.shards)
            slots = self.slots
            denominator = terminals * slots
            out[name] = {
                "terminals": terminals,
                "update_cost": update,
                "paging_cost": paging,
                "mean_total_cost": (
                    (update + paging) / denominator if denominator else 0.0
                ),
            }
        return out


# -- the heterogeneous shard kernel ------------------------------------


class FleetShardEngine(_BlockStep):
    """One contiguous shard of a heterogeneous fleet.

    The block step of :mod:`repro.simulation.vectorized` over
    per-terminal parameter *arrays*: thresholds, mobilities, and costs
    all vary terminal by terminal, with one SDF paging plan row per
    threshold in ``plan_rows`` (the fleet's :attr:`FleetSpec.plan_rows`,
    so a shard's tables may hold rows none of its terminals use).
    Draws are keyed by each terminal's *global* fleet index
    (``global_offset + local index``), which makes fleet totals
    invariant under the shard layout.  State is O(terminals); nothing
    per-slot is retained.
    """

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
        plan_rows: Sequence[int],
        global_offset: int = 0,
        seed: int = 0,
        event_mode: str = "exclusive",
    ) -> None:
        self.topology = topology
        self.max_delay = validate_delay(max_delay)
        self.global_offset = int(global_offset)
        self.n_profiles = int(n_profiles)
        threshold = np.asarray(threshold)
        if threshold.size < 1:
            raise ParameterError("shard needs at least one terminal")
        self._update_cost = np.ascontiguousarray(update_cost, dtype=np.float64)
        self._poll_cost = np.ascontiguousarray(poll_cost, dtype=np.float64)
        for name, column in (
            ("update_cost", self._update_cost), ("poll_cost", self._poll_cost)
        ):
            # A NaN makes min() NaN, which fails the comparison.
            if not (column.min() >= 0.0 and column.max() < math.inf):
                raise ParameterError(
                    f"per-terminal {name} must be finite and >= 0"
                )
        self._profile = np.ascontiguousarray(profile_index, dtype=np.intp)
        # Every terminal starts freshly fixed at the origin of its row.
        self.plan_rows = tuple(int(d) for d in plan_rows)
        _check_codes(topology, self.plan_rows, _CAP_REMEDY)
        tables = _plan_tables(
            topology, tuple(sdf_partition(d, self.max_delay) for d in self.plan_rows)
        )
        start = np.full(max(self.plan_rows) + 1, -1, dtype=np.int32)
        start[list(self.plan_rows)] = tables.origins
        codes = start.take(threshold, mode="clip")
        if threshold.min() < 0 or threshold.max() >= start.size or codes.min() < 0:
            raise ParameterError(
                f"every terminal's threshold needs a plan row; plan_rows are "
                f"{self.plan_rows}"
            )
        self._setup(tables, codes, q, c, self.global_offset, int(seed), event_mode)
        self.reset_meters()

    # ------------------------------------------------------------------

    def reset_meters(self) -> None:
        """Zero the shard's accounting (positions and slot clock kept)."""
        K = self.terminals
        self._metered_slots = 0
        self._moves = self._calls = 0
        self._updates = np.zeros(K, dtype=np.int64)
        self._polled = np.zeros(K, dtype=np.int64)
        self._cost_sum = self._cost_sq_sum = 0.0
        # Calls per (plan row, polling cycle): the tables' pages.
        self._delay_counts = np.zeros(self._tables.polled.size, dtype=np.int64)

    def run(self, slots: int) -> None:
        """Advance every terminal in the shard ``slots`` slots."""
        self._advance(slots)

    def _book(self, width: int, events: _Events) -> None:
        """Fold a block's events into the shard's aggregates; a slot's cost
        is its callers' paging costs plus its updaters' update costs, each
        summed in terminal order as the per-slot step had.  Every sum here
        is a NumPy reduction, never a BLAS product, whose split across
        threads would make the bits depend on the thread count."""
        callers, polled = events.callers, events.polled
        updaters = events.who.take(events.updates)
        self._moves += int(np.count_nonzero(events.moved))
        self._calls += callers.size
        np.add.at(self._polled, callers, polled)
        np.add.at(self._updates, updaters, 1)
        self._delay_counts += np.bincount(events.pages, minlength=self._delay_counts.size)
        call_stops, update_stops = [callers.size], [updaters.size]
        if width > 1:
            # Replay order is rank-major; the sums run slot by slot.
            call_slot = events.events.take(events.calls) % width
            by_slot = np.lexsort((callers, call_slot))
            callers, polled = callers[by_slot], polled[by_slot]
            call_stops = np.cumsum(np.bincount(call_slot, minlength=width)).tolist()
            update_slot = events.events.take(events.updates) % width
            updaters = updaters[np.lexsort((updaters, update_slot))]
            update_stops = np.cumsum(np.bincount(update_slot, minlength=width)).tolist()
        poll_cost = self._poll_cost.take(callers)
        update_cost = self._update_cost.take(updaters)
        c0 = u0 = 0
        for c1, u1 in zip(call_stops, update_stops):
            slot_cost = float((poll_cost[c0:c1] * polled[c0:c1]).sum())
            slot_cost += float(update_cost[u0:u1].sum())
            self._cost_sum += slot_cost
            self._cost_sq_sum += slot_cost * slot_cost
            c0, u0 = c1, u1

    # ------------------------------------------------------------------

    def snapshot(self, index: int = 0) -> ShardSnapshot:
        """Freeze the shard's aggregates (no per-terminal data leaves)."""
        slots = self._metered_slots
        K = self.terminals
        # Only terminals that updated (were paged) enter a cost sum; the
        # rest would add 0.0, since the costs are finite and >= 0.
        updated = np.flatnonzero(self._updates)
        update_terms = self._updates[updated] * self._update_cost[updated]
        paged = np.flatnonzero(self._polled)
        paging_terms = self._polled[paged] * self._poll_cost[paged]
        # Per-slot shard cost, normalized per terminal: mean and a CLT
        # half-width over slots (the batch dimension).
        mean_slot = self._cost_sum / slots / K if slots else 0.0
        if slots >= 2:
            per_terminal_sq = self._cost_sq_sum / (K * K)
            var = max(per_terminal_sq / slots - mean_slot * mean_slot, 0.0)
            half = _Z95 * math.sqrt(var / slots)
        else:
            half = math.inf
        delay_counts = self._delay_counts.reshape(self._tables.polled.shape).sum(axis=0)
        cycles = np.arange(1, delay_counts.size + 1, dtype=np.float64)
        weighted = float((cycles * delay_counts).sum())
        delay = weighted / self._calls if self._calls else 0.0
        profile_terminals = np.bincount(self._profile, minlength=self.n_profiles)
        # Each profile's terms, in terminal order, summed as the totals
        # are: a one-profile shard's sums are its totals, bit for bit.
        update_profile = self._profile[updated]
        profile_update = [
            update_terms[update_profile == k].sum() for k in range(self.n_profiles)
        ]
        paging_profile = self._profile[paged]
        profile_paging = [
            paging_terms[paging_profile == k].sum() for k in range(self.n_profiles)
        ]
        return ShardSnapshot(
            index=index,
            start=self.global_offset,
            stop=self.global_offset + K,
            slots=slots,
            moves=self._moves,
            updates=int(self._updates.sum()),
            calls=self._calls,
            polled_cells=int(self._polled.sum()),
            update_cost=float(update_terms.sum()),
            paging_cost=float(paging_terms.sum()),
            mean_total_cost=mean_slot,
            total_cost_half_width_95=half,
            mean_paging_delay=delay,
            delay_histogram={
                cycle + 1: int(count)
                for cycle, count in enumerate(delay_counts)
                if count
            },
            profile_terminals=tuple(int(v) for v in profile_terminals),
            profile_update_cost=tuple(float(v) for v in profile_update),
            profile_paging_cost=tuple(float(v) for v in profile_paging),
        )


# -- sharding and execution --------------------------------------------


def shard_bounds(count: int, shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous near-equal shard boundaries over ``count`` terminals."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if shards < 1:
        raise ParameterError(f"shards must be >= 1, got {shards}")
    if shards > count:
        raise ParameterError(
            f"cannot split {count} terminals into {shards} shards"
        )
    base, extra = divmod(count, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)


def _spill_spec(spec: FleetSpec, directory: Path) -> Dict[str, str]:
    """Write the spec's columns as ``.npy`` files for memory-mapping.

    Worker processes ``np.load(..., mmap_mode="r")`` and slice their
    shard, so the fleet's parameter columns live in the OS page cache
    once instead of being pickled into every worker.
    """
    paths: Dict[str, str] = {}
    for name in _SPEC_COLUMNS:
        path = directory / f"{name}.npy"
        np.save(path, getattr(spec, name))
        paths[name] = str(path)
    return paths


def _shard_arrays(
    source: Dict[str, object], lo: int, hi: int
) -> Dict[str, np.ndarray]:
    """Materialize one shard's columns from arrays or spill paths."""
    out: Dict[str, np.ndarray] = {}
    for name in _SPEC_COLUMNS:
        column = source[name]
        if isinstance(column, str):
            column = np.load(column, mmap_mode="r")
        out[name] = np.asarray(column[lo:hi])
    return out


def _run_shard(
    index: int,
    lo: int,
    hi: int,
    source: Dict[str, object],
    topology: CellTopology,
    n_profiles: int,
    max_delay,
    plan_rows: Tuple[int, ...],
    slots: int,
    seed: int,
    event_mode: str,
) -> Dict[str, object]:
    """Run one shard to completion; returns its snapshot as a dict.

    Module-level so pooled workers can pickle it; the in-process path
    runs the exact same function on the exact same arrays (see
    :mod:`repro.parallel`), which is what makes ``workers=N``
    bit-identical to a serial fleet run.
    """
    engine = FleetShardEngine(
        topology=topology,
        n_profiles=n_profiles,
        max_delay=max_delay,
        plan_rows=plan_rows,
        global_offset=lo,
        seed=seed,
        event_mode=event_mode,
        **_shard_arrays(source, lo, hi),
    )
    engine.run(slots)
    return engine.snapshot(index=index).to_dict()


# -- fleet checkpoints --------------------------------------------------


def _fleet_fingerprint(
    spec: FleetSpec,
    bounds: Sequence[Tuple[int, int]],
    slots: int,
    seed: int,
    event_mode: str,
) -> dict:
    """The identity a fleet checkpoint must match to be resumed.

    Extends the schema-v2 campaign fingerprint idea with the realized
    *population* fingerprint and the shard layout: a checkpoint written
    for different subscribers, a different geometry, or a different
    shard partition describes different random variables (or
    incompatible partial sums) and is refused, not silently pooled.
    """
    return {
        "version": _FLEET_CHECKPOINT_VERSION,
        "population": spec.fingerprint(),
        "topology": repr(spec.topology),
        "max_delay": _json_delay(spec.max_delay),
        "terminals": spec.count,
        "bounds": [[int(lo), int(hi)] for lo, hi in bounds],
        "slots": slots,
        "seed": seed,
        "event_mode": event_mode,
    }


def _load_fleet_checkpoint(
    path: Path, fingerprint: dict
) -> Dict[int, ShardSnapshot]:
    """Read a fleet checkpoint, validating it belongs to this run."""
    return read_checkpoint(
        path,
        fingerprint,
        lambda payload: {
            int(entry["index"]): ShardSnapshot.from_dict(entry["snapshot"])
            for entry in payload["shards"]
        },
        label="fleet checkpoint",
        mismatch="a different run (population/topology/shard layout/slots/"
        "seed differ)",
        remedy="delete the file to restart (shard results are re-derivable "
        "-- only compute time is lost) or point the run at a fresh path",
    )


def _write_fleet_checkpoint(
    path: Path, fingerprint: dict, completed: Dict[int, ShardSnapshot]
) -> None:
    atomic_write_json(
        path,
        {
            "fingerprint": fingerprint,
            "shards": [
                {"index": index, "snapshot": completed[index].to_dict()}
                for index in sorted(completed)
            ],
        },
    )


# -- the fleet runner ---------------------------------------------------


def run_fleet(
    spec: FleetSpec,
    slots: int,
    shards: int = 1,
    seed: int = 0,
    workers: Optional[Union[int, str]] = None,
    event_mode: str = "exclusive",
    checkpoint: Optional[Union[str, Path]] = None,
    spill_dir: Optional[Union[str, Path]] = None,
) -> FleetResult:
    """Simulate a heterogeneous fleet, sharded across processes.

    ``shards`` partitions the population into contiguous blocks (the
    unit of parallelism *and* of checkpointing); ``workers`` selects
    the executor exactly as in :func:`~repro.simulation.runner.
    run_replicated` -- ``None``/``1``/``"serial"`` run in-process, an
    int > 1 dispatches shards to that many worker processes, shipping
    the parameter columns as memory-mapped spill files (``spill_dir``
    overrides where; default is a temporary directory, removed
    afterwards).  Because shard randomness is stateless in the global
    terminal index, the executor AND the shard count never change event
    totals -- see the module docstring for the exact contract.

    ``checkpoint`` names a JSON file updated atomically after every
    completed shard; a killed run rerun with the same spec, slots,
    seed, and shard count resumes with any subset of shards complete.
    ``seed`` drives event noise only -- the population is pinned by
    ``spec`` (its own ``population_seed`` is recorded in the
    fingerprint).
    """
    if slots < 1:
        raise ParameterError(f"slots must be >= 1, got {slots}")
    _check_event_mode(event_mode)
    bounds = shard_bounds(spec.count, shards)
    pool_size = resolve_workers(workers)
    parent_obs = _obs_context.current()
    fingerprint = _fleet_fingerprint(spec, bounds, slots, seed, event_mode)
    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    completed: Dict[int, ShardSnapshot] = {}
    if checkpoint_path is not None and checkpoint_path.exists():
        completed = _load_fleet_checkpoint(checkpoint_path, fingerprint)
    pending = [i for i in range(len(bounds)) if i not in completed]

    def record(index: int, snapshot_dict: Dict[str, object]) -> None:
        completed[index] = ShardSnapshot.from_dict(snapshot_dict)
        if checkpoint_path is not None:
            _write_fleet_checkpoint(checkpoint_path, fingerprint, completed)

    def shard_jobs(source: Dict[str, object]) -> List[Job]:
        jobs = []
        for index in pending:
            lo, hi = bounds[index]
            args = (index, lo, hi, source, spec.topology, len(spec.profile_names),
                    spec.max_delay, spec.plan_rows, slots, seed, event_mode)
            jobs.append((index, args, {"shard": index, "terminals": hi - lo,
                                       "slots": slots}))
        return jobs

    with parent_obs.tracer.span(
        "simulate.fleet_run",
        terminals=spec.count,
        shards=len(bounds),
        slots=slots,
        workers=pool_size or 1,
    ):
        if pool_size is None:
            source = {name: getattr(spec, name) for name in _SPEC_COLUMNS}
            run_jobs(_run_shard, shard_jobs(source), None, record,
                     span="simulate.fleet_shard", merge_key="shard")
        elif pending:
            spill_root = tempfile.mkdtemp(
                prefix="fleet-spill-",
                dir=str(spill_dir) if spill_dir is not None else None,
            )
            try:
                source = _spill_spec(spec, Path(spill_root))
                run_jobs(_run_shard, shard_jobs(source), pool_size, record,
                         span="simulate.fleet_shard", merge_key="shard")
            finally:
                shutil.rmtree(spill_root, ignore_errors=True)
        if parent_obs.enabled:
            # Fleet-level exact accounting: every counter is fed once
            # per shard from its snapshot, in shard-index order, so the
            # exported totals are bit-equal to summing the snapshot
            # columns regardless of the executor.
            instruments = _event_instruments(parent_obs.registry, engine="fleet")
            for index in sorted(completed):
                snapshot = completed[index]
                instruments["slots"].inc(snapshot.slots * snapshot.terminals)
                instruments["moves"].inc(snapshot.moves)
                instruments["updates"].inc(snapshot.updates)
                instruments["calls"].inc(snapshot.calls)
                instruments["polled"].inc(snapshot.polled_cells)
                instruments["update_cost"].inc(snapshot.update_cost)
                instruments["paging_cost"].inc(snapshot.paging_cost)
                for cycles, count in sorted(snapshot.delay_histogram.items()):
                    instruments["delay"].observe(cycles, count)
    return FleetResult(
        spec_fingerprint=fingerprint["population"],
        profile_names=spec.profile_names,
        shards=tuple(completed[i] for i in sorted(completed)),
    )


# -- benchmarking -------------------------------------------------------


def _peak_rss_bytes() -> Dict[str, int]:
    """High-water RSS of this process and its (reaped) children."""
    import resource

    scale = 1024  # ru_maxrss is KiB on Linux
    if not hasattr(resource, "getrusage"):  # pragma: no cover - non-posix
        return {"self": 0, "children": 0}
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        * scale,
    }


def fleet_report(
    terminals: int,
    shards: int,
    slots: int,
    workers: Optional[Union[int, str]] = None,
    seed: int = 0,
    population_seed: Optional[int] = None,
    population: Optional[Population] = None,
    costs: Optional[CostParams] = None,
    max_delay=2,
    topology: Optional[CellTopology] = None,
    d_max: int = 30,
    checkpoint: Optional[Union[str, Path]] = None,
    rss_base_budget_bytes: int = 600 * 1024 * 1024,
    rss_budget_bytes_per_terminal: float = 256.0,
) -> dict:
    """Run a fleet once and report throughput plus the RSS bound.

    The memory budget is deliberately loose -- ``base + per_terminal *
    N`` with a few hundred bytes per terminal -- because its job is to
    catch *asymptotic* regressions (anything that materializes
    per-terminal per-slot history blows through it by orders of
    magnitude), not to fight allocator noise.  Consumed by
    ``benchmarks/bench_throughput.py`` and ``repro-lm fleet --json``.
    """
    from ..workload.profiles import DEFAULT_MIX  # local: avoid cycle

    population = population if population is not None else Population(DEFAULT_MIX)
    costs = costs if costs is not None else CostParams(update_cost=50.0, poll_cost=2.0)
    tic = time.perf_counter()
    spec = FleetSpec.from_population(
        population,
        terminals,
        costs,
        max_delay,
        seed=population_seed if population_seed is not None else seed,
        topology=topology,
        d_max=d_max,
    )
    build_seconds = time.perf_counter() - tic
    tic = time.perf_counter()
    result = run_fleet(
        spec, slots=slots, shards=shards, seed=seed, workers=workers,
        checkpoint=checkpoint,
    )
    run_seconds = time.perf_counter() - tic
    rss = _peak_rss_bytes()
    budget = int(rss_base_budget_bytes + rss_budget_bytes_per_terminal * terminals)
    peak = max(rss["self"], rss["children"])
    return {
        "config": {
            "terminals": terminals,
            "shards": shards,
            "slots": slots,
            "workers": workers if isinstance(workers, int) else 1,
            "seed": seed,
            "max_delay": _json_delay(validate_delay(max_delay)),
            "topology": repr(spec.topology),
            "population": spec.profile_counts(),
            "population_fingerprint": result.spec_fingerprint,
        },
        "build_seconds": build_seconds,
        "run_seconds": run_seconds,
        "terminal_slots": result.terminal_slots,
        "terminal_slots_per_sec": (
            result.terminal_slots / run_seconds if run_seconds else math.inf
        ),
        "mean_total_cost": result.mean_total_cost,
        "mean_update_cost": result.mean_update_cost,
        "mean_paging_cost": result.mean_paging_cost,
        "mean_paging_delay": result.mean_paging_delay,
        "updates": result.updates,
        "calls": result.calls,
        "moves": result.moves,
        "polled_cells": result.polled_cells,
        "per_profile": result.per_profile(),
        "peak_rss_bytes": {**rss, "max": peak},
        "rss_budget_bytes": budget,
        "rss_within_budget": peak <= budget,
    }
