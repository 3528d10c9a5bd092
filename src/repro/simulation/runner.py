"""Replicated simulation runs with analytic comparison.

One simulation run is a sample; conclusions need replications.  The
runner executes ``replications`` independent engines (child-seeded from
one master seed), pools their per-slot statistics, and -- when asked --
compares the empirical means against the analytical model's
predictions, returning structured results the validation bench and
tests assert on.

Parallel execution
------------------

``run_replicated(..., workers=N)`` dispatches replications to a
:class:`concurrent.futures.ProcessPoolExecutor`.  Every replication is
seeded from the master :class:`numpy.random.SeedSequence` by its index
alone, so the pooled result is **bit-identical** to a serial run of the
same campaign -- parallelism changes wall-clock time, never numbers.
``workers=None``, ``workers=1``, and ``workers="serial"`` all run
in-process.  Worker processes need picklable arguments; pass
``functools.partial(DistanceStrategy, d, max_delay=m)`` rather than a
lambda as the strategy factory when using a pool.

Crash safety
------------

Long validation sweeps should survive interruption instead of losing
hours of work.  ``run_replicated(..., checkpoint=path)`` writes an
atomic JSON checkpoint (write-to-temp + rename) after *every* finished
replication -- in pooled runs, as each future completes, in whatever
order they finish; rerunning the same call resumes from the completed
indices and -- because replications are child-seeded deterministically
from the master seed -- produces bit-identical pooled results to an
uninterrupted run.  A checkpoint from a different configuration
(including a different topology, strategy, or start cell) is refused,
not silently reused.

``replication_deadline`` bounds the wall-clock seconds any single
replication may take; a replication that overruns is cut short and
reported as a structured :class:`PartialReplication` (excluded from the
pooled statistics, preserved for inspection) rather than poisoning the
campaign.  On resume, deadline-truncated indices are *retried* -- a
rerun with a longer (or no) deadline gives every replication the
chance to finish instead of silently keeping truncated snapshots out
of the pool forever.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.costs import CostEvaluator
from ..core.models import MobilityModel
from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError
from ..geometry.topology import Cell, CellTopology
from ..observability import context as _obs_context
from ..parallel import resolve_workers, run_jobs
from ..persist import atomic_write_json, read_checkpoint
from ..strategies.base import UpdateStrategy
from .engine import SimulationEngine, strategy_labels
from .metrics import CostMeter, MeterColumns, MeterSnapshot

__all__ = [
    "PartialReplication",
    "ReplicatedResult",
    "ModelComparison",
    "run_replicated",
    "validate_against_model",
]

#: Checkpoint schema version; bumped on incompatible layout changes.
#: Version 2: snapshots carry explicit replication indices (any-order
#: parallel completion) and the fingerprint includes topology,
#: strategy, and start-cell identity.
_CHECKPOINT_VERSION = 2

#: Slots simulated between deadline checks (a deadline cannot be
#: enforced mid-`engine.run`, so the run is chunked when one is set).
_DEADLINE_CHUNK_SLOTS = 5_000

#: Factory producing a fresh strategy per replication (strategies are
#: stateful and cannot be shared across engines).
StrategyFactory = Callable[[], UpdateStrategy]


@dataclass(frozen=True)
class PartialReplication:
    """A replication cut short by its deadline: what finished, and how far.

    The snapshot covers ``completed_slots`` of the ``target_slots``
    asked for; it is excluded from the campaign's pooled means (a
    shorter run is not an exchangeable sample) but kept so the caller
    can inspect or salvage it.
    """

    index: int
    completed_slots: int
    target_slots: int
    snapshot: MeterSnapshot


class ReplicatedResult:
    """Pooled outcome of several independent simulation runs.

    The pooled statistics read :class:`~repro.simulation.metrics.
    MeterColumns`, one row per run, fixed when the result is made.  A
    result made from a ``snapshots`` list stacks it into columns.  The
    vectorized engine passes its per-terminal ``columns`` together with
    a zero-argument ``snapshots`` builder, which runs when
    :attr:`snapshots` is first read.  ``partials`` lists replications
    that hit their deadline; pooled statistics cover the completed runs
    only.
    """

    def __init__(
        self,
        snapshots: Union[
            Sequence[MeterSnapshot], Callable[[], List[MeterSnapshot]]
        ] = (),
        partials: Tuple[PartialReplication, ...] = (),
        columns: Optional[MeterColumns] = None,
    ) -> None:
        if columns is None:
            snapshots = list(snapshots)
            columns = MeterColumns.from_snapshots(snapshots)
        self.columns = columns
        self.partials = tuple(partials)
        self._snapshots = snapshots

    @property
    def snapshots(self) -> List[MeterSnapshot]:
        """One :class:`MeterSnapshot` per completed run."""
        if callable(self._snapshots):
            self._snapshots = self._snapshots()
        return self._snapshots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicatedResult):
            return NotImplemented
        return self.snapshots == other.snapshots and self.partials == other.partials

    @property
    def replications(self) -> int:
        return len(self.columns.calls)

    @property
    def mean_total_cost(self) -> float:
        """Grand mean of per-slot total cost across replications."""
        return float(np.mean(self.columns.mean_total_cost))

    @property
    def mean_update_cost(self) -> float:
        return float(np.mean(self.columns.mean_update_cost))

    @property
    def mean_paging_cost(self) -> float:
        return float(np.mean(self.columns.mean_paging_cost))

    @property
    def mean_paging_delay(self) -> float:
        with_calls = self.columns.calls > 0
        if not with_calls.any():
            return 0.0
        return float(np.mean(self.columns.mean_paging_delay[with_calls]))

    def total_cost_ci(self, z: float = 1.96) -> float:
        """Half-width of the CI for the grand mean (over replications).

        Uses the between-replication standard error -- the standard
        batch-means approach, robust to any within-run correlation.
        """
        if self.replications < 2:
            return math.inf
        values = self.columns.mean_total_cost
        return z * float(np.std(values, ddof=1)) / math.sqrt(self.replications)


def _campaign_fingerprint(
    topology: CellTopology,
    strategy_repr: str,
    start: Optional[Cell],
    mobility: MobilityParams,
    costs: CostParams,
    slots: int,
    replications: int,
    seed: int,
    event_mode: str,
    warmup_slots: int,
    walker_repr: Optional[str] = None,
) -> dict:
    """The configuration identity a checkpoint must match to be resumed.

    Topology, strategy configuration (name, threshold, delay bound),
    and the start cell are part of the identity: a checkpoint written
    by a run with a different geometry or threshold describes different
    random variables and must be refused, not silently pooled.
    ``workers`` and ``replication_deadline`` are deliberately absent --
    neither changes what a completed replication computes.
    """
    fingerprint = {
        "version": _CHECKPOINT_VERSION,
        "topology": repr(topology),
        "strategy": strategy_repr,
        "start": repr(start),
        "q": mobility.move_probability,
        "c": mobility.call_probability,
        "update_cost": costs.update_cost,
        "poll_cost": costs.poll_cost,
        "slots": slots,
        "replications": replications,
        "seed": seed,
        "event_mode": event_mode,
        "warmup_slots": warmup_slots,
    }
    # Only non-default walkers enter the identity, so checkpoints from
    # earlier library versions (no walker key) keep resuming unchanged.
    if walker_repr is not None:
        fingerprint["walker"] = walker_repr
    return fingerprint


def _load_checkpoint(
    path: Path, fingerprint: dict
) -> Tuple[Dict[int, MeterSnapshot], Dict[int, PartialReplication]]:
    """Read a checkpoint, validating it belongs to this campaign.

    Returns completed snapshots and deadline-truncated partials, both
    keyed by replication index (completion order is arbitrary under a
    worker pool).
    """

    def parse(payload: dict):
        completed = {
            int(entry["index"]): MeterSnapshot.from_dict(entry["snapshot"])
            for entry in payload["snapshots"]
        }
        partials = {
            int(p["index"]): PartialReplication(
                index=int(p["index"]),
                completed_slots=int(p["completed_slots"]),
                target_slots=int(p["target_slots"]),
                snapshot=MeterSnapshot.from_dict(p["snapshot"]),
            )
            for p in payload.get("partials", [])
        }
        return completed, partials

    return read_checkpoint(
        path,
        fingerprint,
        parse,
        label="checkpoint",
        mismatch="a different campaign (topology/strategy/start/seed/slots/"
        "replications/parameters differ)",
        remedy="delete the file to restart the campaign (child seeding is "
        "deterministic, so no statistical ground is lost -- only compute "
        "time) or point the run at a fresh path",
    )


def _write_checkpoint(
    path: Path,
    fingerprint: dict,
    completed: Dict[int, MeterSnapshot],
    partials: Dict[int, PartialReplication],
) -> None:
    """Atomically persist campaign progress: write-to-temp + rename."""
    payload = {
        "fingerprint": fingerprint,
        "snapshots": [
            {"index": index, "snapshot": completed[index].to_dict()}
            for index in sorted(completed)
        ],
        "partials": [
            {
                "index": p.index,
                "completed_slots": p.completed_slots,
                "target_slots": p.target_slots,
                "snapshot": p.snapshot.to_dict(),
            }
            for _, p in sorted(partials.items())
        ],
    }
    atomic_write_json(path, payload)


def _run_one_replication(
    seed: np.random.SeedSequence,
    topology: CellTopology,
    strategy_factory: StrategyFactory,
    mobility: MobilityParams,
    costs: CostParams,
    slots: int,
    start: Optional[Cell],
    event_mode: str,
    warmup_slots: int,
    replication_deadline: Optional[float],
    walker_factory=None,
) -> Tuple[MeterSnapshot, int]:
    """Run one replication to completion (or to its deadline).

    Module-level so worker processes can pickle and run it; both
    executors run this exact function (see :mod:`repro.parallel`), which
    is what makes ``workers=N`` bit-identical to a serial campaign.
    Returns the snapshot and the number of slots completed.
    """
    engine = SimulationEngine(
        topology=topology,
        strategy=strategy_factory(),
        mobility=mobility,
        costs=costs,
        seed=seed,
        start=start,
        event_mode=event_mode,
        walker_factory=walker_factory,
    )
    if warmup_slots:
        engine.run(warmup_slots)
        engine.meter = CostMeter(costs.update_cost, costs.poll_cost)
    if replication_deadline is None:
        return engine.run(slots), slots
    deadline = time.monotonic() + replication_deadline
    remaining = slots
    while remaining > 0 and time.monotonic() < deadline:
        chunk = min(remaining, _DEADLINE_CHUNK_SLOTS)
        engine.run(chunk)
        remaining -= chunk
    return engine.meter.snapshot(), slots - remaining


def run_replicated(
    topology: CellTopology,
    strategy_factory: StrategyFactory,
    mobility: MobilityParams,
    costs: CostParams,
    slots: int,
    replications: int = 5,
    seed: int = 0,
    start: Optional[Cell] = None,
    event_mode: str = "exclusive",
    warmup_slots: int = 0,
    checkpoint: Optional[Union[str, Path]] = None,
    replication_deadline: Optional[float] = None,
    workers: Optional[Union[int, str]] = None,
    walker_factory=None,
) -> ReplicatedResult:
    """Run ``replications`` independent engines and pool their snapshots.

    ``warmup_slots`` slots are simulated *before* metering begins in
    each replication, eliminating the fresh-fix transient (the terminal
    starts at ring 0, where costs are below steady state; see
    :mod:`repro.core.transient` for how long the transient lasts).
    Warm-up costs are discarded by swapping in a fresh meter.

    ``workers`` selects the executor: ``None``, ``1``, or ``"serial"``
    run in-process; an int > 1 dispatches replications to that many
    worker processes.  Replication ``i`` is always seeded by child ``i``
    of the master seed, so the pooled result is bit-identical across
    executors.  A pooled run needs picklable arguments -- use
    ``functools.partial`` rather than a lambda for the factory.

    ``checkpoint`` names a JSON file updated atomically after every
    replication (as futures complete, in any order, under a pool); an
    interrupted campaign rerun with the same arguments resumes from the
    completed indices and yields the same pooled result as an
    uninterrupted run.  ``replication_deadline`` caps any single
    replication at that many wall-clock seconds; overruns become
    :class:`PartialReplication` entries in the result, and are retried
    on a later resume.

    ``walker_factory`` overrides each engine's mobility process (see
    :class:`~repro.simulation.engine.SimulationEngine`); use a picklable
    factory such as ``CTRWSpec.walker_factory()`` under a worker pool.
    It enters the checkpoint fingerprint, so a checkpoint written with a
    different walker is refused.
    """
    if replications < 1:
        raise ParameterError(f"replications must be >= 1, got {replications}")
    if warmup_slots < 0:
        raise ParameterError(f"warmup_slots must be >= 0, got {warmup_slots}")
    if replication_deadline is not None and replication_deadline <= 0:
        raise ParameterError(
            f"replication_deadline must be > 0 seconds, got {replication_deadline}"
        )
    pool_size = resolve_workers(workers)
    parent_obs = _obs_context.current()
    # One probe instance pins down the strategy's configuration (name,
    # threshold, delay bound) for the checkpoint fingerprint and
    # validates the factory before any simulation work starts.
    probe_strategy = strategy_factory()
    strategy_repr = repr(probe_strategy)
    fingerprint = _campaign_fingerprint(
        topology, strategy_repr, start, mobility, costs, slots, replications,
        seed, event_mode, warmup_slots,
        walker_repr=None if walker_factory is None else repr(walker_factory),
    )
    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    completed: Dict[int, MeterSnapshot] = {}
    partials: Dict[int, PartialReplication] = {}
    if checkpoint_path is not None and checkpoint_path.exists():
        completed, stale_partials = _load_checkpoint(checkpoint_path, fingerprint)
        # Deadline-truncated indices are retried rather than resumed:
        # this rerun may have a longer (or no) deadline, and re-running
        # is safe because the child seed depends only on the index.
        del stale_partials
    master = np.random.SeedSequence(seed)
    children = master.spawn(replications)
    pending = [i for i in range(replications) if i not in completed]

    def record(index: int, outcome: Tuple[MeterSnapshot, int]) -> None:
        snapshot, completed_slots = outcome
        if completed_slots < slots:
            partials[index] = PartialReplication(
                index=index,
                completed_slots=completed_slots,
                target_slots=slots,
                snapshot=snapshot,
            )
        else:
            completed[index] = snapshot
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, fingerprint, completed, partials)

    jobs = [
        (
            index,
            (
                children[index], topology, strategy_factory, mobility, costs,
                slots, start, event_mode, warmup_slots, replication_deadline,
                walker_factory,
            ),
            {"index": index, "slots": slots},
        )
        for index in pending
    ]

    with parent_obs.tracer.span(
        "simulate.run_replicated",
        replications=replications,
        workers=pool_size or 1,
        slots=slots,
        strategy=strategy_repr,
    ):
        if pool_size is not None and pending:
            try:
                pickle.dumps(
                    (topology, strategy_factory, mobility, costs, start,
                     walker_factory)
                )
            except Exception as exc:
                raise ParameterError(
                    f"workers={workers!r} runs replications in worker processes, "
                    "which requires picklable campaign arguments; the strategy "
                    "factory is usually the blocker -- pass functools.partial("
                    "DistanceStrategy, d, max_delay=m) instead of a lambda "
                    f"({exc})"
                ) from exc
        run_jobs(
            _run_one_replication, jobs, pool_size, record,
            span="simulate.replication", merge_key="replication",
        )
        if parent_obs.enabled:
            # Campaign-level exact cost accounting: one increment per
            # completed replication from its snapshot, in index order --
            # never per event -- so the exported totals are bit-equal to
            # summing the snapshot columns, regardless of the executor
            # (the invariant tests/properties/test_property_metrics.py
            # asserts).
            labels = dict(strategy_labels(probe_strategy), engine="per-cell")
            update_total = parent_obs.registry.counter(
                "update_cost_total", **labels
            )
            paging_total = parent_obs.registry.counter(
                "paging_cost_total", **labels
            )
            for index in sorted(completed):
                update_total.inc(completed[index].update_cost)
                paging_total.inc(completed[index].paging_cost)
    return ReplicatedResult(
        snapshots=[completed[i] for i in sorted(completed)],
        partials=tuple(partials[i] for i in sorted(partials)),
    )


def run_until_precision(
    topology: CellTopology,
    strategy_factory: StrategyFactory,
    mobility: MobilityParams,
    costs: CostParams,
    target_half_width: float,
    batch_slots: int = 20_000,
    replications: int = 5,
    max_slots_per_replication: int = 2_000_000,
    seed: int = 0,
    start: Optional[Cell] = None,
    event_mode: str = "exclusive",
    warmup_slots: int = 0,
) -> ReplicatedResult:
    """Extend replications in batches until the CI is tight enough.

    Runs ``replications`` persistent engines and keeps adding
    ``batch_slots`` to each until the between-replication 95% CI
    half-width of the mean total cost drops to ``target_half_width``
    (or the per-replication budget runs out -- the result is returned
    either way; check :meth:`ReplicatedResult.total_cost_ci`).
    """
    if target_half_width <= 0:
        raise ParameterError(
            f"target_half_width must be > 0, got {target_half_width}"
        )
    if batch_slots < 1:
        raise ParameterError(f"batch_slots must be >= 1, got {batch_slots}")
    if replications < 2:
        raise ParameterError(
            f"need >= 2 replications for a CI, got {replications}"
        )
    master = np.random.SeedSequence(seed)
    engines: List[SimulationEngine] = []
    for child in master.spawn(replications):
        engine = SimulationEngine(
            topology=topology,
            strategy=strategy_factory(),
            mobility=mobility,
            costs=costs,
            seed=child,
            start=start,
            event_mode=event_mode,
        )
        if warmup_slots:
            engine.run(warmup_slots)
            engine.meter = CostMeter(costs.update_cost, costs.poll_cost)
        engines.append(engine)
    while True:
        for engine in engines:
            engine.run(batch_slots)
        result = ReplicatedResult(
            snapshots=[engine.meter.snapshot() for engine in engines]
        )
        if result.total_cost_ci() <= target_half_width:
            return result
        if engines[0].meter.slots >= max_slots_per_replication:
            return result


@dataclass(frozen=True)
class ModelComparison:
    """Analytic prediction vs simulation measurement for one point."""

    predicted_total: float
    measured_total: float
    ci_half_width: float
    predicted_update: float
    measured_update: float
    predicted_paging: float
    measured_paging: float

    @property
    def relative_error(self) -> float:
        """|measured - predicted| / predicted (inf if predicted is 0)."""
        if self.predicted_total == 0:
            return math.inf if self.measured_total else 0.0
        return abs(self.measured_total - self.predicted_total) / self.predicted_total

    @property
    def within_ci(self) -> bool:
        """True if the prediction falls inside the measurement's CI.

        An undefined CI (fewer than two replications make the half
        width infinite) is *not* agreement: the comparison had no power
        to reject anything, so this returns False rather than being
        vacuously true.
        """
        if not math.isfinite(self.ci_half_width):
            return False
        return abs(self.measured_total - self.predicted_total) <= self.ci_half_width


def validate_against_model(
    model: MobilityModel,
    costs: CostParams,
    d: int,
    m,
    slots: int = 200_000,
    replications: int = 5,
    seed: int = 0,
    convention: str = "physical",
    workers: Optional[Union[int, str]] = None,
) -> ModelComparison:
    """Compare analytic ``C_u/C_v/C_T`` with a simulation at ``(d, m)``.

    Uses the *physical* boundary convention by default: the simulator
    charges an update whenever the terminal actually leaves the
    residing area, so at ``d = 0`` the empirical update rate is ``q``,
    not the paper's tabulation quirk.

    Requires at least two replications -- with one, the between-
    replication CI is undefined and ``within_ci`` could never hold.
    """
    from ..strategies.distance import DistanceStrategy  # local: avoid cycle
    from functools import partial

    if replications < 2:
        raise ParameterError(
            "validate_against_model needs >= 2 replications for a defined "
            f"confidence interval, got {replications}"
        )
    evaluator = CostEvaluator(model, costs, convention=convention)
    breakdown = evaluator.breakdown(d, m)
    result = run_replicated(
        topology=model.topology,
        strategy_factory=partial(DistanceStrategy, d, max_delay=m),
        mobility=model.mobility,
        costs=costs,
        slots=slots,
        replications=replications,
        seed=seed,
        workers=workers,
    )
    return ModelComparison(
        predicted_total=breakdown.total_cost,
        measured_total=result.mean_total_cost,
        ci_half_width=result.total_cost_ci(),
        predicted_update=breakdown.update_cost,
        measured_update=result.mean_update_cost,
        predicted_paging=breakdown.paging_cost,
        measured_paging=result.mean_paging_cost,
    )
