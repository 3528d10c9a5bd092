"""Per-layer attribution of the traced run, and its artifact.

Each traced op runs under a fresh observability session.  The benchmark
opens a span named after the layer around every public call it makes
into a layer, and the spans the library emits itself (``analytic.*``,
``analysis.grid_sweep``, ``simulate.*``) nest inside them.  A layer's
self time is the duration of its spans minus the part their child spans
cover.  A span :data:`LAYER_OF_SPAN` does not name -- say one a later
change adds inside the library -- is charged to its nearest named
ancestor.  The op's wall time minus its top-level spans is
``unattributed``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from .common import Sample, units

#: Span name -> the layer its self time is charged to.
LAYER_OF_SPAN = {
    # Opened by the benchmark around public calls.
    "core.threshold": "core.threshold.search",
    "core.near_optimal": "core.near_optimal",
    "analysis.sweep": "analysis.sweep.cache_io",
    "core.baselines": "core.baselines",
    "strategies.jointly_optimal": "strategies.jointly_optimal",
    "core.costs": "core.costs",
    "simulation.vectorized.build": "simulation.vectorized.build",
    # run() returns per-terminal results: the part of it outside the
    # library's step span is result materialization.
    "simulation.vectorized.run": "simulation.vectorized.result",
    "simulation.vectorized.reset": "simulation.vectorized.result",
    "simulation.vectorized.result": "simulation.vectorized.result",
    # run_fleet minus its shards: merge and checkpoint writes.
    "simulation.fleet": "simulation.fleet.orchestration",
    "workload.profiles": "workload.profiles.population_build",
    # Emitted by the library.
    "analytic.batched_steady_states": "core.batch.steady_state",
    "analytic.banded_steady_state": "core.batch.steady_state",
    "analytic.compute_cost_surface": "core.batch.cost_surface",
    "analytic.batched_surface": "core.batch.cost_surface",
    # The sweep's own span wraps the per-point threshold searches; the
    # benchmark's span around grid_sweep keeps only the cache I/O.
    "analysis.grid_sweep": "core.threshold.search",
    "simulate.vectorized_run": "simulation.vectorized.step",
    "simulate.fleet_run": "simulation.fleet.orchestration",
    "simulate.fleet_shard": "simulation.fleet.shard",
}

#: Library spans that each mark one batched steady-state solve.
STEADY_STATE_SPANS = frozenset(
    {"analytic.batched_steady_states", "analytic.banded_steady_state"}
)


@dataclass
class TracedOp:
    """One traced op: wall time, self time per layer, counts and output."""

    index: int
    wall: float
    layers: Dict[str, float]
    top_level: float
    solves: int
    chains: int
    counts: Dict[str, float]
    summary: object
    payload: dict

    @classmethod
    def from_records(cls, index, wall, records, counts, summary, payload) -> "TracedOp":
        by_id = {record.span_id: record for record in records}
        covered = defaultdict(float)
        for record in records:
            if record.parent_id in by_id:
                covered[record.parent_id] += record.duration
        layers = defaultdict(float)
        for record in records:
            layers[_layer(record, by_id)] += record.duration - covered[record.span_id]
        # A chain is one (model, q, c): the benchmark's spans name the
        # chain their call solves.
        chains = {
            (record.metadata["model"], record.metadata["q"], record.metadata["c"])
            for record in records
            if {"model", "q", "c"} <= record.metadata.keys()
        }
        return cls(
            index=index,
            wall=wall,
            layers=dict(layers),
            top_level=sum(r.duration for r in records if r.parent_id not in by_id),
            solves=sum(record.name in STEADY_STATE_SPANS for record in records),
            chains=len(chains),
            counts=counts,
            summary=summary,
            payload=payload,
        )

    def exact(self) -> tuple:
        """What must repeat exactly when the same op runs again."""
        return self.counts, self.solves, self.chains, self.summary


def _layer(record, by_id) -> str:
    while record is not None:
        layer = LAYER_OF_SPAN.get(record.name)
        if layer is not None:
            return layer
        record = by_id.get(record.parent_id)
    return "other"


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


def per_layer_metrics(
    traced: List[TracedOp], samples: List[Sample], population_s: float
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; 0 for layers the
    workload never enters.

    ``samples[op.index]`` is the untraced run of each traced op, made
    just before it: its calibration scale applies to the traced op too.
    """
    metrics = dict.fromkeys(units("per_layer"), 0.0)
    metrics["workload.profiles.population_build_ms"] = population_s * 1e3
    if not traced:
        return metrics
    scales = [samples[op.index].scale for op in traced]
    for layer in set(LAYER_OF_SPAN.values()) - {"workload.profiles.population_build"}:
        if f"{layer}_ms" in metrics:
            metrics[f"{layer}_ms"] = _median_ms(
                [op.layers.get(layer, 0.0) * k for op, k in zip(traced, scales)]
            )
    first = traced[0]
    metrics.update({k: v for k, v in first.counts.items() if k in metrics})
    metrics["core.batch.steady_state_solves"] = first.solves
    solves = sum(op.solves for op in traced)
    if solves:
        metrics["core.batch.chain_reuse_ratio"] = sum(op.chains for op in traced) / solves
    hits = sum(op.counts.get("analysis.sweep.cache_hits", 0) for op in traced)
    misses = sum(op.counts.get("analysis.sweep.cache_misses", 0) for op in traced)
    if hits + misses:
        metrics["analysis.sweep.cache_hit_ratio"] = hits / (hits + misses)
    for engine, busy in (
        ("simulation.vectorized", "simulation.vectorized.step"),
        ("simulation.fleet", "simulation.fleet.shard"),
    ):
        rates = [
            op.counts[f"{engine}.terminal_slots"] / (op.layers[busy] * k)
            for op, k in zip(traced, scales)
            if op.layers.get(busy)
        ]
        if rates:
            metrics[f"{engine}.terminal_slots_per_s"] = statistics.median(rates)
    metrics["traced_op_ms"] = _median_ms([op.wall * k for op, k in zip(traced, scales)])
    metrics["unattributed_ms"] = _median_ms(
        [(op.wall - op.top_level) * k for op, k in zip(traced, scales)]
    )
    metrics["observability.trace_overhead_pct"] = 100.0 * (
        statistics.median(op.wall / samples[op.index].latency for op in traced) - 1.0
    )
    return metrics


def layer_table(traced: List[TracedOp], samples: List[Sample]) -> List[Tuple[str, float, float]]:
    """``(layer, median scaled self ms per op, % of traced op time)``
    rows, largest share first, then the unattributed remainder.  Shares
    are of mean times, so they add up to 100."""
    scales = [samples[op.index].scale for op in traced]
    mean_wall = statistics.fmean(op.wall * k for op, k in zip(traced, scales))

    def row(name, per_op):
        per_op = [value * k for value, k in zip(per_op, scales)]
        return name, _median_ms(per_op), 100.0 * statistics.fmean(per_op) / mean_wall

    names = sorted({layer for op in traced for layer in op.layers})
    rows = [row(layer, [op.layers.get(layer, 0.0) for op in traced]) for layer in names]
    rows.sort(key=lambda entry: -entry[2])
    rows.append(row("unattributed", [op.wall - op.top_level for op in traced]))
    return rows


def write_artifact(path: Path, traced, metrics, rows, params, seed) -> Path:
    """All traced ops' spans and library metrics plus the per-layer table,
    as one JSONL observability artifact that ``repro-lm metrics
    summarize`` reads."""
    from repro.observability.context import session
    from repro.observability.export import build_provenance
    from repro.observability.export import write_artifact as write_jsonl

    with session() as artifact:
        for op in traced:
            artifact.merge_payload(op.payload, op=op.index)
        registry = artifact.registry
        for layer, self_ms, share in rows:
            registry.gauge("perfbench_layer_self_ms", layer=layer).set(self_ms)
            registry.gauge("perfbench_layer_share_pct", layer=layer).set(share)
        for name, value in metrics.items():
            registry.gauge("perfbench_per_layer", metric=name).set(value)
        for name, value in traced[0].counts.items():
            registry.gauge("perfbench_first_op_count", count=name).set(value)
        return write_jsonl(path, artifact, build_provenance("perfbench", params, seed=seed))
