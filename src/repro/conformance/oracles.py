"""Cross-backend oracles: independent implementations must agree.

Every quantity the library computes has at least two producers -- a
closed form and a recursion, a scalar evaluator and a batched
prefix-sum solve, a per-cell simulator and a vectorized one -- and each
oracle here pairs two of them over the sampled configuration, reporting
the worst disagreement as a deviation:

==============================  =============================================
oracle                          pairing
==============================  =============================================
steady-closed-vs-recursive      closed-form solver vs Section-4.1 recursion
steady-recursive-vs-matrix      recursion vs reference linear solve
steady-batched-vs-scalar        prefix-sum batched matrix vs per-threshold
cost-curve-batched-vs-scalar    ``cost_curve(method="batched")`` vs scalar
surface-vs-breakdown            ``compute_cost_surface`` cell vs ``breakdown``
optimal-threshold-consistency   exhaustive (batched) vs exhaustive-scalar
engine-vs-vectorized            per-cell engine vs vectorized lattice engine
engine-vs-resilient-nofault     base engine vs fault-free ResilientEngine
serial-vs-pooled                ``run_replicated`` serial vs process pool
fleet-sharded-vs-single         ``run_fleet`` sharded vs one shard
fleet-pooled-vs-inprocess       ``run_fleet`` process pool vs in-process
steady-banded-vs-recursive      banded tridiagonal LU vs Section-4.1 recursion
surface-prefix-vs-banded        prefix-sum surface vs per-threshold banded rows
==============================  =============================================

Analytic oracles are exact up to float accumulation (tolerances around
``1e-9``); the per-cell-vs-array simulation oracles are *statistical*
-- the two engines consume randomness differently, so they assert
agreement within the joint confidence interval or a 5% relative band,
expressed as a normalized deviation with tolerance 1.0.
``serial-vs-pooled`` is the exception: worker count must never change
results, so it demands bit identity (tolerance 0.0) and only runs when
the sampler grants a process pool (``pool_workers >= 2``, the full
suite).

The fleet oracles exercise the sharded engine's layout contracts:
``fleet-sharded-vs-single`` holds the seed fixed and re-runs the same
population under several shard counts -- the stateless counter-based
randomness makes event totals *exactly* invariant, so the tolerance is
float-accumulation-sized rather than statistical;
``fleet-pooled-vs-inprocess`` demands bit-identical shard snapshots
between the process-pool and in-process executors (the fleet analogue
of ``serial-vs-pooled``).

The comparison helpers (:func:`replicated_agreement`,
:func:`bitwise_agreement`) are module-level so the conformance tests
can prove the oracles fail on genuinely mismatched runs without paying
for a broken simulator.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .checks import CheckSkipped, ConformanceConfig, Deviation, REGISTRY
from ..exceptions import ParameterError
from ..paging import sdf_partition

__all__ = ["replicated_agreement", "bitwise_agreement"]

#: Relative band for statistical engine-vs-engine agreement, matching
#: the fault-free equivalence bound in the faults test-suite.
ENGINE_REL_LIMIT = 0.05


def replicated_agreement(result_a, result_b, rel_limit: float = ENGINE_REL_LIMIT) -> Deviation:
    """Normalized disagreement between two replicated simulation runs.

    At most 1.0 when the mean total costs agree within the *joint*
    confidence half-width (``ci_a + ci_b``) or within ``rel_limit``
    relatively -- the same two-criterion shape as
    :func:`repro.conformance.agreement.agreement_deviation`.
    """
    mean_a, mean_b = result_a.mean_total_cost, result_b.mean_total_cost
    delta = abs(mean_a - mean_b)
    joint_ci = result_a.total_cost_ci() + result_b.total_cost_ci()
    ratios = []
    if math.isfinite(joint_ci) and joint_ci > 0:
        ratios.append(delta / joint_ci)
    if mean_a != 0:
        ratios.append((delta / abs(mean_a)) / rel_limit)
    value = min(ratios) if ratios else (0.0 if delta == 0 else math.inf)
    return Deviation(
        value,
        f"means {mean_a:.6g} vs {mean_b:.6g}, joint ci={joint_ci:.3g}",
    )


def bitwise_agreement(result_a, result_b) -> Deviation:
    """Exact agreement between two replicated runs (deviation 0 or gap).

    Compares the per-replication snapshot means as well as the pooled
    means, so a pool that reorders or re-seeds replications is caught
    even if the averages happen to collide.
    """
    if len(result_a.snapshots) != len(result_b.snapshots):
        return Deviation(
            math.inf,
            f"replication counts differ: {len(result_a.snapshots)} "
            f"vs {len(result_b.snapshots)}",
        )
    per_rep = [
        abs(sa.mean_total_cost - sb.mean_total_cost)
        for sa, sb in zip(result_a.snapshots, result_b.snapshots)
    ]
    gap = max([abs(result_a.mean_total_cost - result_b.mean_total_cost)] + per_rep)
    return Deviation(float(gap), f"max per-replication gap {float(gap):.3g}")


def _steady_pair(config: ConformanceConfig, method_a: str, method_b: str) -> Deviation:
    model = config.build_model()
    worst, detail = 0.0, ""
    for d in sorted({config.d, config.d_max}):
        try:
            pa = np.asarray(model.steady_state(d, method_a))
        except ParameterError as exc:
            raise CheckSkipped(str(exc)) from None
        pb = np.asarray(model.steady_state(d, method_b))
        gap = float(np.max(np.abs(pa - pb)))
        if gap >= worst:
            worst, detail = gap, f"d={d}: max |p_{method_a} - p_{method_b}| = {gap:.3g}"
    return Deviation(worst, detail)


@REGISTRY.oracle(
    "steady-closed-vs-recursive",
    tolerance=1e-10,
    paper_ref="Sections 3.2, 4.1",
    description="closed-form steady state equals the recursive solve",
)
def _steady_closed_vs_recursive(config: ConformanceConfig) -> Deviation:
    return _steady_pair(config, "closed_form", "recursive")


@REGISTRY.oracle(
    "steady-recursive-vs-matrix",
    tolerance=1e-10,
    paper_ref="Section 4.1",
    description="recursive steady state equals the reference linear solve",
)
def _steady_recursive_vs_matrix(config: ConformanceConfig) -> Deviation:
    return _steady_pair(config, "recursive", "matrix")


@REGISTRY.oracle(
    "steady-batched-vs-scalar",
    tolerance=1e-10,
    paper_ref="Section 4.1",
    description="batched steady states equal per-threshold solves",
)
def _steady_batched_vs_scalar(config: ConformanceConfig) -> Deviation:
    from ..core.batch import batched_steady_states  # deferred: avoid cycle

    model = config.build_model()
    matrix = batched_steady_states(model, config.d_max)
    worst, detail = 0.0, ""
    for d in range(config.d_max + 1):
        scalar = np.asarray(model.steady_state(d))
        gap = float(np.max(np.abs(matrix[d, : d + 1] - scalar)))
        if gap >= worst:
            worst, detail = gap, f"d={d}: max row gap {gap:.3g}"
    return Deviation(worst, detail)


@REGISTRY.oracle(
    "cost-curve-batched-vs-scalar",
    tolerance=1e-9,
    paper_ref="eqns (61)-(66)",
    description="batched cost curve equals the scalar per-threshold curve",
    applies=lambda config: config.plan_factory is None,
)
def _cost_curve_batched_vs_scalar(config: ConformanceConfig) -> Deviation:
    batched = config.build_evaluator().cost_curve(
        config.m, config.d_max, method="batched"
    )
    scalar = config.build_evaluator().cost_curve(
        config.m, config.d_max, method="scalar"
    )
    gap = float(np.max(np.abs(np.asarray(batched) - np.asarray(scalar))))
    return Deviation(gap, f"max |batched - scalar| = {gap:.3g} over d<=:{config.d_max}")


@REGISTRY.oracle(
    "surface-vs-breakdown",
    tolerance=1e-9,
    paper_ref="eqns (61)-(66)",
    description="cost-surface cell matches the scalar breakdown field-by-field",
    applies=lambda config: config.plan_factory is None,
)
def _surface_vs_breakdown(config: ConformanceConfig) -> Deviation:
    from ..core.batch import compute_cost_surface  # deferred: avoid cycle

    model = config.build_model()
    surface = compute_cost_surface(
        model,
        config.costs(),
        d_max=config.d_max,
        delays=(config.m,),
        convention=config.convention,
    )
    breakdown = config.build_evaluator().breakdown(config.d, config.m)
    k, d = surface.delay_index(config.m), config.d
    gaps = {
        "update": abs(surface.update[d] - breakdown.update_cost),
        "paging": abs(surface.paging[k, d] - breakdown.paging_cost),
        "total": abs(surface.total[k, d] - breakdown.total_cost),
        "cells": abs(surface.expected_cells[k, d] - breakdown.expected_polled_cells),
        "delay": abs(surface.expected_delay[k, d] - breakdown.expected_delay),
    }
    worst_field = max(gaps, key=gaps.get)
    return Deviation(
        float(gaps[worst_field]),
        f"worst field {worst_field!r}: gap {float(gaps[worst_field]):.3g}",
    )


@REGISTRY.oracle(
    "optimal-threshold-consistency",
    tolerance=1e-9,
    paper_ref="eqn (66), Section 5",
    description="batched exhaustive optimum equals the scalar-scan optimum",
    applies=lambda config: config.plan_factory is None,
)
def _optimal_threshold_consistency(config: ConformanceConfig) -> Deviation:
    from ..core.threshold import find_optimal_threshold  # deferred

    model = config.build_model()
    batched = find_optimal_threshold(
        model,
        config.costs(),
        max_delay=config.m,
        d_max=config.d_max,
        method="exhaustive",
        convention=config.convention,
    )
    scalar = find_optimal_threshold(
        model,
        config.costs(),
        max_delay=config.m,
        d_max=config.d_max,
        method="exhaustive-scalar",
        convention=config.convention,
    )
    threshold_gap = abs(batched.threshold - scalar.threshold)
    cost_gap = abs(batched.total_cost - scalar.total_cost)
    return Deviation(
        float(threshold_gap + cost_gap),
        f"d*: {batched.threshold} vs {scalar.threshold}, "
        f"C_T gap {cost_gap:.3g}",
    )


def _run_engine(config: ConformanceConfig, seed_offset: int = 0):
    from ..simulation.runner import run_replicated  # deferred: heavy
    from ..strategies.distance import DistanceStrategy

    model = config.build_model()
    return run_replicated(
        topology=model.topology,
        strategy_factory=partial(DistanceStrategy, config.d, max_delay=config.m),
        mobility=config.mobility(),
        costs=config.costs(),
        slots=config.sim_slots,
        replications=config.sim_replications,
        seed=config.seed + seed_offset,
    )


@REGISTRY.oracle(
    "engine-vs-vectorized",
    tolerance=1.0,
    paper_ref="Section 6",
    description="per-cell engine and vectorized lattice engine agree statistically",
    applies=lambda config: config.sim_slots > 0,
)
def _engine_vs_vectorized(config: ConformanceConfig) -> Deviation:
    from ..simulation.vectorized import VectorizedDistanceEngine  # deferred

    reference = _run_engine(config)
    model = config.build_model()
    vectorized = VectorizedDistanceEngine(
        topology=model.topology,
        threshold=config.d,
        mobility=config.mobility(),
        costs=config.costs(),
        max_delay=config.m,
        terminals=max(16, config.sim_replications * 4),
        seed=config.seed,
    ).run(config.sim_slots)
    return replicated_agreement(reference, vectorized)


@REGISTRY.oracle(
    "engine-vs-resilient-nofault",
    tolerance=1.0,
    paper_ref="Section 6",
    description="fault-free ResilientEngine matches the base engine statistically",
    applies=lambda config: config.sim_slots > 0,
)
def _engine_vs_resilient_nofault(config: ConformanceConfig) -> Deviation:
    from ..faults import ResilientEngine  # deferred: heavy
    from ..simulation.engine import SimulationEngine
    from ..strategies.distance import DistanceStrategy

    model = config.build_model()
    base = SimulationEngine(
        model.topology,
        DistanceStrategy(config.d, max_delay=config.m),
        config.mobility(),
        config.costs(),
        seed=config.seed,
    ).run(config.sim_slots)
    resilient = ResilientEngine(
        topology=model.topology,
        strategy=DistanceStrategy(config.d, max_delay=config.m),
        mobility=config.mobility(),
        costs=config.costs(),
        faults=(),
        seed=config.seed,
    ).run(config.sim_slots)
    delta = abs(base.mean_total_cost - resilient.mean_total_cost)
    if base.mean_total_cost == 0:
        value = 0.0 if delta == 0 else math.inf
    else:
        value = (delta / abs(base.mean_total_cost)) / ENGINE_REL_LIMIT
    return Deviation(
        value,
        f"base {base.mean_total_cost:.6g} vs fault-free resilient "
        f"{resilient.mean_total_cost:.6g}",
    )


@REGISTRY.oracle(
    "serial-vs-pooled",
    tolerance=0.0,
    paper_ref="Section 6",
    description="pooled run_replicated is bit-identical to the serial run",
    applies=lambda config: config.sim_slots > 0 and config.pool_workers >= 2,
)
def _serial_vs_pooled(config: ConformanceConfig) -> Deviation:
    from ..simulation.runner import run_replicated  # deferred: heavy
    from ..strategies.distance import DistanceStrategy

    model = config.build_model()
    common = dict(
        topology=model.topology,
        strategy_factory=partial(DistanceStrategy, config.d, max_delay=config.m),
        mobility=config.mobility(),
        costs=config.costs(),
        slots=config.sim_slots,
        replications=config.sim_replications,
        seed=config.seed,
    )
    serial = run_replicated(workers=None, **common)
    pooled = run_replicated(workers=config.pool_workers, **common)
    return bitwise_agreement(serial, pooled)


#: Fleet-oracle budgets: the shard contracts are exact, so a short run
#: is as conclusive as a long one.
_FLEET_TERMINALS = 256
_FLEET_EXACT_SLOTS = 400


def _fleet_spec(config: ConformanceConfig):
    from ..simulation.fleet import FleetSpec  # deferred: heavy

    model = config.build_model()
    return FleetSpec.homogeneous(
        topology=model.topology,
        threshold=config.d,
        mobility=config.mobility(),
        costs=config.costs(),
        max_delay=config.m,
        count=_FLEET_TERMINALS,
    )


@REGISTRY.oracle(
    "fleet-sharded-vs-single",
    tolerance=1e-9,
    paper_ref="Section 6",
    description="fleet totals are invariant under the shard count",
    applies=lambda config: config.sim_slots > 0,
)
def _fleet_sharded_vs_single(config: ConformanceConfig) -> Deviation:
    from ..simulation.fleet import run_fleet  # deferred: heavy

    spec = _fleet_spec(config)
    slots = min(config.sim_slots, _FLEET_EXACT_SLOTS)
    single = run_fleet(spec, slots=slots, shards=1, seed=config.seed)
    worst, detail = 0.0, "all shard layouts agree exactly"
    for shards in (3, 7):
        sharded = run_fleet(spec, slots=slots, shards=shards, seed=config.seed)
        event_gap = max(
            abs(single.moves - sharded.moves),
            abs(single.updates - sharded.updates),
            abs(single.calls - sharded.calls),
            abs(single.polled_cells - sharded.polled_cells),
        )
        scale = max(abs(single.total_cost), 1.0)
        cost_gap = abs(single.total_cost - sharded.total_cost) / scale
        gap = float(event_gap + cost_gap)
        if gap > worst:
            worst = gap
            detail = (
                f"{shards} shards vs 1: event gap {event_gap}, "
                f"rel cost gap {cost_gap:.3g}"
            )
    return Deviation(worst, detail)


@REGISTRY.oracle(
    "fleet-pooled-vs-inprocess",
    tolerance=0.0,
    paper_ref="Section 6",
    description="pooled fleet shards are bit-identical to the in-process run",
    applies=lambda config: config.sim_slots > 0 and config.pool_workers >= 2,
)
def _fleet_pooled_vs_inprocess(config: ConformanceConfig) -> Deviation:
    from ..simulation.fleet import run_fleet  # deferred: heavy

    spec = _fleet_spec(config)
    slots = min(config.sim_slots, _FLEET_EXACT_SLOTS)
    common = dict(slots=slots, shards=4, seed=config.seed)
    in_process = run_fleet(spec, workers=None, **common)
    pooled = run_fleet(spec, workers=config.pool_workers, **common)
    for serial_shard, pooled_shard in zip(in_process.shards, pooled.shards):
        if serial_shard != pooled_shard:
            return Deviation(
                math.inf,
                f"shard {serial_shard.index} snapshots differ: "
                f"{serial_shard} vs {pooled_shard}",
            )
    gap = abs(in_process.total_cost - pooled.total_cost)
    return Deviation(float(gap), f"total cost gap {float(gap):.3g}")


# -- banded solver -------------------------------------------------------


@REGISTRY.oracle(
    "steady-banded-vs-recursive",
    tolerance=1e-10,
    paper_ref="Section 4.1",
    description="banded tridiagonal steady state equals the recursive solve",
)
def _steady_banded_vs_recursive(config: ConformanceConfig) -> Deviation:
    return _steady_pair(config, "banded", "recursive")


@REGISTRY.oracle(
    "surface-prefix-vs-banded",
    tolerance=1e-10,
    paper_ref="eqns (61)-(66)",
    description="prefix-sum cost surface equals one assembled from banded rows",
    applies=lambda config: config.plan_factory is None,
)
def _surface_prefix_vs_banded(config: ConformanceConfig) -> Deviation:
    from ..core.batch import banded_steady_state, compute_cost_surface  # deferred

    model = config.build_model()
    costs = config.costs()
    surface = compute_cost_surface(
        model, costs, d_max=config.d_max, delays=(config.m,),
        convention=config.convention,
    )
    update = np.empty(config.d_max + 1)
    paging = np.empty(config.d_max + 1)
    for d in range(config.d_max + 1):
        p = banded_steady_state(model, d)
        rate = model.update_rate(d, convention=config.convention)
        update[d] = p[d] * rate * costs.update_cost
        cells = sdf_partition(d, config.m).expected_polled_cells(model.topology, p)
        paging[d] = model.c * costs.poll_cost * cells
    gaps = {
        "update": float(np.max(np.abs(surface.update - update))),
        "paging": float(np.max(np.abs(surface.paging[0] - paging))),
        "total": float(np.max(np.abs(surface.total[0] - (update + paging)))),
    }
    worst_field = max(gaps, key=gaps.get)
    return Deviation(
        gaps[worst_field],
        f"worst field {worst_field!r}: gap {gaps[worst_field]:.3g} "
        f"over d<=:{config.d_max}",
    )
