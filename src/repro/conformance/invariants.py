"""Metamorphic invariants derived from the paper's analysis.

Each invariant encodes a structural relation the implementation must
satisfy at *every* operating point, not only the golden-pinned ones:
probability normalization and the eqn-(5) cut balance of the reset
chain, the monotonicities of ``C_u``/``C_v`` in threshold and delay
bound, the ``C_T(d, d+1) = C_T(d, infinity)`` saturation of eqn (2),
convergence of the ring-averaged approximate chains to the exact ones
as ``d`` grows, the degenerate optimum ``d* = 0`` when updates are
nearly free, and coverage of analytic values by simulation confidence
intervals.

Registration happens at import time into
:data:`repro.conformance.checks.REGISTRY`; every body maps a
:class:`ConformanceConfig` to a :class:`Deviation` (see that module for
the contract).

Two empirical restrictions, verified numerically across all five
models before being encoded:

* ``C_v`` *non-decreasing in d* holds for the blanket (``m = 1``) and
  per-ring (``m = infinity``) partitions but **not** for intermediate
  delay bounds, where the SDF regrouping makes the polled-cell
  expectation jump non-monotonically as partition boundaries move; the
  check therefore probes ``m in {1, infinity}`` only.
* the approximate chains converge to the exact ones in their *rates*
  (the dropped curvature term is ``O(1/i)``), but **not** in total
  cost: the small-ring rate error survives in the steady state and the
  SDF partitions regroup differently for finite ``m`` (measured up to
  29% total-cost gap at ``d = 12`` for fast-reset walkers), so the
  convergence check targets the rates.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..core.models import MODEL_CLASSES
from .agreement import (
    REL_LIMIT_1D,
    REL_LIMIT_2D,
    comparison_deviation,
)
from .checks import CheckSkipped, ConformanceConfig, Deviation, REGISTRY
from .sampling import EXACT_CHAIN_MODELS

__all__ = ["EXACT_CHAIN_MODELS", "APPROX_TO_EXACT"]

#: Approximate chain -> the exact chain it must converge to.
APPROX_TO_EXACT = {"2d-approx": "2d-exact", "square-approx": "square-exact"}

_PROBE_DELAYS = (1, 2, 3, 5, math.inf)


def _max_rise(values) -> Tuple[float, int]:
    """Largest increase between consecutive entries (0 if none)."""
    worst, where = 0.0, -1
    for i in range(len(values) - 1):
        rise = values[i + 1] - values[i]
        if rise > worst:
            worst, where = rise, i
    return worst, where


@REGISTRY.invariant(
    "steady-state-normalized",
    tolerance=1e-9,
    paper_ref="eqns (4), (12)-(13)",
    description="residence probabilities are non-negative and sum to 1",
)
def _steady_state_normalized(config: ConformanceConfig) -> Deviation:
    model = config.build_model()
    worst = 0.0
    detail = ""
    for d in sorted({config.d, config.d_max}):
        p = np.asarray(model.steady_state(d))
        deviation = max(abs(float(p.sum()) - 1.0), max(0.0, -float(p.min())))
        if deviation >= worst:
            worst = deviation
            detail = f"d={d}: sum={float(p.sum()):.12g} min={float(p.min()):.3g}"
    return Deviation(worst, detail)


@REGISTRY.invariant(
    "eqn5-balance",
    tolerance=1e-9,
    paper_ref="eqn (5)",
    description="state-0 flow balance: p0*a0 = p1*b1 + pd*ad + c*(1-p0)",
)
def _eqn5_balance(config: ConformanceConfig) -> Deviation:
    d = config.d if config.d >= 1 else config.d_max
    if d < 1:
        raise CheckSkipped("balance cut is trivial for a single-state chain")
    model = config.build_model()
    p = np.asarray(model.steady_state(d))
    a, b = model.transition_rates(d)
    lhs = p[0] * a[0]
    rhs = p[1] * b[1] + p[d] * a[d] + model.c * (1.0 - p[0])
    return Deviation(
        abs(float(lhs - rhs)), f"d={d}: lhs={float(lhs):.12g} rhs={float(rhs):.12g}"
    )


@REGISTRY.invariant(
    "update-cost-monotone-threshold",
    tolerance=1e-9,
    paper_ref="eqn (61)",
    description="C_u(d) is non-increasing in the threshold d",
)
def _update_cost_monotone_threshold(config: ConformanceConfig) -> Deviation:
    evaluator = config.build_evaluator()
    curve = [evaluator.update_cost(d) for d in range(config.d_max + 1)]
    rise, where = _max_rise(curve)
    return Deviation(
        rise, f"worst rise at d={where}->{where + 1}" if rise else "monotone"
    )


@REGISTRY.invariant(
    "paging-cost-monotone-threshold",
    tolerance=1e-9,
    paper_ref="eqns (62)-(65)",
    description="C_v(d, m) is non-decreasing in d for m in {1, infinity}",
)
def _paging_cost_monotone_threshold(config: ConformanceConfig) -> Deviation:
    evaluator = config.build_evaluator()
    worst = 0.0
    detail = "monotone"
    for m in (1, math.inf):
        curve = [evaluator.paging_cost(d, m) for d in range(config.d_max + 1)]
        drop = float(
            max((curve[i] - curve[i + 1] for i in range(len(curve) - 1)), default=0.0)
        )
        if drop > worst:
            worst = drop
            detail = f"m={m}: C_v drops by {drop:.3g}"
    return Deviation(max(worst, 0.0), detail)


@REGISTRY.invariant(
    "paging-cost-monotone-delay",
    tolerance=1e-9,
    paper_ref="eqns (62)-(65)",
    description="C_v(d, m) is non-increasing in the delay bound m",
)
def _paging_cost_monotone_delay(config: ConformanceConfig) -> Deviation:
    evaluator = config.build_evaluator()
    delays = sorted(set(_PROBE_DELAYS) | {config.d + 1})
    curve = [evaluator.paging_cost(config.d, m) for m in delays]
    rise, where = _max_rise(curve)
    detail = (
        f"C_v rises by {rise:.3g} from m={delays[where]} to m={delays[where + 1]}"
        if rise
        else "monotone"
    )
    return Deviation(rise, detail)


@REGISTRY.invariant(
    "delay-saturation",
    tolerance=1e-9,
    paper_ref="eqn (2): l = min(d+1, m)",
    description="C_T(d, m=d+1) equals C_T(d, m=infinity)",
)
def _delay_saturation(config: ConformanceConfig) -> Deviation:
    evaluator = config.build_evaluator()
    bounded = evaluator.total_cost(config.d, config.d + 1)
    unbounded = evaluator.total_cost(config.d, math.inf)
    return Deviation(
        abs(bounded - unbounded),
        f"C_T(d, d+1)={bounded:.12g} C_T(d, inf)={unbounded:.12g}",
    )


@REGISTRY.invariant(
    "expected-delay-bounded",
    tolerance=1e-9,
    paper_ref="eqn (2)",
    description="1 <= E[paging delay] <= min(d+1, m)",
)
def _expected_delay_bounded(config: ConformanceConfig) -> Deviation:
    breakdown = config.build_evaluator().breakdown(config.d, config.m)
    bound = min(config.d + 1, config.m)
    delay = breakdown.expected_delay
    violation = max(0.0, 1.0 - delay, delay - bound)
    return Deviation(violation, f"E[delay]={delay:.6g} bound={bound}")


@REGISTRY.invariant(
    "polled-cells-bounded",
    tolerance=1e-9,
    paper_ref="eqns (1), (63)",
    description="1 <= E[polled cells] <= g(d), with equality at m=1",
)
def _polled_cells_bounded(config: ConformanceConfig) -> Deviation:
    evaluator = config.build_evaluator()
    g = evaluator.model.coverage(config.d)
    cells = evaluator.breakdown(config.d, config.m).expected_polled_cells
    blanket = evaluator.breakdown(config.d, 1).expected_polled_cells
    violation = max(0.0, 1.0 - cells, cells - g, abs(blanket - g))
    return Deviation(
        violation, f"E[cells]={cells:.6g} g(d)={g} blanket={blanket:.6g}"
    )


@REGISTRY.invariant(
    "coverage-closed-form",
    tolerance=1e-9,
    paper_ref="eqn (1)",
    description="g(d) = 1 + sum of ring sizes, non-decreasing, g(0) = 1",
)
def _coverage_closed_form(config: ConformanceConfig) -> Deviation:
    model = config.build_model()
    coverages = [model.coverage(d) for d in range(config.d_max + 1)]
    ring_sum = 1
    worst = abs(coverages[0] - 1)
    detail = f"g(0)={coverages[0]}"
    for d in range(1, config.d_max + 1):
        ring_sum += model.ring_size(d)
        mismatch = abs(coverages[d] - ring_sum)
        shrink = max(0.0, coverages[d - 1] - coverages[d])
        if max(mismatch, shrink) > worst:
            worst = max(mismatch, shrink)
            detail = f"d={d}: g={coverages[d]} ring-sum={ring_sum}"
    return Deviation(float(worst), detail)


@REGISTRY.invariant(
    "approx-tracks-exact",
    tolerance=0.03,
    paper_ref="Section 4.3 (eqns (41)-(44))",
    description=(
        "approximate ring rates converge to the exact ring-averaged "
        "rates as the ring index grows"
    ),
    applies=lambda config: config.model_name in APPROX_TO_EXACT,
)
def _approx_tracks_exact(config: ConformanceConfig) -> Deviation:
    # The approximation drops the O(1/i) ring-curvature term from the
    # exact averaged rates (1/(6i) hex, 1/(4i) square), so the *rates*
    # converge ring-by-ring.  Total costs do NOT converge in general:
    # the persistent small-ring error survives in the steady state, and
    # for finite m the SDF partitions regroup differently -- verified
    # counterexamples at (q=0.22, c=0.09) reach 29% total-cost gap at
    # d=12.  The faithful metamorphic relation is the rate one.
    approx_model = config.build_model()
    exact_model = MODEL_CLASSES[APPROX_TO_EXACT[config.model_name]](config.mobility())
    d_far = max(config.d_max, 12)
    a_approx, b_approx = approx_model.transition_rates(d_far)
    a_exact, b_exact = exact_model.transition_rates(d_far)

    def rel_gap(ring: int) -> float:
        return (
            max(
                abs(float(a_approx[ring] - a_exact[ring])),
                abs(float(b_approx[ring] - b_exact[ring])),
            )
            / config.q
        )

    near, far = rel_gap(1), rel_gap(d_far)
    # Converged at the far ring, and no worse there than close in.
    return Deviation(
        max(far, far - near),
        f"rate gap/q {near:.4g} at ring 1 -> {far:.4g} at ring {d_far}",
    )


@REGISTRY.invariant(
    "cheap-update-zero-threshold",
    tolerance=0.0,
    paper_ref="eqn (66)",
    description="d* = 0 when the update cost is negligible versus V*c",
)
def _cheap_update_zero_threshold(config: ConformanceConfig) -> Deviation:
    from ..core.parameters import CostParams  # deferred: avoid cycle
    from ..core.threshold import find_optimal_threshold

    tiny_update = config.poll_cost * config.c * 1e-3
    solution = find_optimal_threshold(
        config.build_model(),
        CostParams(update_cost=tiny_update, poll_cost=config.poll_cost),
        max_delay=config.m,
        d_max=min(config.d_max, 8),
        plan_factory=config.plan_factory,
        convention=config.convention,
    )
    return Deviation(
        float(solution.threshold),
        f"U={tiny_update:.3g} << V*c={config.poll_cost * config.c:.3g} "
        f"but d*={solution.threshold}",
    )


@REGISTRY.invariant(
    "optimal-cost-monotone-delay",
    tolerance=1e-9,
    paper_ref="Section 5 (Fig. 7)",
    description="optimal C_T(d*, m) is non-increasing in the delay bound m",
)
def _optimal_cost_monotone_delay(config: ConformanceConfig) -> Deviation:
    from ..core.threshold import find_optimal_threshold

    model = config.build_model()
    curve = []
    delays = (1, 2, 3, math.inf)
    for m in delays:
        solution = find_optimal_threshold(
            model,
            config.costs(),
            max_delay=m,
            d_max=config.d_max,
            plan_factory=config.plan_factory,
            convention=config.convention,
        )
        curve.append(solution.total_cost)
    rise, where = _max_rise(curve)
    detail = (
        f"optimal C_T rises by {rise:.3g} from m={delays[where]} "
        f"to m={delays[where + 1]}"
        if rise
        else "monotone"
    )
    return Deviation(rise, detail)


@REGISTRY.invariant(
    "simulation-within-ci",
    tolerance=1.0,
    paper_ref="Section 6 validation",
    description=(
        "simulated mean total cost agrees with the analytic prediction "
        "(within replication CI or the dimension-aware relative limit)"
    ),
    applies=lambda config: (
        config.sim_slots > 0
        and config.model_name in EXACT_CHAIN_MODELS
        and config.plan_factory is None
    ),
)
def _simulation_within_ci(config: ConformanceConfig) -> Deviation:
    from ..simulation.runner import validate_against_model  # deferred: heavy

    comparison = validate_against_model(
        config.build_model(),
        config.costs(),
        d=config.d,
        m=config.m,
        slots=config.sim_slots,
        replications=config.sim_replications,
        seed=config.seed,
    )
    rel_limit = REL_LIMIT_1D if config.model_name == "1d" else REL_LIMIT_2D
    return comparison_deviation(comparison, rel_limit)
