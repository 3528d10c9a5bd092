"""Full-scan references for the screened scans of the analytic solvers.

:func:`repro.strategies.optimize_joint_policy` prices every adapted
plan in one array pass and confirms only the near-ties with the scalar
cost; the baseline optimizers of :mod:`repro.core.baselines` do the
same over closed-form cost vectors.  This module keeps the plain
loops they replaced -- every threshold, period and radius priced by the
scalar cost, scanned ascending with the 1e-15 strict-improvement rule
-- so the tests can assert that both paths return identical results.
"""

import math

from repro.core.baselines import (
    location_area_costs,
    movement_based_costs,
    time_based_costs,
)
from repro.core.parameters import validate_delay, validate_threshold
from repro.core.threshold import DEFAULT_MAX_THRESHOLD, find_optimal_threshold
from repro.exceptions import ParameterError
from repro.paging import sdf_partition
from repro.paging.optimal import optimal_contiguous_partition
from repro.strategies.jointly_optimal import (
    JointIteration,
    JointPolicy,
    _JointEvaluator,
    adapt_plan,
)

_TIE_TOLERANCE = 1e-15


def reference_joint_policy(
    model,
    costs,
    max_delay=1,
    d_max: int = DEFAULT_MAX_THRESHOLD,
    convention: str = "paper",
    tol: float = 1e-12,
    max_iterations: int = 25,
) -> JointPolicy:
    """``optimize_joint_policy`` with the registration step scanning every
    threshold through the scalar cost."""
    m = validate_delay(max_delay)
    d_max = validate_threshold(d_max)
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
    if not (tol >= 0.0):
        raise ParameterError(f"tol must be >= 0, got {tol}")

    baseline = find_optimal_threshold(
        model, costs, m, d_max=d_max, convention=convention
    )
    evaluator = _JointEvaluator(model, d_max, convention)

    def total_cost(d, plan):
        update, paging, _, _ = evaluator.breakdown(d, plan, costs)
        return update + paging

    d = baseline.threshold
    plan = sdf_partition(d, m)
    cost = total_cost(d, plan)
    history = [JointIteration(0, d, plan, cost)]

    converged = False
    for sweep in range(1, max_iterations + 1):
        # Paging step: exactly optimal contiguous partition for this d.
        candidate = optimal_contiguous_partition(
            d, m, evaluator.steady_row(d), evaluator.ring_sizes(d)
        )
        candidate_cost = total_cost(d, candidate)
        if candidate_cost < cost:  # monotonicity guard
            plan, cost = candidate, candidate_cost

        # Registration step: scan thresholds with the plan held fixed
        # (adapted to each candidate's ring count).  Ascending scan with
        # a strict-improvement tie tolerance reproduces the distance
        # searcher's tie-breaking on degenerate instances.
        best_d, best_plan, best_cost = d, plan, cost
        for d_new in range(d_max + 1):
            if d_new == d:
                continue
            trial_plan = adapt_plan(plan, d_new, m)
            trial_cost = total_cost(d_new, trial_plan)
            if trial_cost < best_cost - _TIE_TOLERANCE:
                best_d, best_plan, best_cost = d_new, trial_plan, trial_cost
        d, plan = best_d, best_plan
        improvement = cost - best_cost
        cost = min(cost, best_cost)  # guard: never record an increase
        history.append(JointIteration(sweep, d, plan, cost))
        if improvement <= tol:
            converged = True
            break

    update, paging, cells, delay = evaluator.breakdown(d, plan, costs)
    return JointPolicy(
        threshold=d,
        plan=plan,
        max_delay=m,
        update_cost=update,
        paging_cost=paging,
        expected_polled_cells=cells,
        expected_delay=delay,
        history=tuple(history),
        converged=converged,
        baseline_threshold=baseline.threshold,
        baseline_cost=baseline.total_cost,
    )


def _argmin(evaluate, lo: int, hi: int) -> int:
    best = lo
    best_value = math.inf
    for parameter in range(lo, hi + 1):
        value = evaluate(parameter).total_cost
        if value < best_value - 1e-15:
            best_value = value
            best = parameter
    return best


def reference_movement_threshold(topology, mobility, costs, max_threshold=100):
    best = _argmin(
        lambda M: movement_based_costs(topology, mobility, costs, M),
        1,
        max_threshold,
    )
    return movement_based_costs(topology, mobility, costs, best)


def reference_timer_period(topology, mobility, costs, max_period=200):
    best = _argmin(
        lambda T: time_based_costs(topology, mobility, costs, T), 1, max_period
    )
    return time_based_costs(topology, mobility, costs, best)


def reference_la_radius(topology, mobility, costs, max_radius=100):
    best = _argmin(
        lambda n: location_area_costs(topology, mobility, costs, n), 0, max_radius
    )
    return location_area_costs(topology, mobility, costs, best)
