"""The screened scans return exactly what the full scalar scans return.

``optimize_joint_policy`` and the baseline optimizers price every
candidate in one array pass and call the scalar cost only for the
comparisons the pass's float error could flip.  These tests pin the
results -- thresholds, plans, every history entry, costs, convergence
and the baseline records -- to the full scalar scans kept in
:mod:`tests.strategies.joint_reference`, bit for bit.
"""

import math

import pytest

from repro.analysis.sweep import MODEL_CLASSES
from repro.core.baselines import (
    optimal_la_radius,
    optimal_movement_threshold,
    optimal_timer_period,
)
from repro.core.models import TwoDimensionalModel
from repro.core.parameters import CostParams, MobilityParams
from repro.observability import session
from repro.strategies import optimize_joint_policy

from .joint_reference import (
    reference_joint_policy,
    reference_la_radius,
    reference_movement_threshold,
    reference_timer_period,
)

MODELS = ("1d", "2d-exact", "2d-approx", "square-exact")
CONVENTIONS = ("paper", "physical")
DELAYS = (1, 2, 3, 7, math.inf)
D_MAXES = (0, 1, 5, 30, 100)
#: ``(q, c, U, V)``: the paper's acceptance point, a fast walker with
#: cheap updates, and a slow terminal that is called often.
POINTS = (
    (0.05, 0.01, 100.0, 10.0),
    (0.4, 0.002, 5.0, 1.0),
    (0.003, 0.08, 800.0, 10.0),
)
#: About 92 thresholds of the m = inf registration step tie here to
#: within a few ulps, so every sweep must confirm them one by one.
PLATEAU = (0.002012391203033017, 0.05948096755984511, 532.4587976126802, 1.0)


class ThresholdDependentHex(TwoDimensionalModel):
    """The hex chain declared threshold-dependent: the joint evaluator
    stacks per-threshold scalar solves instead of the batched matrix."""

    threshold_invariant_rates = False


def assert_same_policy(fast, slow):
    assert fast.threshold == slow.threshold
    assert fast.plan.describe() == slow.plan.describe()
    assert fast.history == slow.history
    assert (
        fast.update_cost,
        fast.paging_cost,
        fast.expected_polled_cells,
        fast.expected_delay,
    ) == (
        slow.update_cost,
        slow.paging_cost,
        slow.expected_polled_cells,
        slow.expected_delay,
    )
    assert fast.converged == slow.converged
    assert fast == slow


def both_policies(model_cls, point, m, d_max, convention):
    q, c, update_cost, poll_cost = point
    mobility = MobilityParams(q, c)
    costs = CostParams(update_cost, poll_cost)
    fast = optimize_joint_policy(
        model_cls(mobility), costs, m, d_max=d_max, convention=convention
    )
    slow = reference_joint_policy(
        model_cls(mobility), costs, m, d_max=d_max, convention=convention
    )
    return fast, slow


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("model_name", MODELS)
def test_joint_policy_matches_full_scan(model_name, convention):
    for point in POINTS:
        for m in DELAYS:
            for d_max in D_MAXES:
                fast, slow = both_policies(
                    MODEL_CLASSES[model_name], point, m, d_max, convention
                )
                assert_same_policy(fast, slow)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_threshold_dependent_model_matches_full_scan(convention):
    for m in DELAYS:
        for d_max in (0, 5, 30):
            fast, slow = both_policies(
                ThresholdDependentHex, POINTS[0], m, d_max, convention
            )
            assert_same_policy(fast, slow)


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("model_name", MODELS)
def test_plateau_matches_full_scan_and_confirms_the_ties(model_name, convention):
    with session() as obs:
        fast, slow = both_policies(
            MODEL_CLASSES[model_name], PLATEAU, math.inf, 100, convention
        )
        confirmed = obs.registry.counter(
            "joint_registration_confirmed_total", model=model_name
        ).value
    assert_same_policy(fast, slow)
    # The screen cannot separate the near-ties; the scalar cost decides.
    assert confirmed >= 80


@pytest.mark.parametrize("model_name", MODELS)
def test_baselines_match_full_scan(model_name):
    topology = MODEL_CLASSES[model_name](MobilityParams(0.1, 0.01)).topology
    for q, c, update_cost, poll_cost in POINTS + (PLATEAU, (0.2, 0.0, 50.0, 10.0)):
        mobility = MobilityParams(q, c)
        costs = CostParams(update_cost, poll_cost)
        for bound in (1, 5, 30, 100):
            assert optimal_movement_threshold(
                topology, mobility, costs, bound
            ) == reference_movement_threshold(topology, mobility, costs, bound)
            assert optimal_timer_period(
                topology, mobility, costs, 2 * bound
            ) == reference_timer_period(topology, mobility, costs, 2 * bound)
            assert optimal_la_radius(
                topology, mobility, costs, bound
            ) == reference_la_radius(topology, mobility, costs, bound)
