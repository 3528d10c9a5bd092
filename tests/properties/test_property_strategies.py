"""Property-based tests across the registered location-update schemes.

Three families of properties over random operating points:

* every scheme's analytic steady-state cost is non-negative and finite
  wherever its parameters are valid;
* scale invariances: the timer scheme's cost depends only on ``U / T``
  when calls are off (rescaling the period with the update cost is a
  no-op), and every scheme's cost is linear in ``(U, V)`` jointly;
* scheme identifications: a movement threshold of 1 (report after
  every move) fires exactly when a distance threshold of 0 does, so
  the two costs coincide under the physical boundary convention --
  the regime where the two schemes' definitions coincide;
* vector formulas: the one-pass cost vectors that screen the
  jointly-optimal registration step and the baseline optimizers agree
  with the scalar costs within the float margin
  :func:`~repro.core.optimizers.screened_scan` relies on.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostParams, MobilityParams
from repro.core.baselines import (
    _la_curve,
    _movement_curve,
    _timer_curve,
    location_area_costs,
    movement_based_costs,
    time_based_costs,
)
from repro.core.costs import CostEvaluator
from repro.core.models import (
    OneDimensionalModel,
    SquareGridModel,
    TwoDimensionalModel,
)
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.paging import partition_from_sizes
from repro.strategies import adapt_plan, optimize_joint_policy, strategy_names
from repro.strategies.jointly_optimal import _JointEvaluator

pytestmark = pytest.mark.slow

TOPOLOGIES = (LineTopology(), HexTopology(), SquareTopology())
EXACT_MODELS = {
    LineTopology: OneDimensionalModel,
    HexTopology: TwoDimensionalModel,
    SquareTopology: SquareGridModel,
}

mobility_params = st.builds(
    MobilityParams,
    move_probability=st.floats(min_value=0.01, max_value=0.7),
    call_probability=st.floats(min_value=0.0, max_value=0.1),
)
cost_params = st.builds(
    CostParams,
    update_cost=st.floats(min_value=0.1, max_value=500.0),
    poll_cost=st.floats(min_value=0.1, max_value=50.0),
)
delays = st.one_of(st.integers(min_value=1, max_value=5), st.just(math.inf))


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


#: The range the tournament workload and ``repro-lm compare`` run the
#: joint leg over, drawn log-uniformly as the tournament draws it: the
#: deep, call-dominated chains whose prefix sums span the most orders of
#: magnitude.  Tests draw it alongside the default draws above, which
#: keep rare calls (c below 0.001, down to 0) in play.
joint_mobility_params = st.builds(
    MobilityParams,
    move_probability=log_uniform(0.001, 0.7),
    call_probability=log_uniform(0.001, 0.1),
)
joint_cost_params = st.builds(
    CostParams,
    update_cost=log_uniform(0.1, 1000.0),
    poll_cost=st.floats(min_value=0.1, max_value=50.0),
)


def screen_margin(value, terms):
    """The float margin ``screened_scan`` allows a screened cost."""
    return 4.0 * (terms + 8) * 2.0**-52 * abs(value) + 2e-15


@st.composite
def contiguous_plans(draw, d_max):
    """A random contiguous paging plan over rings ``0..d`` with ``d <= d_max``."""
    d = draw(st.integers(min_value=0, max_value=d_max))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=d), max_size=d)) if d else set()
    bounds = [0, *sorted(cuts), d + 1]
    return partition_from_sizes(d, [hi - lo for lo, hi in zip(bounds, bounds[1:])])


def _baseline_costs(topology, mob, costs):
    """One representative cost per blanket-paging baseline scheme."""
    return (
        movement_based_costs(topology, mob, costs, movement_threshold=3),
        time_based_costs(topology, mob, costs, period=4),
        location_area_costs(topology, mob, costs, radius=2),
    )


class TestCostsWellFormed:
    def test_every_scheme_is_registered(self):
        names = strategy_names()
        for scheme in (
            "distance",
            "movement",
            "timer",
            "location-area",
            "jointly-optimal",
        ):
            assert scheme in names

    @given(mob=mobility_params, costs=cost_params)
    @settings(max_examples=40, deadline=None)
    def test_baseline_costs_nonnegative_finite(self, mob, costs):
        for topology in TOPOLOGIES:
            for outcome in _baseline_costs(topology, mob, costs):
                assert outcome.update_cost >= 0
                assert outcome.paging_cost >= 0
                assert math.isfinite(outcome.total_cost)

    @given(mob=mobility_params, costs=cost_params, m=delays)
    @settings(max_examples=20, deadline=None)
    def test_joint_policy_cost_nonnegative_finite_and_dominant(
        self, mob, costs, m
    ):
        model = OneDimensionalModel(mob)
        policy = optimize_joint_policy(model, costs, m, d_max=12)
        assert policy.update_cost >= 0
        assert policy.paging_cost >= 0
        assert math.isfinite(policy.total_cost)
        assert policy.total_cost <= policy.baseline_cost + 1e-9
        history = policy.cost_history()
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


class TestScaleInvariances:
    @given(
        mob=st.builds(
            MobilityParams,
            move_probability=st.floats(min_value=0.01, max_value=0.9),
            call_probability=st.just(0.0),
        ),
        update_cost=st.floats(min_value=0.1, max_value=500.0),
        period=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_timer_cost_invariant_under_period_and_rate_rescaling(
        self, mob, update_cost, period, k
    ):
        # With calls off the timer cost is the pure update rate U / T,
        # so rescaling the period with the update cost is a no-op.
        for topology in TOPOLOGIES:
            base = time_based_costs(
                topology, mob, CostParams(update_cost, 1.0), period
            )
            scaled = time_based_costs(
                topology, mob, CostParams(k * update_cost, 1.0), k * period
            )
            assert base.paging_cost == 0.0
            assert scaled.total_cost == pytest.approx(
                base.total_cost, rel=1e-12
            )

    @given(mob=mobility_params, costs=cost_params, k=st.floats(2.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_all_scheme_costs_linear_in_cost_weights(self, mob, costs, k):
        scaled_params = CostParams(k * costs.update_cost, k * costs.poll_cost)
        for topology in TOPOLOGIES:
            for base, scaled in zip(
                _baseline_costs(topology, mob, costs),
                _baseline_costs(topology, mob, scaled_params),
            ):
                assert scaled.total_cost == pytest.approx(
                    k * base.total_cost, rel=1e-12
                )
            model = EXACT_MODELS[type(topology)](mob)
            evaluator = CostEvaluator(model, costs)
            scaled_evaluator = CostEvaluator(model, scaled_params)
            assert scaled_evaluator.total_cost(3, 2) == pytest.approx(
                k * evaluator.total_cost(3, 2), rel=1e-12
            )


class TestSchemeIdentifications:
    @given(mob=mobility_params, costs=cost_params)
    @settings(max_examples=40, deadline=None)
    def test_movement_one_equals_distance_zero(self, mob, costs):
        # A movement threshold of 1 reports after every move; so does a
        # distance threshold of 0 (any move leaves ring 0).  Under the
        # physical boundary convention (update rate q at d = 0) the two
        # schemes are therefore the same policy with blanket paging.
        for topology in TOPOLOGIES:
            movement = movement_based_costs(
                topology, mob, costs, movement_threshold=1
            )
            model = EXACT_MODELS[type(topology)](mob)
            evaluator = CostEvaluator(model, costs, convention="physical")
            breakdown = evaluator.breakdown(0, 1)
            assert movement.update_cost == pytest.approx(
                breakdown.update_cost, rel=1e-12
            )
            assert movement.paging_cost == pytest.approx(
                breakdown.paging_cost, rel=1e-12
            )


class TestVectorFormulas:
    @given(
        data=st.data(),
        mob=st.one_of(mobility_params, joint_mobility_params),
        costs=st.one_of(cost_params, joint_cost_params),
        m=delays,
    )
    @settings(max_examples=60, deadline=None)
    def test_registration_costs_match_adapted_plans(self, data, mob, costs, m):
        d_max = data.draw(st.integers(min_value=0, max_value=100), label="d_max")
        plan = data.draw(contiguous_plans(d_max), label="plan")
        model_cls = data.draw(st.sampled_from(sorted(EXACT_MODELS.values(), key=str)))
        convention = data.draw(st.sampled_from(["paper", "physical"]))
        evaluator = _JointEvaluator(model_cls(mob), d_max, convention)
        screened = evaluator.registration_costs(plan, m, costs)
        assert screened.shape == (d_max + 1,)
        # Every d' covers the shrink, grow-by-singletons and merge branches.
        for d_new in range(d_max + 1):
            update, paging, _, _ = evaluator.breakdown(
                d_new, adapt_plan(plan, d_new, m), costs
            )
            exact = update + paging
            assert abs(screened[d_new] - exact) <= screen_margin(
                screened[d_new], d_max + 1
            )

    @given(
        mob=st.builds(
            MobilityParams,
            move_probability=st.floats(min_value=0.001, max_value=0.9),
            call_probability=st.one_of(
                st.just(0.0), st.floats(min_value=1e-5, max_value=0.1)
            ),
        ),
        costs=cost_params,
        bound=st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_baseline_curves_match_scalar_costs(self, mob, costs, bound):
        for topology in TOPOLOGIES:
            for curve, scalar, first in (
                (_movement_curve(topology, mob, costs, bound), movement_based_costs, 1),
                (_timer_curve(topology, mob, costs, 2 * bound), time_based_costs, 1),
                (_la_curve(topology, mob, costs, bound), location_area_costs, 0),
            ):
                for k, value in enumerate(curve):
                    exact = scalar(topology, mob, costs, first + k).total_cost
                    assert abs(value - exact) <= screen_margin(value, curve.size)
