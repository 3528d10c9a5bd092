"""Property-based tests for the cost model and optimizer."""

import pytest
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostEvaluator,
    CostParams,
    MobilityParams,
    OneDimensionalModel,
    TwoDimensionalModel,
    exhaustive_search,
    find_optimal_threshold,
    near_optimal_threshold,
)
from repro.core import near_optimal

pytestmark = pytest.mark.slow

mobility_params = st.builds(
    MobilityParams,
    move_probability=st.floats(min_value=0.01, max_value=0.7),
    call_probability=st.floats(min_value=0.0, max_value=0.1),
)
cost_params = st.builds(
    CostParams,
    update_cost=st.floats(min_value=0.0, max_value=500.0),
    poll_cost=st.floats(min_value=0.1, max_value=50.0),
)
delays = st.one_of(st.integers(min_value=1, max_value=6), st.just(math.inf))
thresholds = st.integers(min_value=0, max_value=15)


class TestCostProperties:
    @given(mob=mobility_params, costs=cost_params, d=thresholds, m=delays)
    @settings(max_examples=60, deadline=None)
    def test_costs_are_finite_and_nonnegative(self, mob, costs, d, m):
        evaluator = CostEvaluator(OneDimensionalModel(mob), costs)
        breakdown = evaluator.breakdown(d, m)
        assert breakdown.update_cost >= 0
        assert breakdown.paging_cost >= 0
        assert math.isfinite(breakdown.total_cost)

    @given(mob=mobility_params, costs=cost_params, d=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_paging_cost_monotone_in_delay(self, mob, costs, d):
        evaluator = CostEvaluator(TwoDimensionalModel(mob), costs)
        previous = math.inf
        for m in (1, 2, 3, math.inf):
            value = evaluator.paging_cost(d, m)
            assert value <= previous + 1e-9
            previous = value

    @given(mob=mobility_params, costs=cost_params, d=thresholds, m=delays)
    @settings(max_examples=60, deadline=None)
    def test_total_is_sum_of_parts(self, mob, costs, d, m):
        evaluator = CostEvaluator(OneDimensionalModel(mob), costs)
        assert evaluator.total_cost(d, m) == (
            evaluator.update_cost(d) + evaluator.paging_cost(d, m)
        )

    @given(mob=mobility_params, d=thresholds, m=delays)
    @settings(max_examples=40, deadline=None)
    def test_cost_linear_in_unit_prices(self, mob, d, m):
        model = OneDimensionalModel(mob)
        base = CostEvaluator(model, CostParams(10.0, 5.0)).breakdown(d, m)
        scaled = CostEvaluator(model, CostParams(30.0, 15.0)).breakdown(d, m)
        assert scaled.update_cost == base.update_cost * 3.0 or abs(
            scaled.update_cost - base.update_cost * 3.0
        ) < 1e-9
        assert abs(scaled.paging_cost - base.paging_cost * 3.0) < 1e-9


class TestOptimizerProperties:
    @given(mob=mobility_params, costs=cost_params, m=delays)
    @settings(max_examples=40, deadline=None)
    def test_optimum_is_global_over_search_range(self, mob, costs, m):
        model = OneDimensionalModel(mob)
        evaluator = CostEvaluator(model, costs)
        d_max = 25
        solution = find_optimal_threshold(model, costs, m, d_max=d_max)
        for d in range(d_max + 1):
            assert solution.total_cost <= evaluator.total_cost(d, m) + 1e-12

    @given(mob=mobility_params, costs=cost_params)
    @settings(max_examples=40, deadline=None)
    def test_relaxing_delay_never_hurts(self, mob, costs):
        model = TwoDimensionalModel(mob)
        previous = math.inf
        for m in (1, 2, 4, math.inf):
            value = find_optimal_threshold(model, costs, m, d_max=25).total_cost
            assert value <= previous + 1e-9
            previous = value

    @given(
        costs=cost_params,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_annealing_never_beats_exhaustive(self, costs, seed):
        # Exhaustive is the global optimum; annealing can only match it.
        model = OneDimensionalModel(MobilityParams(0.1, 0.02))
        evaluator = CostEvaluator(model, costs)

        def objective(d):
            return evaluator.total_cost(d, 2)

        exact = exhaustive_search(objective, 20)
        from repro import simulated_annealing

        annealed = simulated_annealing(objective, 20, seed=seed)
        assert annealed.optimal_cost >= exact.optimal_cost - 1e-12


#: One near-optimal request: which of the drawn ``(q, c)`` points, then
#: ``(U, V)``, ``m``, ``apply_correction`` and ``d_max``.
near_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        cost_params,
        delays,
        st.booleans(),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=8,
)


class TestNearOptimalMemo:
    @given(
        points=st.lists(mobility_params, min_size=1, max_size=3),
        requests=near_requests,
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_memo_returns_what_fresh_models_return(self, points, requests, order):
        def call(request):
            k, costs, m, correct, d_max = request
            return near_optimal_threshold(
                points[k % len(points)], costs, m, d_max=d_max,
                apply_correction=correct,
            )

        fresh = []
        for request in requests:
            near_optimal._models.cache_clear()
            fresh.append(call(request))
        near_optimal._models.cache_clear()
        for _ in range(2):
            shuffled = list(range(len(requests)))
            order.shuffle(shuffled)
            for i in shuffled:
                assert call(requests[i]) == fresh[i]
