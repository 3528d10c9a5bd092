"""Unit tests for the jointly optimal paging+registration solver."""

import math

import pytest

from repro import (
    CostParams,
    MobilityParams,
    OneDimensionalModel,
    ParameterError,
    TwoDimensionalModel,
    find_optimal_threshold,
)
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.observability import session
from repro.paging import partition_from_sizes, sdf_partition
from repro.simulation import SimulationEngine
from repro.strategies import (
    JointlyOptimalStrategy,
    adapt_plan,
    create_strategy,
    exact_model_for_topology,
    optimize_joint_policy,
)
from repro.strategies.jointly_optimal import _JointEvaluator

MOBILITY = MobilityParams(move_probability=0.2, call_probability=0.02)
COSTS = CostParams(update_cost=50.0, poll_cost=10.0)


class TestAdaptPlan:
    def test_identity_when_threshold_unchanged(self):
        plan = sdf_partition(4, 2)
        assert adapt_plan(plan, 4, 2) is plan

    def test_shrink_truncates_groups(self):
        plan = partition_from_sizes(5, [2, 2, 2])
        shrunk = adapt_plan(plan, 2, 3)
        assert shrunk.threshold == 2
        assert [len(g) for g in shrunk.subareas] == [2, 1]

    def test_grow_appends_then_merges(self):
        plan = partition_from_sizes(2, [2, 1])
        grown = adapt_plan(plan, 5, 3)
        assert grown.threshold == 5
        # One new singleton group is allowed (m=3), then the delay
        # bound forces the remaining rings into the last group.
        assert [len(g) for g in grown.subareas] == [2, 1, 3]

    def test_grow_unbounded_delay_stays_per_ring(self):
        plan = partition_from_sizes(1, [1, 1])
        grown = adapt_plan(plan, 4, math.inf)
        assert [len(g) for g in grown.subareas] == [1, 1, 1, 1, 1]

    def test_rejects_non_contiguous_plans(self):
        plan = partition_from_sizes(2, [2, 1])
        scrambled = type(plan)(
            threshold=2, subareas=((2,), (0, 1))
        )
        with pytest.raises(ParameterError):
            adapt_plan(scrambled, 3, 2)


class TestOptimizeJointPolicy:
    @pytest.mark.parametrize("m", [1, 2, 3, math.inf])
    def test_dominates_distance_optimum(self, m):
        for model in (OneDimensionalModel(MOBILITY), TwoDimensionalModel(MOBILITY)):
            policy = optimize_joint_policy(model, COSTS, m, d_max=20)
            assert policy.total_cost <= policy.baseline_cost + 1e-9

    def test_history_is_monotone_and_starts_at_distance(self):
        model = TwoDimensionalModel(MOBILITY)
        baseline = find_optimal_threshold(model, COSTS, 3, d_max=20)
        policy = optimize_joint_policy(model, COSTS, 3, d_max=20)
        history = policy.cost_history()
        assert history[0] == pytest.approx(baseline.total_cost, abs=1e-9)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert policy.converged
        assert policy.iterations <= 25

    def test_blanket_bound_collapses_to_distance(self):
        model = OneDimensionalModel(MOBILITY)
        baseline = find_optimal_threshold(model, COSTS, 1, d_max=20)
        policy = optimize_joint_policy(model, COSTS, 1, d_max=20)
        assert policy.threshold == baseline.threshold
        assert policy.total_cost == pytest.approx(
            baseline.total_cost, abs=1e-12
        )
        assert len(policy.plan.subareas) == 1

    def test_plan_respects_delay_bound(self):
        policy = optimize_joint_policy(
            TwoDimensionalModel(MOBILITY), COSTS, 2, d_max=20
        )
        assert len(policy.plan.subareas) <= 2
        assert policy.expected_delay <= 2 + 1e-12

    def test_totals_are_consistent(self):
        policy = optimize_joint_policy(
            OneDimensionalModel(MOBILITY), COSTS, 3, d_max=15
        )
        assert policy.total_cost == pytest.approx(
            policy.update_cost + policy.paging_cost
        )
        assert policy.history[-1].total_cost == pytest.approx(
            policy.total_cost, abs=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2, 3, math.inf])
    def test_prices_each_plan_once(self, m, monkeypatch):
        priced = []
        breakdown = _JointEvaluator.breakdown

        def counted(self, d, plan, costs):
            priced.append((d, plan))
            return breakdown(self, d, plan, costs)

        monkeypatch.setattr(_JointEvaluator, "breakdown", counted)
        for model in (OneDimensionalModel(MOBILITY), TwoDimensionalModel(MOBILITY)):
            for update_cost in (5.0, 50.0, 500.0):
                priced.clear()
                optimize_joint_policy(
                    model, CostParams(update_cost, 10.0), m, d_max=30
                )
                assert priced
                assert len(set(priced)) == len(priced)

    def test_parameter_validation(self):
        model = OneDimensionalModel(MOBILITY)
        with pytest.raises(ParameterError):
            optimize_joint_policy(model, COSTS, 2, max_iterations=0)
        with pytest.raises(ParameterError):
            optimize_joint_policy(model, COSTS, 2, tol=-1.0)
        with pytest.raises(ParameterError):
            optimize_joint_policy(model, COSTS, 0)


class TestDistanceOptimum:
    """A caller that knows ``(d*, C_T(d*, m))`` skips the search and gets
    the searched policy back exactly."""

    @pytest.mark.parametrize("model_cls", [OneDimensionalModel, TwoDimensionalModel])
    def test_given_optimum_returns_the_searched_policy(self, model_cls):
        for q in (0.05, 0.3):
            mobility = MobilityParams(move_probability=q, call_probability=0.02)
            for update_cost in (20.0, 100.0):
                costs = CostParams(update_cost=update_cost, poll_cost=10.0)
                for m in (1, 3, math.inf):
                    searched = optimize_joint_policy(
                        model_cls(mobility), costs, m, d_max=30
                    )
                    optimum = find_optimal_threshold(
                        model_cls(mobility), costs, m, d_max=30
                    )
                    given = optimize_joint_policy(
                        model_cls(mobility),
                        costs,
                        m,
                        d_max=30,
                        distance_optimum=(optimum.threshold, optimum.total_cost),
                    )
                    # Field for field, history and baseline included.
                    assert given == searched

    @pytest.mark.parametrize(
        "optimum",
        [
            (-1, 1.0), (31, 1.0), (2.0, 1.0),
            (2, math.inf), (2, -math.inf), (2, math.nan),
        ],
    )
    def test_refuses_an_optimum_outside_the_search(self, optimum):
        with pytest.raises(ParameterError):
            optimize_joint_policy(
                OneDimensionalModel(MOBILITY),
                COSTS,
                2,
                d_max=30,
                distance_optimum=optimum,
            )

    def test_one_evaluator_serves_every_cost_and_delay(self):
        model = TwoDimensionalModel(MOBILITY)
        with session() as obs:
            for update_cost in (20.0, 100.0):
                costs = CostParams(update_cost=update_cost, poll_cost=10.0)
                for m in (1, 3, math.inf):
                    optimum = find_optimal_threshold(model, costs, m, d_max=30)
                    optimize_joint_policy(
                        model,
                        costs,
                        m,
                        d_max=30,
                        distance_optimum=(optimum.threshold, optimum.total_cost),
                    )
            lookups = obs.registry.total("analytic_steady_memo_total")
        # Six searches read the chain; the joint solver reads it once, to
        # build the one evaluator every (U, m) shares.
        assert lookups == 7


class TestExactModelForTopology:
    def test_maps_each_geometry(self):
        assert isinstance(
            exact_model_for_topology(LineTopology(), MOBILITY),
            OneDimensionalModel,
        )
        assert isinstance(
            exact_model_for_topology(HexTopology(), MOBILITY),
            TwoDimensionalModel,
        )
        square = exact_model_for_topology(SquareTopology(), MOBILITY)
        assert square.topology.degree == 4


class TestJointlyOptimalStrategy:
    def test_registered_by_name(self):
        strategy = create_strategy(
            "jointly-optimal", mobility=MOBILITY, costs=COSTS, max_delay=2
        )
        assert isinstance(strategy, JointlyOptimalStrategy)

    def test_attach_solves_once_and_configures_distance_policy(self):
        strategy = JointlyOptimalStrategy(MOBILITY, COSTS, max_delay=2, d_max=15)
        topo = HexTopology()
        strategy.attach(topo, topo.origin)
        policy = strategy.policy
        assert policy is not None
        assert strategy.threshold == policy.threshold
        assert strategy.plan == policy.plan
        # Re-attach keeps the solved policy (the solve is offline).
        strategy.attach(topo, topo.origin)
        assert strategy.policy is policy

    def test_engine_run_and_paging_covers_disk(self, line):
        strategy = JointlyOptimalStrategy(
            MOBILITY, COSTS, max_delay=2, d_max=15
        )
        snapshot = SimulationEngine(
            line, strategy, MOBILITY, COSTS, seed=21
        ).run(5_000)
        assert snapshot.slots == 5_000
        polled = [c for group in strategy.polling_groups() for c in group]
        expected = list(line.disk(strategy.last_known, strategy.threshold))
        assert sorted(polled) == sorted(expected)
