"""Integration tests crossing module boundaries.

These are the tests that justify trusting the reproduction: the
analytical model, the closed forms, the optimizer, and the grid-level
simulator must all tell the same story about the same scenario.
"""

import math

import pytest

from repro import (
    CostEvaluator,
    CostParams,
    MobilityParams,
    OneDimensionalModel,
    TwoDimensionalModel,
    find_optimal_threshold,
    near_optimal_threshold,
)
from repro.analysis.validate import run_validation_campaign, DEFAULT_CASES
from repro.geometry import HexTopology, LineTopology
from repro.paging import optimal_contiguous_partition
from repro.simulation import run_replicated, validate_against_model
from repro.strategies import (
    DistanceStrategy,
    LocationAreaStrategy,
    MovementStrategy,
    TimerStrategy,
)

pytestmark = pytest.mark.slow


class TestModelVsSimulation:
    def test_1d_model_is_exact(self):
        # On the line the ring chain is the true distance process:
        # agreement should be within CI noise.
        model = OneDimensionalModel(MobilityParams(0.1, 0.02))
        comparison = validate_against_model(
            model, CostParams(40, 10), d=2, m=2, slots=120_000, replications=4, seed=1
        )
        assert comparison.relative_error < 0.03

    def test_2d_model_close_despite_aggregation(self):
        model = TwoDimensionalModel(MobilityParams(0.2, 0.01))
        comparison = validate_against_model(
            model, CostParams(80, 10), d=3, m=2, slots=120_000, replications=4, seed=2
        )
        assert comparison.relative_error < 0.05

    def test_campaign_smoke(self):
        outcomes = run_validation_campaign(
            cases=DEFAULT_CASES[:2], slots=100_000, replications=4, seed=3
        )
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.ok, (
                f"{outcome.case.label}: predicted "
                f"{outcome.comparison.predicted_total:.4f}, measured "
                f"{outcome.comparison.measured_total:.4f}"
            )

    def test_documented_campaign_agrees_in_every_case(self):
        # The campaign results/validation.txt holds and EXPERIMENTS.md
        # quotes (the library defaults).
        outcomes = run_validation_campaign()
        assert len(outcomes) == len(DEFAULT_CASES)
        for outcome in outcomes:
            assert outcome.ok, f"disagreement in case {outcome.case.label}"

    def test_simulated_optimum_location(self):
        # Simulate several thresholds around the analytic optimum; the
        # measured cost minimum must sit at (or adjacent to) it.
        mobility = MobilityParams(0.2, 0.02)
        costs = CostParams(60, 10)
        model = OneDimensionalModel(mobility)
        analytic = find_optimal_threshold(
            model, costs, 1, convention="physical"
        ).threshold
        measured = {}
        for d in range(max(0, analytic - 2), analytic + 3):
            result = run_replicated(
                LineTopology(),
                lambda d=d: DistanceStrategy(d, max_delay=1),
                mobility,
                costs,
                slots=60_000,
                replications=3,
                seed=4,
            )
            measured[d] = result.mean_total_cost
        best = min(measured, key=measured.get)
        assert abs(best - analytic) <= 1


class TestStrategyComparison:
    """Distance-based must beat the baselines where the paper says so."""

    MOBILITY = MobilityParams(0.3, 0.02)
    COSTS = CostParams(30.0, 1.0)
    SLOTS = 50_000

    def _cost(self, topology, factory, seed):
        return run_replicated(
            topology,
            factory,
            self.MOBILITY,
            self.COSTS,
            slots=self.SLOTS,
            replications=3,
            seed=seed,
        ).mean_total_cost

    def test_distance_beats_movement_at_same_threshold(self, hexgrid):
        # Reference [3]'s own result: distance-based wins for random
        # walks because oscillation wastes movement budget.
        distance = self._cost(hexgrid, lambda: DistanceStrategy(3, max_delay=2), 10)
        movement = self._cost(hexgrid, lambda: MovementStrategy(3, max_delay=2), 10)
        assert distance < movement

    def test_distance_beats_timer(self, hexgrid):
        distance = self._cost(hexgrid, lambda: DistanceStrategy(3, max_delay=2), 11)
        timer = self._cost(hexgrid, lambda: TimerStrategy(10, max_delay=2), 11)
        assert distance < timer

    def test_distance_beats_location_area_at_same_radius(self, hexgrid):
        # Same paging area (g(3) cells), but LA suffers boundary
        # ping-pong; distance-based centers the area on the user.
        distance = self._cost(hexgrid, lambda: DistanceStrategy(3, max_delay=1), 12)
        la = self._cost(hexgrid, lambda: LocationAreaStrategy(3), 12)
        assert distance < la


class TestOptimalPartitionIntegration:
    def test_dp_plan_simulates_no_worse_than_sdf(self, hexgrid):
        # Wire the DP-optimal partition into a live simulation and
        # compare against the paper's SDF partition on identical seeds.
        mobility = MobilityParams(0.3, 0.02)
        costs = CostParams(30.0, 1.0)
        model = TwoDimensionalModel(mobility)
        d, m = 4, 2
        p = model.steady_state(d)
        sizes = [hexgrid.ring_size(i) for i in range(d + 1)]
        plan = optimal_contiguous_partition(d, m, p, sizes)

        def sdf_factory():
            return DistanceStrategy(d, max_delay=m)

        def dp_factory():
            return DistanceStrategy(d, max_delay=m, plan=plan)

        common = dict(
            topology=hexgrid,
            mobility=mobility,
            costs=costs,
            slots=60_000,
            replications=3,
            seed=13,
        )
        sdf_cost = run_replicated(strategy_factory=sdf_factory, **common).mean_total_cost
        dp_cost = run_replicated(strategy_factory=dp_factory, **common).mean_total_cost
        assert dp_cost <= sdf_cost * 1.02  # allow noise; DP must not lose


class TestNearOptimalIntegration:
    def test_near_optimal_threshold_simulates_close_to_exact(self):
        # End-to-end Section 7 story: run both d* and d' in simulation;
        # the corrected near-optimal scheme must be within a few percent.
        mobility = MobilityParams(0.05, 0.01)
        costs = CostParams(300, 10)
        m = 3
        exact_d = find_optimal_threshold(
            TwoDimensionalModel(mobility), costs, m
        ).threshold
        near_d = near_optimal_threshold(
            mobility, costs, m, apply_correction=True
        ).threshold
        topo = HexTopology()
        results = {}
        for label, d in (("exact", exact_d), ("near", near_d)):
            results[label] = run_replicated(
                topo,
                lambda d=d: DistanceStrategy(d, max_delay=m),
                mobility,
                costs,
                slots=80_000,
                replications=3,
                seed=14,
            ).mean_total_cost
        assert results["near"] <= results["exact"] * 1.10
