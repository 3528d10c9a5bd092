"""Unit tests for the near-optimal 2-D threshold scheme (Section 7)."""

import math

import pytest

from repro import (
    CostParams,
    MobilityParams,
    TwoDimensionalModel,
    find_optimal_threshold,
    near_optimal_threshold,
)
from repro.analysis.tables import compute_table2
from repro.core import near_optimal
from repro.observability import session

MOBILITY = MobilityParams(0.05, 0.01)


class TestTable2Reproduction:
    @pytest.mark.parametrize(
        "U,m,expected_d,expected_cost",
        [
            (20, 1, 0, 1.100),
            (70, 1, 0, 3.600),
            (80, 1, 1, 1.771),  # the d' flip the q/3 convention creates
            (200, 1, 1, 3.379),
            (300, 1, 2, 3.468),
            (300, 3, 2, 2.381),
            (600, 3, 3, 3.079),
            (700, 3, 5, 3.011),
            (1000, math.inf, 6, 2.374),
        ],
    )
    def test_published_d_prime_and_cost(self, U, m, expected_d, expected_cost):
        result = near_optimal_threshold(MOBILITY, CostParams(U, 10), m)
        assert result.threshold == expected_d
        assert result.exact_cost == pytest.approx(expected_cost, abs=5e-4)

    def test_exact_cost_uses_exact_model(self):
        # C'_T is the exact cost at d', not the approximate estimate.
        result = near_optimal_threshold(MOBILITY, CostParams(300, 1), 1)
        model = TwoDimensionalModel(MOBILITY)
        from repro import CostEvaluator

        exact = CostEvaluator(model, CostParams(300, 1)).total_cost(result.threshold, 1)
        assert result.exact_cost == pytest.approx(exact)


class TestCorrectionRule:
    def test_correction_moves_zero_to_one(self):
        # U=20, m=1: d'=0 but exact cost of d=1 (0.968) beats d=0 (1.1).
        plain = near_optimal_threshold(MOBILITY, CostParams(20, 10), 1)
        corrected = near_optimal_threshold(
            MOBILITY, CostParams(20, 10), 1, apply_correction=True
        )
        assert plain.threshold == 0
        assert corrected.threshold == 1
        assert corrected.corrected
        assert corrected.uncorrected_threshold == 0
        assert corrected.exact_cost == pytest.approx(0.968, abs=5e-4)

    def test_correction_keeps_zero_when_zero_is_best(self):
        # Small U: d* = 0 genuinely; correction must not fire.
        result = near_optimal_threshold(
            MOBILITY, CostParams(2, 10), 1, apply_correction=True
        )
        assert result.threshold == 0
        assert not result.corrected

    def test_correction_noop_when_d_prime_positive(self):
        result = near_optimal_threshold(
            MOBILITY, CostParams(300, 10), 1, apply_correction=True
        )
        assert result.threshold == 2
        assert not result.corrected

    def test_corrected_cost_never_worse(self):
        for U in (9, 10, 20, 30, 40, 50):
            plain = near_optimal_threshold(MOBILITY, CostParams(U, 10), 3)
            fixed = near_optimal_threshold(
                MOBILITY, CostParams(U, 10), 3, apply_correction=True
            )
            assert fixed.exact_cost <= plain.exact_cost + 1e-12


class TestQuality:
    @pytest.mark.parametrize("U", [1, 10, 50, 100, 400, 1000])
    @pytest.mark.parametrize("m", [1, 3, math.inf])
    def test_d_prime_within_one_of_optimum_after_correction(self, U, m):
        # Section 7: "the differences between d* and d' are within 1
        # from each other almost all the time"; with the correction rule
        # this holds on the whole published grid.
        costs = CostParams(U, 10)
        exact = find_optimal_threshold(TwoDimensionalModel(MOBILITY), costs, m)
        near = near_optimal_threshold(MOBILITY, costs, m, apply_correction=True)
        assert abs(near.threshold - exact.threshold) <= 1

    def test_approximate_cost_underestimates_but_same_scale(self):
        # The approximate model's own cost estimate is biased low (its
        # update rate q/3 is below the exact q(1/3 + 1/(6d))), but it
        # must stay on the same scale -- it is only used to *rank*
        # thresholds, and Table 2 shows the ranking survives.
        result = near_optimal_threshold(MOBILITY, CostParams(500, 10), 3)
        assert result.threshold > 0
        assert result.approximate_cost <= result.exact_cost + 1e-12
        assert result.approximate_cost > 0.5 * result.exact_cost


class TestModelMemo:
    """Calls at one ``(q, c)`` share one pair of models, and so one solve
    of each chain.  The memo outlives a test, so each test clears it."""

    @staticmethod
    def solves(run):
        near_optimal._models.cache_clear()
        with session() as obs:
            run()
        names = [record.name for record in obs.tracer.records]
        return names.count("analytic.batched_steady_states")

    def test_table2_solves_each_chain_once(self):
        # One exact chain for d*, one approximate chain for all 84 d'.
        assert self.solves(compute_table2) == 2

    def test_one_solve_across_delay_bounds(self):
        mobility, costs = MobilityParams(0.0731, 0.0173), CostParams(250, 10)

        def run():
            for m in (1, 3, math.inf):
                near_optimal_threshold(mobility, costs, m)

        assert self.solves(run) == 1

    def test_memo_is_bounded(self):
        near_optimal._models.cache_clear()
        for k in range(near_optimal._MODEL_PAIRS + 3):
            near_optimal_threshold(
                MobilityParams(0.01 * (k + 1), 0.01), CostParams(50, 10), 1, d_max=5
            )
        info = near_optimal._models.cache_info()
        assert info.currsize == info.maxsize == near_optimal._MODEL_PAIRS
