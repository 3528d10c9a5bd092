"""Unit tests for threshold search algorithms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import ParameterError, exhaustive_search, hill_climb, simulated_annealing
from repro.core.optimizers import scan_curve, screened_scan

TIE = 1e-15


def convex(d):
    """Smooth single-minimum curve with optimum at 7."""
    return (d - 7) ** 2 + 1.0


def double_dip(d):
    """Two local minima: shallow at 2, global at 11."""
    if d <= 5:
        return abs(d - 2) + 3.0
    return abs(d - 11) + 1.0


class TestExhaustive:
    def test_finds_global_minimum(self):
        result = exhaustive_search(convex, 20)
        assert result.optimal_threshold == 7
        assert result.optimal_cost == 1.0

    def test_evaluates_everything_once(self):
        calls = []

        def counting(d):
            calls.append(d)
            return convex(d)

        result = exhaustive_search(counting, 10)
        assert result.evaluations == 11
        assert sorted(calls) == list(range(11))

    def test_escapes_local_minimum(self):
        assert exhaustive_search(double_dip, 20).optimal_threshold == 11

    def test_tie_breaks_to_smaller_threshold(self):
        result = exhaustive_search(lambda d: 5.0, 10)
        assert result.optimal_threshold == 0

    def test_curve_recorded(self):
        result = exhaustive_search(convex, 5)
        assert result.cost_at(3) == convex(3)
        assert result.cost_at(99) is None

    def test_d_max_zero(self):
        result = exhaustive_search(convex, 0)
        assert result.optimal_threshold == 0

    @pytest.mark.parametrize("bad", [-1, 2.5, "3", True])
    def test_rejects_bad_bound(self, bad):
        with pytest.raises(ParameterError):
            exhaustive_search(convex, bad)


class TestSimulatedAnnealing:
    def test_finds_global_minimum_on_convex(self):
        result = simulated_annealing(convex, 20, seed=1)
        assert result.optimal_threshold == 7

    def test_deterministic_per_seed(self):
        a = simulated_annealing(double_dip, 20, seed=42)
        b = simulated_annealing(double_dip, 20, seed=42)
        assert a.optimal_threshold == b.optimal_threshold
        assert a.evaluations == b.evaluations

    def test_usually_escapes_local_minimum(self):
        # The paper chose annealing precisely because the cost curve can
        # have local minima; across seeds it should find the global one
        # most of the time.
        hits = sum(
            simulated_annealing(
                double_dip, 20, seed=s, y=40.0, exit_temperature=0.02
            ).optimal_threshold
            == 11
            for s in range(20)
        )
        assert hits >= 15

    def test_reports_best_seen_not_final_state(self):
        result = simulated_annealing(convex, 20, seed=3)
        assert result.optimal_cost <= min(result.curve.values()) + 1e-12

    def test_method_label(self):
        assert simulated_annealing(convex, 5, seed=0).method == "simulated-annealing"

    def test_d_max_zero(self):
        assert simulated_annealing(convex, 0, seed=0).optimal_threshold == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"y": 0.0},
            {"exit_temperature": 0.0},
            {"exit_temperature": 1.0},
            {"neighborhood": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ParameterError):
            simulated_annealing(convex, 10, seed=0, **kwargs)

    def test_more_cooling_means_more_evaluations(self):
        fast = simulated_annealing(convex, 30, seed=5, y=2.0, exit_temperature=0.2)
        slow = simulated_annealing(convex, 30, seed=5, y=50.0, exit_temperature=0.05)
        assert slow.evaluations >= fast.evaluations


class TestHillClimb:
    def test_descends_convex(self):
        assert hill_climb(convex, 20, start=0).optimal_threshold == 7

    def test_gets_stuck_in_local_minimum(self):
        # This failure is the documented reason the paper avoids pure
        # descent.
        result = hill_climb(double_dip, 20, start=0)
        assert result.optimal_threshold == 2

    def test_from_good_start_finds_global(self):
        assert hill_climb(double_dip, 20, start=15).optimal_threshold == 11

    def test_fewer_evaluations_than_exhaustive(self):
        greedy = hill_climb(convex, 50, start=5)
        full = exhaustive_search(convex, 50)
        assert greedy.evaluations < full.evaluations

    def test_rejects_bad_start(self):
        with pytest.raises(ParameterError):
            hill_climb(convex, 10, start=11)


def full_scan(costs, best=0, best_cost=math.inf, skip=None):
    """The scan :func:`screened_scan` replays, pricing every candidate."""
    for k, value in enumerate(costs):
        if k != skip and value < best_cost - TIE:
            best, best_cost = k, value
    return best, best_cost


class TestScanCurve:
    """``scan_curve`` returns exactly the ``OptimizationResult`` of
    ``exhaustive_search`` over lookups into the same vector."""

    @staticmethod
    def reference(values):
        return exhaustive_search(lambda d: values[d], len(values) - 1)

    def test_walks_a_chain_of_sub_tolerance_steps(self):
        values = [1.0, 1.0 - 0.8e-15, 1.0 - 1.6e-15]
        result = scan_curve(values)
        assert result == self.reference(values)
        assert result.optimal_threshold == 2

    def test_nan_and_infinities(self):
        for values in (
            [math.nan, 3.0, math.nan, 1.0, 2.0],
            [math.inf, math.inf],
            [math.nan, math.nan],
            [2.0, -math.inf, -math.inf, 1.0],
        ):
            result, reference = scan_curve(values), self.reference(values)
            # NaN != NaN, so the curves are compared NaN-aware.
            np.testing.assert_equal(result.curve, reference.curve)
            assert replace(result, curve={}) == replace(reference, curve={})

    def test_accepts_arrays(self):
        values = np.array([convex(d) for d in range(15)])
        result = scan_curve(values)
        assert result == self.reference(values.tolist())
        assert (result.optimal_threshold, result.evaluations) == (7, 15)
        assert result.method == "exhaustive"

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_search_on_near_ties(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            size = int(rng.integers(1, 80))
            level = float(rng.choice([1e-3, 1.0, 30.0]))
            values = level + TIE * rng.integers(-12, 12, size) * rng.choice(
                [0.3, 0.5, 0.6, 1.1], size
            )
            values[rng.random(size) < 0.2] += level * rng.random()
            values = values.tolist()
            assert scan_curve(values) == self.reference(values)


class TestScreenedScan:
    def test_distinct_costs_need_one_confirmation(self):
        costs = [convex(d) for d in range(30)]
        calls = []

        def cost(k):
            calls.append(k)
            return costs[k]

        assert screened_scan(np.array(costs), cost) == (7, 1.0, 1)
        assert calls == [7]

    def test_incumbent_is_skipped_and_kept_on_ties(self):
        costs = [2.0, 1.0, 1.0, 3.0]
        assert screened_scan(np.array(costs), costs.__getitem__, best=1,
                             best_cost=1.0, skip=1) == (1, 1.0, 1)

    def test_early_far_candidate_shifts_the_tie_decisions(self):
        # An ascending scan accepts level + 2.8 tol first; that
        # acceptance blocks level + 1.9 tol and lets level + 0.95 tol
        # in, which then keeps the true minimum out.  Scanning only the
        # candidates within the screen's margin (~2 tol here) of the
        # minimum would drop the first and end at the minimum instead.
        costs = [1e-3 + k * TIE for k in (10.0, 2.8, 1.9, 0.95, 0.0)]
        expected = full_scan(costs)
        assert expected[0] == 3
        assert screened_scan(np.array(costs), costs.__getitem__)[:2] == expected

    def test_nan_screens_fall_through_to_the_exact_cost(self):
        costs = [3.0, 2.0, 1.0, 4.0]
        screened = np.array([3.0, np.nan, np.nan, 4.0])
        assert screened_scan(screened, costs.__getitem__)[:2] == (2, 1.0)

    def test_empty_curve_keeps_the_start(self):
        assert screened_scan(np.array([]), lambda k: 0.0) == (0, math.inf, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_full_scan_on_near_ties(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            size = int(rng.integers(1, 60))
            # Costs a few tie tolerances apart around a random level, with
            # some far outliers, and screened values off by up to 2e-15.
            level = float(rng.choice([1e-3, 1.0, 30.0]))
            costs = level + TIE * rng.integers(0, 12, size) * rng.choice([0.5, 0.6, 1.1], size)
            costs[rng.random(size) < 0.2] += level * rng.random()
            costs = costs.tolist()
            screened = np.array(costs) + rng.uniform(-2e-15, 2e-15, size)
            skip = int(rng.integers(0, size)) if rng.random() < 0.5 else None
            start = (skip, costs[skip]) if skip is not None else (0, math.inf)
            got = screened_scan(screened, costs.__getitem__, *start, skip=skip)
            assert got[:2] == full_scan(costs, *start, skip=skip)
