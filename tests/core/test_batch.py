"""Tests for the batched cost-surface solver (repro.core.batch).

The batched path must be a drop-in replacement for the scalar pipeline:
same steady states, same cost components, same optima, same
tie-breaking -- just all thresholds at once.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import (
    CostSurfaceGrid,
    SteadyPrefix,
    banded_steady_state,
    batched_steady_states,
    batched_update_costs,
    batched_update_rates,
    compute_cost_surface,
    steady_prefix,
)
from repro.core.costs import CostEvaluator
from repro.core.models import TwoDimensionalModel
from repro.core.near_optimal import near_optimal_threshold
from repro.core.optimizers import exhaustive_search
from repro.core.parameters import CostParams, MobilityParams
from repro.core.threshold import find_optimal_threshold
from repro.exceptions import ParameterError
from repro.paging import sdf_partition
from repro.observability import session
from repro.analysis.sweep import MODEL_CLASSES
from repro.strategies.jointly_optimal import _JointEvaluator

MOBILITY = MobilityParams(move_probability=0.05, call_probability=0.01)
COSTS = CostParams(update_cost=100.0, poll_cost=10.0)


def model_of(name, q=0.05, c=0.01):
    return MODEL_CLASSES[name](
        MobilityParams(move_probability=q, call_probability=c)
    )


class TestBatchedSteadyStates:
    @pytest.mark.parametrize("name", sorted(MODEL_CLASSES))
    def test_matches_scalar_solvers(self, name):
        model = model_of(name, q=0.3, c=0.02)
        d_max = 20
        batched = batched_steady_states(model, d_max)
        for d in range(d_max + 1):
            row = batched[d, : d + 1]
            recursive = model.steady_state(d, method="recursive")
            matrix = model.steady_state(d, method="matrix")
            assert np.max(np.abs(row - recursive)) <= 1e-10
            assert np.max(np.abs(row - matrix)) <= 1e-10

    def test_d_zero_is_trivial(self):
        model = model_of("2d-exact")
        batched = batched_steady_states(model, 0)
        assert batched.shape == (1, 1)
        assert batched[0, 0] == pytest.approx(1.0)

    def test_rows_are_triangular_and_normalized(self):
        model = model_of("1d", q=0.4)
        batched = batched_steady_states(model, 12)
        assert batched.shape == (13, 13)
        for d in range(13):
            assert batched[d].sum() == pytest.approx(1.0)
            assert np.all(batched[d, d + 1 :] == 0.0)

    def test_rate_prefix_invariance(self):
        """The batching precondition: rates depend on the ring, not d."""
        for name in sorted(MODEL_CLASSES):
            model = model_of(name, q=0.2, c=0.03)
            a_big, b_big = model.transition_rates(30)
            a_small, b_small = model.transition_rates(12)
            assert np.allclose(a_big[:13], a_small)
            assert np.allclose(b_big[:13], b_small)

    def test_threshold_dependent_model_is_refused(self):
        class Dependent(TwoDimensionalModel):
            threshold_invariant_rates = False

        with pytest.raises(ParameterError, match="threshold-dependent"):
            batched_steady_states(Dependent(MOBILITY), 5)


class TestSteadyStateMemo:
    """One chain queried at one ``d_max`` is solved once."""

    @staticmethod
    def memo_counts(obs):
        return {
            record["labels"]["outcome"]: record["value"]
            for record in obs.registry.collect()
            if record["name"] == "analytic_steady_memo_total"
        }

    def test_repeat_returns_the_same_read_only_matrix(self):
        model = model_of("2d-exact")
        first = batched_steady_states(model, 30)
        assert batched_steady_states(model, 30) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.5

    def test_hit_is_bitwise_a_fresh_solve(self):
        model = model_of("square-exact", q=0.2, c=0.03)
        batched_steady_states(model, 40)
        fresh = batched_steady_states(model_of("square-exact", q=0.2, c=0.03), 40)
        np.testing.assert_array_equal(batched_steady_states(model, 40), fresh)

    def test_keys_on_exact_d_max(self):
        model = model_of("2d-exact")
        with session() as obs:
            small = steady_prefix(model, 20)
            large = steady_prefix(model, 40)
            again = steady_prefix(model, 20)
            assert steady_prefix(model, 20) is again
            spans = [r.name for r in obs.tracer.records]
        # Only the last solve is kept, and a deeper solve is never read
        # in place of a fresh one.
        assert again is not small
        np.testing.assert_array_equal(again.log_z, small.log_z)
        assert large.d_max == 40
        assert spans.count("analytic.batched_steady_states") == 3
        assert self.memo_counts(obs) == {"miss": 3.0, "hit": 1.0}

    def test_hit_opens_no_span_and_is_counted(self):
        model = model_of("1d")
        with session() as obs:
            first = steady_prefix(model, 25)
            for _ in range(2):
                assert steady_prefix(model, 25) is first
            spans = [r.name for r in obs.tracer.records]
        assert not first.log_z.flags.writeable
        assert spans.count("analytic.batched_steady_states") == 1
        assert self.memo_counts(obs) == {"miss": 1.0, "hit": 2.0}

    def test_threshold_search_and_surfaces_share_the_solve(self):
        model = model_of("2d-exact")
        with session() as obs:
            for m in (1, 2, 3, math.inf):
                find_optimal_threshold(model, COSTS, m, d_max=50)
            compute_cost_surface(model, COSTS, 50)
            batched_steady_states(model, 50)
            spans = [r.name for r in obs.tracer.records]
        assert spans.count("analytic.batched_steady_states") == 1

    def test_surfaces_build_no_matrix(self):
        model = model_of("2d-exact")
        compute_cost_surface(model, COSTS, 50)
        assert steady_prefix(model, 50)._matrix is None


class TestDeepChains:
    """The prefix-sum surface is O(D): ``D = 20,000`` is cheap, and its
    costs match breakdowns built on the single-``d`` banded LU."""

    PROBE = MobilityParams(move_probability=0.5, call_probability=1e-6)
    PROBE_COSTS = CostParams(update_cost=1e6, poll_cost=1.0)

    @pytest.mark.parametrize(
        "name, optimum", [("1d", 3800), ("2d-exact", 683)]
    )
    def test_surface_at_twenty_thousand_rings(self, name, optimum):
        model = MODEL_CLASSES[name](self.PROBE)
        surface = compute_cost_surface(model, self.PROBE_COSTS, 20_000)
        # Rare calls and costly updates: the m = 1 optimum lies far
        # beyond the default search bound of 100.
        assert surface.argmin(1) == optimum
        for d in (0, 1, 7, 100, optimum, 9_999, 20_000):
            p = banded_steady_state(model, d)
            update = p[d] * model.update_rate(d) * self.PROBE_COSTS.update_cost
            for k, m in enumerate(surface.delays):
                cells = sdf_partition(d, m).expected_polled_cells(model.topology, p)
                total = update + model.c * self.PROBE_COSTS.poll_cost * cells
                assert surface.total[k, d] == pytest.approx(total, rel=1e-10, abs=0)


class TestBatchedUpdateCosts:
    @pytest.mark.parametrize("convention", ["paper", "physical"])
    def test_matches_scalar_update_cost(self, convention):
        model = model_of("2d-exact", q=0.2, c=0.02)
        evaluator = CostEvaluator(model, COSTS, convention=convention)
        vector = batched_update_costs(model, COSTS, 15, convention=convention)
        for d in range(16):
            assert vector[d] == pytest.approx(evaluator.update_cost(d), abs=1e-12)

    def test_rates_apply_boundary_convention(self):
        model = model_of("2d-exact")
        paper = batched_update_rates(model, 5, convention="paper")
        physical = batched_update_rates(model, 5, convention="physical")
        assert paper[0] == model.update_rate(0, convention="paper")
        assert physical[0] == model.update_rate(0, convention="physical")
        assert np.allclose(paper[1:], physical[1:])


class TestCostSurface:
    def test_matches_scalar_breakdowns(self):
        model = model_of("2d-exact", q=0.1, c=0.02)
        surface = compute_cost_surface(model, COSTS, 15, delays=(1, 3, math.inf))
        # breakdown() on an evaluator whose cost_curve was never called
        # always takes the scalar path, so this compares independent
        # implementations.
        evaluator = CostEvaluator(model, COSTS)
        for k, m in enumerate(surface.delays):
            for d in range(16):
                b = evaluator.breakdown(d, m)
                assert surface.total[k, d] == pytest.approx(b.total_cost, abs=1e-10)
                assert surface.paging[k, d] == pytest.approx(b.paging_cost, abs=1e-10)
                assert surface.expected_cells[k, d] == pytest.approx(
                    b.expected_polled_cells, abs=1e-10
                )
                assert surface.expected_delay[k, d] == pytest.approx(
                    b.expected_delay, abs=1e-10
                )

    def test_published_table1_point(self):
        """Table 1 (1-D, q=0.05, c=0.01, V=10): U=20, m=1 -> C_T = 0.527."""
        surface = compute_cost_surface(
            model_of("1d"), CostParams(update_cost=20.0, poll_cost=10.0), 50,
            delays=(1,),
        )
        d_star = surface.argmin(1)
        assert round(float(surface.total[0, d_star]), 3) == 0.527

    def test_published_table2_points(self):
        """Table 2 (2-D): U=300 m=1 -> 3.468; U=1000 m=3 -> d*=5, 3.177."""
        surface = compute_cost_surface(
            model_of("2d-exact"), CostParams(update_cost=300.0, poll_cost=10.0),
            50, delays=(1,),
        )
        assert round(float(surface.total[0, surface.argmin(1)]), 3) == 3.468
        surface = compute_cost_surface(
            model_of("2d-exact"), CostParams(update_cost=1000.0, poll_cost=10.0),
            50, delays=(3,),
        )
        assert surface.argmin(3) == 5
        assert round(float(surface.total[0, 5]), 3) == 3.177

    def test_argmin_matches_exhaustive_search(self):
        model = model_of("2d-exact", q=0.3, c=0.01)
        surface = compute_cost_surface(model, COSTS, 30, delays=(1, 2, math.inf))
        for m in surface.delays:
            curve = surface.curve(m)
            search = exhaustive_search(lambda d: curve[d], 30)
            assert surface.argmin(m) == search.optimal_threshold

    def test_argmin_replays_the_ascending_tie_rule(self):
        """Each step improves on the last by less than 1e-15 but the
        last improves on the first by more: the ascending scan walks to
        the end, where the smallest value within 1e-15 of the global
        minimum does not."""
        curve = np.array([1.0, 1.0 - 0.8e-15, 1.0 - 1.6e-15])
        assert exhaustive_search(lambda d: curve[d], 2).optimal_threshold == 2
        surface = compute_cost_surface(model_of("1d"), COSTS, 2, delays=(1,))
        surface = replace(surface, total=curve[np.newaxis, :])
        assert surface.argmin(1) == 2

    def test_duplicate_delays_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            compute_cost_surface(model_of("1d"), COSTS, 5, delays=(1, 1))

    def test_arrays_are_read_only(self):
        surface = compute_cost_surface(model_of("1d"), COSTS, 5, delays=(1,))
        assert isinstance(surface, CostSurfaceGrid)
        with pytest.raises(ValueError):
            surface.total[0, 0] = 0.0


class TestEvaluatorIntegration:
    def test_cost_curve_batched_equals_scalar(self):
        for name in sorted(MODEL_CLASSES):
            model = model_of(name, q=0.15, c=0.02)
            evaluator = CostEvaluator(model, COSTS)
            for m in (1, 3, math.inf):
                batched = evaluator.cost_curve(m, 18, method="batched")
                scalar = CostEvaluator(model, COSTS).cost_curve(
                    m, 18, method="scalar"
                )
                assert batched == pytest.approx(scalar, abs=1e-10)

    def test_custom_plan_factory_falls_back_to_scalar(self):
        from repro.paging import per_ring_partition

        model = model_of("2d-exact")
        factory = lambda model, d, m: per_ring_partition(d)  # noqa: E731
        evaluator = CostEvaluator(model, COSTS, plan_factory=factory)
        assert not evaluator.uses_sdf_partition
        # auto silently uses the scalar loop; per-ring == SDF at m=inf.
        curve = evaluator.cost_curve(math.inf, 10, method="auto")
        reference = CostEvaluator(model, COSTS).cost_curve(math.inf, 10)
        assert curve == pytest.approx(reference, abs=1e-10)

    def test_method_batched_raises_for_custom_factory(self):
        from repro.paging import per_ring_partition

        evaluator = CostEvaluator(
            model_of("2d-exact"), COSTS,
            plan_factory=lambda model, d, m: per_ring_partition(d),
        )
        with pytest.raises(ParameterError, match="cannot use the batched"):
            evaluator.cost_curve(1, 10, method="batched")

    def test_unknown_curve_method_rejected(self):
        evaluator = CostEvaluator(model_of("1d"), COSTS)
        with pytest.raises(ParameterError, match="unknown cost_curve method"):
            evaluator.cost_curve(1, 10, method="turbo")

    def test_breakdown_memo_returns_same_object(self):
        evaluator = CostEvaluator(model_of("2d-exact"), COSTS)
        first = evaluator.breakdown(4, 2)
        assert evaluator.breakdown(4, 2) is first
        # paging_cost / total_cost are served from the same memo entry.
        assert evaluator.paging_cost(4, 2) == first.paging_cost
        assert evaluator.total_cost(4, 2) == first.total_cost

    def test_find_optimal_threshold_scalar_parity(self):
        model_args = dict(q=0.3, c=0.01)
        for name in ("1d", "2d-exact", "square-exact"):
            for m in (1, 2, math.inf):
                fast = find_optimal_threshold(
                    model_of(name, **model_args), COSTS, m, d_max=40
                )
                slow = find_optimal_threshold(
                    model_of(name, **model_args), COSTS, m, d_max=40,
                    method="exhaustive-scalar",
                )
                assert fast.threshold == slow.threshold
                assert fast.total_cost == pytest.approx(
                    slow.total_cost, abs=1e-10
                )
                # The public label and accounting stay those of the
                # paper's exhaustive method.
                assert fast.search.method == "exhaustive"
                assert fast.search.evaluations == 41

    @pytest.mark.parametrize(
        "name, q, c",
        [("2d-exact", 0.05, 0.01), ("2d-exact", 0.4, 0.002), ("1d", 0.05, 0.01)],
    )
    def test_curve_does_not_depend_on_earlier_requests(self, name, q, c):
        # A row priced at d_max = 100 is not sliced for d_max = 50: its
        # steady states come from a deeper solve, which differs from a
        # fresh one in the last bits.
        evaluator = CostEvaluator(model_of(name, q=q, c=c), COSTS)
        deep = evaluator.cost_curve(3, 100)
        shallow = evaluator.cost_curve(3, 50)
        fresh = CostEvaluator(model_of(name, q=q, c=c), COSTS).cost_curve(3, 50)
        np.testing.assert_array_equal(shallow, fresh)
        np.testing.assert_array_equal(evaluator.cost_curve(3, 100), deep)

    def test_scalar_curve_reads_no_batched_row(self):
        # The scalar curve is the cross-check reference: a batched row
        # priced first, and a breakdown served from it, must not stand
        # in for it.
        evaluator = CostEvaluator(model_of("2d-exact"), COSTS)
        batched = evaluator.cost_curve(3, 50)
        evaluator.breakdown(7, 3)
        scalar = evaluator.cost_curve(3, 50, method="scalar")
        fresh = CostEvaluator(model_of("2d-exact"), COSTS).cost_curve(
            3, 50, method="scalar"
        )
        np.testing.assert_array_equal(scalar, fresh)
        # The two paths round differently here, so the check has teeth.
        assert scalar != batched


class TestSearchWork:
    """What one threshold search computes, as exact counts."""

    @staticmethod
    def span_counts(obs):
        names = [record.name for record in obs.tracer.records]
        return (
            names.count("analytic.compute_cost_surface"),
            names.count("analytic.batched_surface"),
        )

    def test_a_search_prices_one_row_under_one_span(self):
        model = model_of("2d-exact")
        with session() as obs:
            find_optimal_threshold(model, COSTS, 3, d_max=50)
        assert self.span_counts(obs) == (1, 0)

    def test_a_near_optimal_search_prices_one_row_under_one_span(self):
        with session() as obs:
            near_optimal_threshold(MOBILITY, COSTS, 3, d_max=50)
        assert self.span_counts(obs) == (1, 0)

    def test_the_chain_vectors_are_built_once_for_every_delay(self, monkeypatch):
        model = model_of("2d-exact")
        steady_prefix(model, 50)  # its balance check reads the diagonal too
        calls = {"coverage": 0, "diagonal": 0}

        def counted(key, method):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return method(*args, **kwargs)
            return wrapper

        topology = type(model.topology)
        monkeypatch.setattr(
            topology, "coverage_curve", counted("coverage", topology.coverage_curve)
        )
        monkeypatch.setattr(
            SteadyPrefix, "diagonal", counted("diagonal", SteadyPrefix.diagonal)
        )
        for m in (1, 2, 3, math.inf):
            find_optimal_threshold(model, COSTS, m, d_max=50)
        assert calls == {"coverage": 1, "diagonal": 1}
        # The jointly-optimal leg on the same chain reads the same
        # coverage (its steady-state matrix reads the diagonal again).
        _JointEvaluator(model, 50, "paper")
        assert calls["coverage"] == 1
