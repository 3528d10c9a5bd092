"""Property-based cross-check of the batched cost-surface solver.

Across random ``(q, c, d_max, m)`` and every mobility model, the
batched prefix-sum solve must agree with both scalar steady-state
solvers and with the scalar cost evaluator to 1e-10 -- the acceptance
bar of ``benchmarks/bench_analytic.py``, here enforced over the whole
random parameter space rather than one operating point -- and, on
chains up to ``D = 300`` and down to ``c = 0``, with costs built from
per-threshold recursive (or, where the recursion overflows, banded)
solves to 1e-11 relative.  The row a threshold search scans, and the
breakdown it reports, are bit for bit the surface's.
"""

import pytest
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import MODEL_CLASSES
from repro.core.batch import batched_steady_states, compute_cost_surface
from repro.core.models import dense_recursion_fits
from repro.paging import sdf_partition
from repro.core.chains import (
    ResetChain,
    solve_steady_state_matrix,
    solve_steady_state_recursive,
)
from repro.core.costs import CostEvaluator
from repro.core.parameters import CostParams, MobilityParams
from repro.core.threshold import find_optimal_threshold

pytestmark = pytest.mark.slow

TOLERANCE = 1e-10

probabilities = st.tuples(
    st.floats(min_value=0.01, max_value=0.8),
    st.floats(min_value=0.0, max_value=0.15),
).filter(lambda qc: qc[0] + qc[1] <= 1.0)
thresholds = st.integers(min_value=0, max_value=25)
delays = st.one_of(st.integers(min_value=1, max_value=6), st.just(math.inf))
model_names = st.sampled_from(sorted(MODEL_CLASSES))


def build_model(name, qc):
    q, c = qc
    return MODEL_CLASSES[name](
        MobilityParams(move_probability=q, call_probability=c)
    )


class TestBatchedSteadyStateAgreement:
    @given(name=model_names, qc=probabilities, d_max=thresholds)
    @settings(max_examples=80, deadline=None)
    def test_rows_match_both_scalar_solvers(self, name, qc, d_max):
        model = build_model(name, qc)
        batched = batched_steady_states(model, d_max)
        for d in range(d_max + 1):
            a, b = model.transition_rates(d)
            chain = ResetChain(
                outward=np.asarray(a), inward=np.asarray(b), reset=model.c
            )
            row = batched[d, : d + 1]
            assert np.max(np.abs(row - solve_steady_state_recursive(chain))) \
                <= TOLERANCE
            assert np.max(np.abs(row - solve_steady_state_matrix(chain))) \
                <= TOLERANCE


class TestBatchedSurfaceAgreement:
    @given(
        name=model_names,
        qc=probabilities,
        d_max=st.integers(min_value=0, max_value=18),
        m=delays,
    )
    @settings(max_examples=60, deadline=None)
    def test_surface_matches_scalar_evaluator(self, name, qc, d_max, m):
        model = build_model(name, qc)
        costs = CostParams(update_cost=100.0, poll_cost=10.0)
        surface = compute_cost_surface(model, costs, d_max, delays=(m,))
        # breakdown() never triggers the batched surface on its own, so
        # the evaluator below is a genuinely scalar reference.
        evaluator = CostEvaluator(model, costs)
        for d in range(d_max + 1):
            breakdown = evaluator.breakdown(d, m)
            assert abs(surface.update[d] - breakdown.update_cost) <= TOLERANCE
            assert abs(surface.paging[0, d] - breakdown.paging_cost) <= TOLERANCE
            assert abs(surface.total[0, d] - breakdown.total_cost) <= TOLERANCE
            assert abs(
                surface.expected_delay[0, d] - breakdown.expected_delay
            ) <= TOLERANCE


class TestPrefixSurfaceMatchesPerThresholdSolves:
    @given(
        name=st.sampled_from(["1d", "2d-exact", "2d-approx", "square-exact"]),
        q=st.floats(min_value=1e-4, max_value=0.9),
        c=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.1)),
        update_cost=st.floats(min_value=1.0, max_value=1e4),
        poll_cost=st.floats(min_value=0.1, max_value=100.0),
        m=st.one_of(st.integers(min_value=1, max_value=8), st.just(math.inf)),
        d_max=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=25, deadline=None)
    def test_costs_match_recursive_or_banded_rows(
        self, name, q, c, update_cost, poll_cost, m, d_max
    ):
        model = build_model(name, (q, c))
        costs = CostParams(update_cost=update_cost, poll_cost=poll_cost)
        surface = compute_cost_surface(model, costs, d_max, delays=(m,))
        for d in range(d_max + 1):
            chain = model.chain(d)
            method = (
                "recursive"
                if dense_recursion_fits(chain.a, chain.b, model.c)
                else "banded"
            )
            p = model.steady_state(d, method=method)
            update = p[d] * model.update_rate(d) * update_cost
            cells = sdf_partition(d, m).expected_polled_cells(model.topology, p)
            paging = model.c * poll_cost * cells
            # Relative to the total, so a component that underflows
            # toward zero is held to the total's precision.
            scale = 1e-11 * (update + paging)
            assert abs(surface.update[d] - update) <= scale
            assert abs(surface.paging[0, d] - paging) <= scale
            assert abs(surface.total[0, d] - (update + paging)) <= scale


class TestSearchedRowIsTheSurfaceRow:
    @given(
        name=model_names,
        qc=probabilities,
        update_cost=st.floats(min_value=0.0, max_value=1e3),
        poll_cost=st.floats(min_value=0.1, max_value=50.0),
        convention=st.sampled_from(["paper", "physical"]),
        m=st.sampled_from([1, 2, 3, 7, math.inf]),
        d_max=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_search_scans_and_reports_the_surface_row(
        self, name, qc, update_cost, poll_cost, convention, m, d_max
    ):
        costs = CostParams(update_cost=update_cost, poll_cost=poll_cost)
        surface = compute_cost_surface(
            build_model(name, qc), costs, d_max, convention=convention,
            delays=(1, 2, 3, 7, math.inf),
        )
        k = surface.delay_index(m)
        evaluator = CostEvaluator(build_model(name, qc), costs, convention=convention)
        assert np.array_equal(evaluator.cost_curve(m, d_max), surface.total[k])
        solution = find_optimal_threshold(
            build_model(name, qc), costs, m, d_max=d_max, convention=convention
        )
        scanned = [solution.search.curve[d] for d in range(d_max + 1)]
        assert np.array_equal(scanned, surface.total[k])
        d = solution.threshold
        assert d == surface.argmin(m)
        breakdown = solution.breakdown
        assert (
            breakdown.update_cost,
            breakdown.paging_cost,
            breakdown.expected_polled_cells,
            breakdown.expected_delay,
        ) == (
            surface.update[d],
            surface.paging[k, d],
            surface.expected_cells[k, d],
            surface.expected_delay[k, d],
        )
