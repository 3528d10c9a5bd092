"""Banded steady-state solver: correctness, cutover, and overflow horizon.

The scalar backward recursion computes unnormalized probabilities that
grow like ``prod(s_i / a_{i-1}) >= 2**d``, so it overflows float64 near
``d ~ 760`` -- and far earlier when calls dominate moves.  The banded
path anchors ``p_0 = 1`` and solves the tridiagonal balance system
directly, which stays finite far past that horizon -- these tests pin
the agreement regime (banded == recursion to ~1e-12), the regime only
the banded path can reach (d = 2000), the rule by which the scalar
default picks between them, and the batched prefix-sum path against
banded rows.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.batch import (
    banded_steady_state,
    batched_steady_states,
    compute_cost_surface,
)
from repro.core.models import (
    BANDED_CUTOVER,
    OneDimensionalModel,
    SquareGridModel,
    TwoDimensionalApproximateModel,
    TwoDimensionalModel,
    dense_recursion_fits,
)
from repro.core.parameters import CostParams, MobilityParams
from repro.core.threshold import find_optimal_threshold
from repro.exceptions import SolverError
from repro.paging import sdf_partition

MOBILITY = MobilityParams(move_probability=0.1, call_probability=0.02)
MODELS = (
    OneDimensionalModel(MOBILITY),
    TwoDimensionalModel(MOBILITY),
    TwoDimensionalApproximateModel(MOBILITY),
    SquareGridModel(MOBILITY),
)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("d", [0, 1, 2, 5, 17, 60])
def test_banded_matches_recursive(model, d):
    banded = banded_steady_state(model, d)
    recursive = model.steady_state(d, method="recursive")
    np.testing.assert_allclose(banded, recursive, rtol=0, atol=1e-12)
    assert banded.sum() == pytest.approx(1.0)


def test_banded_d_zero_is_degenerate():
    pi = banded_steady_state(MODELS[0], 0)
    assert pi.shape == (1,)
    assert pi[0] == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_banded_survives_past_dense_overflow_horizon():
    model = TwoDimensionalModel(MOBILITY)
    with pytest.raises(SolverError):
        model.steady_state(2000, method="recursive")
    pi = banded_steady_state(model, 2000)
    assert pi.shape == (2001,)
    assert np.all(np.isfinite(pi))
    assert np.all(pi >= 0)
    assert pi.sum() == pytest.approx(1.0)


def test_steady_state_method_banded_and_auto_cutover():
    model = TwoDimensionalModel(MOBILITY)
    via_method = model.steady_state(7, method="banded")
    np.testing.assert_allclose(via_method, model.steady_state(7), atol=1e-12)
    # The default solver routes d > BANDED_CUTOVER through the banded
    # path automatically, so a depth the recursion cannot reach works.
    deep = model.steady_state(BANDED_CUTOVER + 300)
    assert np.all(np.isfinite(deep))


def test_batched_matches_banded_rows():
    model = SquareGridModel(MOBILITY)
    batched = batched_steady_states(model, 40)
    for d in range(41):
        np.testing.assert_allclose(
            batched[d, : d + 1], banded_steady_state(model, d), rtol=0, atol=1e-12
        )


def test_batched_auto_cutover_reaches_deep_chains():
    model = TwoDimensionalApproximateModel(MOBILITY)
    d_max = BANDED_CUTOVER + 100
    pi = batched_steady_states(model, d_max)
    assert pi.shape == (d_max + 1, d_max + 1)
    rows = pi.sum(axis=1)
    np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-9)


def banded_costs(model, costs, d_max, m):
    """``(C_u, C_v)`` of every threshold from per-threshold banded rows."""
    update, paging = np.empty(d_max + 1), np.empty(d_max + 1)
    for d in range(d_max + 1):
        p = banded_steady_state(model, d)
        update[d] = p[d] * model.update_rate(d) * costs.update_cost
        cells = sdf_partition(d, m).expected_polled_cells(model.topology, p)
        paging[d] = model.c * costs.poll_cost * cells
    return update, paging


def test_surface_solver_equivalence():
    model = TwoDimensionalModel(MOBILITY)
    costs = CostParams(update_cost=50.0, poll_cost=5.0)
    surface = compute_cost_surface(model, costs, d_max=25, delays=(1, 3))
    for k, m in enumerate(surface.delays):
        update, paging = banded_costs(model, costs, 25, m)
        np.testing.assert_allclose(surface.update, update, rtol=0, atol=1e-9)
        np.testing.assert_allclose(surface.paging[k], paging, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            surface.total[k], update + paging, rtol=0, atol=1e-9
        )


class TestAutoCutover:
    """The scalar default takes the backward recursion only where its
    magnitude bound ``prod(s_i / a_{i-1})`` stays below ``1e300``; the
    batched path needs no such rule."""

    def test_often_called_slow_walker_steady_state(self):
        model = TwoDimensionalModel(MobilityParams(1e-4, 0.1))
        pi = model.steady_state(100)
        np.testing.assert_allclose(
            pi, model.steady_state(100, method="banded"), rtol=0, atol=1e-12
        )

    def test_often_called_slow_walker_threshold_search(self):
        model = OneDimensionalModel(MobilityParams(3e-4, 0.2))
        costs = CostParams(100.0, 10.0)
        solution = find_optimal_threshold(model, costs, 1, d_max=100)
        update, paging = banded_costs(model, costs, 100, 1)
        curve = np.array([solution.search.curve[d] for d in range(101)])
        np.testing.assert_allclose(curve, update + paging, rtol=1e-11, atol=0)
        assert solution.total_cost == curve.min()

    def test_often_called_slow_walker_sweep_cli(self, capsys):
        code = main(
            ["sweep", "--model", "1d", "--q", "0.0003", "--c", "0.2",
             "--vary", "U=100", "--no-cache"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "error" not in captured.err

    def test_rule_flags_exactly_the_overflowing_chains(self):
        model = OneDimensionalModel(MobilityParams(3e-4, 0.2))
        a, b = model.transition_rates(100)
        assert not dense_recursion_fits(a, b, model.c)
        with pytest.raises(SolverError), np.errstate(all="ignore"):
            model.steady_state(100, method="recursive")
        a, b = model.transition_rates(60)
        assert dense_recursion_fits(a, b, model.c)
        model.steady_state(60, method="recursive")

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_everyday_chains_stay_dense(self, model):
        a, b = model.transition_rates(BANDED_CUTOVER)
        assert dense_recursion_fits(a, b, model.c)
        a, b = model.transition_rates(BANDED_CUTOVER + 1)
        assert not dense_recursion_fits(a, b, model.c)
