"""Banded steady-state solver: correctness, cutover, and overflow horizon.

The dense triangular recursion computes unnormalized probabilities that
grow like ``prod(s_i / a_{i-1}) >= 2**d``, so it overflows float64 near
``d ~ 760`` -- and far earlier when calls dominate moves.  The banded
path anchors ``p_0 = 1`` and solves the tridiagonal balance system
directly, which stays finite far past that horizon -- these tests pin
both the agreement regime (banded == dense to ~1e-12), the regime only
the banded path can reach (d = 2000), and the ``method="auto"`` rule
that picks between them.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.batch import (
    BANDED_CUTOVER,
    banded_steady_state,
    batched_steady_states,
    compute_cost_surface,
    dense_recursion_fits,
)
from repro.core.models import (
    OneDimensionalModel,
    SquareGridModel,
    TwoDimensionalApproximateModel,
    TwoDimensionalModel,
)
from repro.core.parameters import CostParams, MobilityParams
from repro.core.threshold import find_optimal_threshold
from repro.exceptions import ParameterError, SolverError

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


def test_batched_banded_matches_dense():
    model = SquareGridModel(MOBILITY)
    dense = batched_steady_states(model, 40, method="dense")
    banded = batched_steady_states(model, 40, method="banded")
    np.testing.assert_allclose(banded, dense, rtol=0, atol=1e-12)


def test_batched_auto_cutover_reaches_deep_chains():
    model = TwoDimensionalApproximateModel(MOBILITY)
    d_max = BANDED_CUTOVER + 100
    pi = batched_steady_states(model, d_max)
    assert pi.shape == (d_max + 1, d_max + 1)
    rows = pi.sum(axis=1)
    np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-9)


def test_batched_rejects_unknown_method():
    with pytest.raises(ParameterError, match="solver"):
        batched_steady_states(MODELS[0], 5, method="cholesky")


def test_surface_solver_equivalence():
    model = TwoDimensionalModel(MOBILITY)
    costs = CostParams(update_cost=50.0, poll_cost=5.0)
    dense = compute_cost_surface(model, costs, d_max=25, delays=(1, 3),
                                 solver="dense")
    banded = compute_cost_surface(model, costs, d_max=25, delays=(1, 3),
                                  solver="banded")
    np.testing.assert_allclose(banded.total, dense.total, rtol=0, atol=1e-9)
    np.testing.assert_allclose(banded.update, dense.update, rtol=0, atol=1e-9)
    np.testing.assert_allclose(banded.paging, dense.paging, rtol=0, atol=1e-9)


class TestAutoCutover:
    """``method="auto"`` takes the dense recursion only where its
    magnitude bound ``prod(s_i / a_{i-1})`` stays below ``1e300``."""

    def test_often_called_slow_walker_steady_state(self):
        model = TwoDimensionalModel(MobilityParams(1e-4, 0.1))
        pi = model.steady_state(100)
        np.testing.assert_allclose(
            pi, model.steady_state(100, method="banded"), rtol=0, atol=1e-12
        )

    def test_often_called_slow_walker_threshold_search(self):
        model = OneDimensionalModel(MobilityParams(3e-4, 0.2))
        solution = find_optimal_threshold(
            model, CostParams(100.0, 10.0), 1, d_max=100
        )
        assert np.isfinite(solution.total_cost)
        assert model._batched_steady.method == "banded"

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
            batched_steady_states(model, 100, method="dense")
        a, b = model.transition_rates(60)
        assert dense_recursion_fits(a, b, model.c)
        batched_steady_states(model, 60, method="dense")

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_everyday_chains_stay_dense(self, model):
        a, b = model.transition_rates(BANDED_CUTOVER)
        assert dense_recursion_fits(a, b, model.c)
        a, b = model.transition_rates(BANDED_CUTOVER + 1)
        assert not dense_recursion_fits(a, b, model.c)
