"""Banded steady-state solver: correctness, cutover, and overflow horizon.

The dense triangular recursion computes unnormalized probabilities that
grow like ``prod(s_i / a_i) >= 2**d``, so it overflows float64 near
``d ~ 760``.  The banded path anchors ``p_0 = 1`` and solves the
tridiagonal balance system directly, which stays finite far past that
horizon -- these tests pin both the agreement regime (banded == dense
to ~1e-12) and the regime only the banded path can reach (d = 2000).
"""

import numpy as np
import pytest

from repro.core.batch import (
    BANDED_CUTOVER,
    banded_steady_state,
    batched_steady_states,
    compute_cost_surface,
)
from repro.core.models import (
    OneDimensionalModel,
    SquareGridModel,
    TwoDimensionalApproximateModel,
    TwoDimensionalModel,
)
from repro.core.parameters import CostParams, MobilityParams
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
