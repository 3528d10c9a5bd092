"""The cost surface at the paper's operating points: Table 1's optima and
Section 6's local minima, on :func:`compute_cost_surface` curves."""

import math

import numpy as np
import pytest

from repro import (
    CostEvaluator,
    CostParams,
    MobilityParams,
    OneDimensionalModel,
    ParameterError,
    compute_cost_surface,
)


def trapping_minima(curve, tolerance=1e-9):
    """Thresholds where greedy descent stops although the curve's global
    minimum is lower by more than ``tolerance``."""
    values = np.asarray(curve)
    padded = np.concatenate(([np.inf], values, [np.inf]))
    local = (padded[:-2] >= values - 1e-12) & (padded[2:] >= values - 1e-12)
    return np.flatnonzero(local & (values > values.min() + tolerance)).tolist()


class TestComputeSurface:
    @pytest.fixture
    def surface(self):
        model = OneDimensionalModel(MobilityParams(0.05, 0.01))
        return compute_cost_surface(model, CostParams(100.0, 10.0), 20)

    def test_all_delays_present(self, surface):
        assert surface.delays == (1, 2, 3, math.inf)

    def test_curve_values_match_evaluator(self, surface):
        model = OneDimensionalModel(MobilityParams(0.05, 0.01))
        evaluator = CostEvaluator(model, CostParams(100.0, 10.0))
        assert surface.curve(2)[5] == pytest.approx(evaluator.total_cost(5, 2))

    def test_optimal_thresholds_match_table1(self, surface):
        # U=100 row of Table 1: d* = 3, 4, 5, 7 for delays 1, 2, 3, inf.
        assert surface.optimal_thresholds() == {1: 3, 2: 4, 3: 5, math.inf: 7}

    def test_unknown_delay_rejected(self, surface):
        with pytest.raises(ParameterError):
            surface.curve(7)

    def test_paper_claim_local_minima_exist_somewhere(self):
        # Section 6: "the total cost curve may have local minimum".
        # The SDF partition changes discontinuously with d, creating
        # distinct basins at some operating points; sweep a parameter
        # region and require a curve where greedy descent can be
        # trapped above the global optimum.
        assert trapping_minima([3.0, 1.5, 4.0, 1.0, 5.0]) == [1]
        assert trapping_minima([2.0, 3.0, 1.0]) == [0]  # an endpoint basin
        assert trapping_minima([3.0, 1.0, 2.0, 4.0]) == []  # unimodal
        assert trapping_minima([3.0, 1.0, 4.0, 1.0, 5.0]) == []  # tied basins
        assert trapping_minima([5.0, 2.0, 2.0, 2.0, 6.0]) == []  # a plateau
        found = False
        for U in (50, 100, 200, 400, 800):
            for q in (0.05, 0.2, 0.4):
                surface = compute_cost_surface(
                    OneDimensionalModel(MobilityParams(q, 0.01)),
                    CostParams(float(U), 10.0),
                    30,
                    delays=(2, 3, 4, 5),
                )
                if any(trapping_minima(surface.curve(m)) for m in surface.delays):
                    found = True
                    break
            if found:
                break
        assert found, "no multimodal cost curve found; Section 6's premise untested"
