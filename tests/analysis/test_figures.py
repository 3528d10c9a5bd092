"""Tests for the Figure 4/5 reproductions and their shape checks."""

import math

import pytest

from repro.analysis import (
    check_figure_shape,
    compute_figure4,
    compute_figure5,
    gap_closure,
    log_sweep,
    threshold_jumps,
)

# Figure sweeps are moderately expensive; compute once per module with
# reduced resolution (the shape checks do not need 13 points).
POINTS = 7


@pytest.fixture(scope="module")
def fig4a():
    return compute_figure4(1, points=POINTS)


@pytest.fixture(scope="module")
def fig4b():
    return compute_figure4(2, points=POINTS)


@pytest.fixture(scope="module")
def fig5a():
    return compute_figure5(1, points=POINTS)


@pytest.fixture(scope="module")
def fig5b():
    return compute_figure5(2, points=POINTS)


class TestLogSweep:
    def test_endpoints_included(self):
        xs = log_sweep(0.001, 0.5, 10)
        assert xs[0] == pytest.approx(0.001)
        assert xs[-1] == pytest.approx(0.5)

    def test_log_spacing(self):
        xs = log_sweep(0.01, 1.0, 5)
        ratios = [xs[i + 1] / xs[i] for i in range(4)]
        for r in ratios:
            assert r == pytest.approx(ratios[0])

    @pytest.mark.parametrize("args", [(0, 1, 5), (0.5, 0.1, 5), (0.1, 1, 1)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            log_sweep(*args)


class TestFigureStructure:
    def test_fig4a_metadata(self, fig4a):
        assert fig4a.name == "figure4a"
        assert fig4a.x_label == "q"
        assert len(fig4a.x_values) == POINTS
        assert set(fig4a.curves) == {1, 2, 3, math.inf}

    def test_fig5b_metadata(self, fig5b):
        assert fig5b.name == "figure5b"
        assert fig5b.x_label == "c"

    def test_curve_labels(self, fig4a):
        assert fig4a.curve_label(1) == "max delay = 1"
        assert fig4a.curve_label(math.inf) == "no delay bound"

    def test_as_rows(self, fig4a):
        headers, rows = fig4a.as_rows()
        assert headers[0] == "q"
        assert len(rows) == POINTS
        # one cost + one threshold column per delay curve
        assert len(headers) == 1 + 2 * len(fig4a.curves)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            compute_figure4(3)


class TestPaperShapeClaims:
    """The qualitative results of Section 7 must hold in all four panels."""

    def test_fig4a_shape(self, fig4a):
        assert check_figure_shape(fig4a) == []

    def test_fig4b_shape(self, fig4b):
        assert check_figure_shape(fig4b) == []

    def test_fig5a_shape(self, fig5a):
        assert check_figure_shape(fig5a) == []

    def test_fig5b_shape(self, fig5b):
        assert check_figure_shape(fig5b) == []

    def test_cost_rises_with_q(self, fig4a):
        for ys in fig4a.curves.values():
            assert ys[-1] > ys[0]

    def test_cost_rises_with_c(self, fig5a):
        for ys in fig5a.curves.values():
            assert ys[-1] > ys[0]

    def test_delay_one_highest(self, fig4b):
        for i in range(len(fig4b.x_values)):
            assert fig4b.curves[1][i] >= fig4b.curves[math.inf][i] - 1e-12

    def test_2d_costs_exceed_1d(self, fig4a, fig4b):
        # The 2-D residing area has g(d) = 3d(d+1)+1 cells vs 2d+1:
        # paging the plane is strictly more expensive at every point
        # where the delay bound bites.
        for i in range(len(fig4a.x_values)):
            assert fig4b.curves[1][i] >= fig4a.curves[1][i] - 1e-12

    def test_fig5a_thresholds_jump(self, fig5a):
        # "Discontinuities appear in some curves due to the sudden
        # changes in the optimal threshold distances."
        assert threshold_jumps(fig5a) > 0

    def test_fig5b_delay_two_closes_the_gap_half_way(self, fig5b):
        # Conclusions: "a small increase of the maximum delay from 1 to
        # 2 polling cycles can lower the optimal cost to half way".
        assert gap_closure(fig5b, 2) >= 0.40

    def test_threshold_grows_with_mobility(self, fig4a):
        # Faster walkers need larger thresholds (unbounded delay case).
        thresholds = fig4a.thresholds[math.inf]
        assert thresholds[-1] >= thresholds[0]

    def test_shape_checker_flags_violations(self, fig4a):
        # Corrupt a copy: delay-1 curve made cheapest everywhere must
        # trip the ordering check.
        from repro.analysis.figures import FigureSeries

        broken = FigureSeries(
            name="broken",
            x_label="q",
            x_values=fig4a.x_values,
            curves={
                1: [0.0] * len(fig4a.x_values),
                2: fig4a.curves[2],
                3: fig4a.curves[3],
                math.inf: fig4a.curves[math.inf],
            },
            thresholds=fig4a.thresholds,
        )
        assert check_figure_shape(broken) != []
