"""Tests for the multi-axis grid sweep and its on-disk result cache."""

import json
import math

import pytest

from repro.analysis.sweep import (
    GridSweepResult,
    grid_sweep,
    sweep,
)
from repro.cli import main
from repro.exceptions import ParameterError
from repro.observability import session
from repro.paging import per_ring_partition


class TestGridShape:
    def test_cartesian_row_major_order(self):
        result = grid_sweep(
            "2d-approx", {"U": [20.0, 50.0], "m": [1, 2]}, d_max=15
        )
        assert result.shape == (2, 2)
        combos = [(p.update_cost, p.max_delay) for p in result.points]
        assert combos == [(20.0, 1.0), (20.0, 2.0), (50.0, 1.0), (50.0, 2.0)]

    def test_axes_are_canonically_ordered(self):
        # Supplied m-then-q; canonical order is q-then-m, and the point
        # layout follows the canonical order, not the mapping order.
        result = grid_sweep(
            "1d", {"m": [1, 2], "q": [0.05, 0.1, 0.2]}, d_max=12
        )
        assert [name for name, _ in result.axes] == ["q", "m"]
        assert result.shape == (3, 2)
        assert [p.q for p in result.points] == pytest.approx(
            [0.05, 0.05, 0.1, 0.1, 0.2, 0.2]
        )

    def test_axis_values_and_series(self):
        result = grid_sweep("1d", {"q": [0.05, 0.1]}, d_max=12)
        assert result.axis_values("q") == (0.05, 0.1)
        assert len(result.series("total_cost")) == 2
        with pytest.raises(ParameterError, match="not varied"):
            result.axis_values("U")

    def test_inf_delay_axis(self):
        result = grid_sweep("2d-approx", {"m": [1, math.inf]}, d_max=15)
        assert result.points[1].max_delay == math.inf

    def test_unknown_model_and_axis_rejected(self):
        with pytest.raises(ParameterError, match="unknown model"):
            grid_sweep("3d", {"q": [0.1]})
        with pytest.raises(ParameterError, match="unknown sweep parameter"):
            grid_sweep("1d", {"radius": [1.0]})
        with pytest.raises(ParameterError, match="at least one axis"):
            grid_sweep("1d", {})
        with pytest.raises(ParameterError, match="no values"):
            grid_sweep("1d", {"q": []})
        with pytest.raises(ParameterError, match="finite"):
            grid_sweep("1d", {"U": [math.inf]}, d_max=5)

    def test_non_integer_delay_rejected(self):
        with pytest.raises(ParameterError, match="positive int"):
            grid_sweep("1d", {"m": [1.5]}, d_max=5)


class TestWorkers:
    def test_pooled_equals_serial(self):
        axes = {"U": [50.0, 100.0], "m": [1, math.inf]}
        serial = grid_sweep("2d-approx", axes, d_max=15)
        pooled = grid_sweep("2d-approx", axes, d_max=15, workers=2)
        assert pooled.points == serial.points

    def test_unpicklable_plan_factory_rejected(self):
        factory = lambda model, d, m: per_ring_partition(d)  # noqa: E731
        with pytest.raises(ParameterError, match="picklable"):
            grid_sweep(
                "1d", {"q": [0.05, 0.1]}, d_max=8,
                plan_factory=factory, workers=2,
            )

    def test_bad_workers_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            grid_sweep("1d", {"q": [0.05]}, d_max=5, workers=0)

    def test_pooled_sweep_exports_the_serial_metrics_and_spans(self):
        axes = {"U": [10.0, 20.0, 50.0], "m": [1, 2]}
        exported = {}
        for workers in (None, 2):
            with session() as obs:
                grid_sweep("2d-exact", axes, d_max=30, workers=workers)
            records = obs.tracer.records
            (root,) = [r for r in records if r.name == "analysis.grid_sweep"]
            points = sorted(
                r.metadata["point"] for r in records if r.parent_id == root.span_id
            )
            assert points == list(range(6))
            surfaces = [r for r in records if r.name == "analytic.compute_cost_surface"]
            exported[workers] = (
                obs.registry.total("analytic_solves_total"), len(surfaces)
            )
        assert exported[None] == (6.0, 6)
        assert exported[2] == exported[None]


class TestCache:
    AXES = {"q": [0.05, 0.1], "m": [1, math.inf]}

    def test_roundtrip(self, tmp_path):
        first = grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)
        second = grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)
        assert not first.from_cache
        assert second.from_cache
        assert second.points == first.points
        assert len(list(tmp_path.glob("grid-*.json"))) == 1

    def test_different_parameters_use_different_entries(self, tmp_path):
        grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)
        other = grid_sweep("1d", self.AXES, d_max=14, cache_dir=tmp_path)
        assert not other.from_cache
        assert len(list(tmp_path.glob("grid-*.json"))) == 2

    def test_schema_version_mismatch_refused(self, tmp_path):
        grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)
        entry = next(tmp_path.glob("grid-*.json"))
        payload = json.loads(entry.read_text())
        payload["fingerprint"]["version"] = 99
        entry.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="schema version"):
            grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)

    def test_fingerprint_tamper_refused(self, tmp_path):
        grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)
        entry = next(tmp_path.glob("grid-*.json"))
        payload = json.loads(entry.read_text())
        payload["fingerprint"]["d_max"] = 13
        entry.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="different sweep"):
            grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)

    def test_corrupt_entry_refused(self, tmp_path):
        grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)
        entry = next(tmp_path.glob("grid-*.json"))
        entry.write_text("{not json")
        with pytest.raises(ParameterError, match="unreadable"):
            grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)

    MALFORMED = pytest.mark.parametrize(
        "mangle",
        [
            lambda payload: [],
            lambda payload: {"fingerprint": 3},
            lambda payload: {"fingerprint": payload["fingerprint"]},
            lambda payload: {**payload, "points": [{"q": 0.05}]},
            lambda payload: {**payload, "points": 7},
        ],
        ids=["array", "scalar-fingerprint", "no-points",
             "point-missing-key", "scalar-points"],
    )

    @MALFORMED
    def test_malformed_entry_refused(self, tmp_path, mangle):
        grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)
        entry = next(tmp_path.glob("grid-*.json"))
        entry.write_text(json.dumps(mangle(json.loads(entry.read_text()))))
        with pytest.raises(ParameterError, match="malformed sweep cache entry"):
            grid_sweep("1d", self.AXES, d_max=12, cache_dir=tmp_path)

    @MALFORMED
    def test_cli_exits_2_on_malformed_entry(self, tmp_path, capsys, mangle):
        argv = ["sweep", "--model", "1d", "--vary", "q=0.05,0.1",
                "--d-max", "12", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        entry = next(tmp_path.glob("grid-*.json"))
        entry.write_text(json.dumps(mangle(json.loads(entry.read_text()))))
        capsys.readouterr()
        assert main(argv) == 2
        assert "malformed sweep cache entry" in capsys.readouterr().err

    def test_custom_plan_factory_bypasses_cache(self, tmp_path):
        def factory(model, d, m):
            return per_ring_partition(d)

        first = grid_sweep(
            "1d", {"q": [0.05]}, d_max=8,
            plan_factory=factory, cache_dir=tmp_path,
        )
        second = grid_sweep(
            "1d", {"q": [0.05]}, d_max=8,
            plan_factory=factory, cache_dir=tmp_path,
        )
        assert not first.from_cache and not second.from_cache
        assert list(tmp_path.iterdir()) == []

    def test_cached_inf_delay_restored(self, tmp_path):
        grid_sweep("2d-approx", {"m": [1, math.inf]}, d_max=12,
                   cache_dir=tmp_path)
        warm = grid_sweep("2d-approx", {"m": [1, math.inf]}, d_max=12,
                          cache_dir=tmp_path)
        assert warm.from_cache
        assert warm.points[1].max_delay == math.inf


class TestSweepWrapper:
    def test_sweep_matches_grid_sweep(self):
        legacy = sweep("2d-approx", "U", [20.0, 50.0], d_max=15)
        grid = grid_sweep("2d-approx", {"U": [20.0, 50.0]}, d_max=15)
        assert isinstance(grid, GridSweepResult)
        assert legacy.points == list(grid.points)
        assert legacy.varied == "U"
        assert legacy.model_name == "2d-approx"

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(ParameterError, match="varied must be"):
            sweep("1d", "x", [1.0])


def _poisoned_plan_factory(model, d, m):
    """Module-level so the pooled path can pickle it into workers."""
    if d >= 1:
        raise ValueError("poisoned partition")
    return per_ring_partition(d)


class TestSweepPointError:
    """A failing grid point must surface *which* point failed.

    Regression: the worker fan-out used to re-raise the bare original
    exception from ``future.result()``, masking the failing point's
    parameters entirely.
    """

    AXES = {"q": [0.05, 0.1], "U": [20.0, 50.0]}

    def assert_carries_point(self, excinfo):
        from repro.exceptions import SweepPointError

        error = excinfo.value
        assert isinstance(error, SweepPointError)
        assert set(error.point) == {"index", "model", "q", "c", "U", "V", "m"}
        assert error.point["model"] == "1d"
        assert error.point["q"] in (0.05, 0.1)
        assert error.point["U"] in (20.0, 50.0)
        # The original failure stays chained for the full traceback.
        assert "poisoned partition" in str(error)

    def test_serial_failure_names_the_point(self):
        from repro.exceptions import SweepPointError

        with pytest.raises(SweepPointError) as excinfo:
            grid_sweep(
                "1d", self.AXES, d_max=8, plan_factory=_poisoned_plan_factory
            )
        self.assert_carries_point(excinfo)
        assert excinfo.value.__cause__ is not None

    def test_pooled_failure_names_the_point(self):
        from repro.exceptions import SweepPointError

        with pytest.raises(SweepPointError) as excinfo:
            grid_sweep(
                "1d", self.AXES, d_max=8,
                plan_factory=_poisoned_plan_factory, workers=2,
            )
        self.assert_carries_point(excinfo)

    def test_pickle_roundtrip_keeps_the_point(self):
        import pickle

        from repro.exceptions import SweepPointError

        original = SweepPointError("boom", {"index": 3, "q": 0.1})
        clone = pickle.loads(pickle.dumps(original))
        assert clone.point == {"index": 3, "q": 0.1}
        assert str(clone) == "boom"
