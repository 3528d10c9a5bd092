"""Unit tests for the cross-scheme tournament layer."""

import json
import math

import pytest

from repro.analysis.compare import SCHEMES, SchemeOutcome, run_tournament
from repro.analysis.sweep import MODEL_CLASSES
from repro.core.parameters import CostParams, MobilityParams
from repro.exceptions import ParameterError
from repro.observability import session
from repro.strategies import optimize_joint_policy

AXES = {"U": [20.0, 100.0], "m": [1, 2]}
POINT_KW = dict(q=0.2, c=0.02, poll_cost=10.0, d_max=25)


@pytest.fixture(scope="module")
def small_tournament():
    return run_tournament("1d", AXES, **POINT_KW)


@pytest.fixture(scope="module")
def tournaments(small_tournament):
    """The small tournament and one at the acceptance operating point
    (2d-exact, q=0.05, c=0.01, V=10, d_max=30)."""
    acceptance = run_tournament(
        "2d-exact", {"U": [50.0, 100.0], "m": [1, 3]},
        q=0.05, c=0.01, poll_cost=10.0, d_max=30,
    )
    return [small_tournament, acceptance]


class TestStructure:
    def test_grid_shape_and_axis_order(self, small_tournament):
        assert small_tournament.shape == (2, 2)
        assert [name for name, _ in small_tournament.axes] == ["U", "m"]
        assert len(small_tournament.points) == 4
        assert small_tournament.schemes == SCHEMES

    def test_every_point_has_all_schemes(self, small_tournament):
        for point in small_tournament.points:
            assert tuple(e.scheme for e in point.outcomes) == SCHEMES

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ParameterError):
            run_tournament("1d", AXES, schemes=["distance", "nope"], **POINT_KW)

    def test_scheme_subset_always_includes_distance(self):
        result = run_tournament("1d", AXES, schemes=["timer"], **POINT_KW)
        assert result.schemes == ("distance", "timer")
        for point in result.points:
            assert {e.scheme for e in point.outcomes} == {"distance", "timer"}


class TestWinnerMap:
    def test_winner_is_cheapest_scheme(self, tournaments):
        for point in (p for result in tournaments for p in result.points):
            cheapest = min(e.total_cost for e in point.outcomes)
            assert point.outcome(point.winner).total_cost <= cheapest + 1e-12

    def test_joint_dominates_distance_everywhere(self, tournaments):
        for point in (p for result in tournaments for p in result.points):
            joint = point.outcome("jointly-optimal").total_cost
            distance = point.outcome("distance").total_cost
            assert joint <= distance + 1e-9

    def test_winner_counts_cover_all_points(self, small_tournament):
        counts = small_tournament.winner_counts()
        assert set(counts) == set(SCHEMES)
        assert sum(counts.values()) == len(small_tournament.points)

    def test_cost_surface_matches_outcomes(self, small_tournament):
        surface = small_tournament.cost_surface("timer")
        assert surface == [
            p.outcome("timer").total_cost for p in small_tournament.points
        ]


class TestSerialization:
    def test_payload_is_json_safe_including_inf(self, tournaments):
        result = run_tournament("1d", {"m": [1, math.inf]}, **POINT_KW)
        payload = json.loads(json.dumps(result.to_payload()))
        assert payload["axes"] == [["m", [1, "inf"]]]
        assert payload["points"][1]["m"] == "inf"
        assert set(payload["winner_counts"]) == set(SCHEMES)
        for other in tournaments:
            json.dumps(other.to_payload())

    def test_rows_are_flat_and_complete(self, small_tournament):
        rows = small_tournament.rows()
        assert len(rows) == 4
        for row in rows:
            for scheme in SCHEMES:
                assert scheme in row
                assert f"{scheme}_param" in row
            assert row["winner"] in SCHEMES


class TestCaching:
    def test_cache_round_trip_identical(self, tmp_path):
        first = run_tournament("1d", AXES, cache_dir=tmp_path, **POINT_KW)
        second = run_tournament("1d", AXES, cache_dir=tmp_path, **POINT_KW)
        assert not first.from_cache
        assert second.from_cache
        assert first.points == second.points


class TestSolverWork:
    """A tournament solves each chain once, whatever the m axis."""

    @staticmethod
    def traced(**kwargs):
        with session() as obs:
            run_tournament(
                "2d-exact",
                {"m": [1, 2, 3, math.inf]},
                q=0.05,
                c=0.01,
                update_cost=100.0,
                poll_cost=10.0,
                d_max=100,
                **kwargs,
            )
        return [record.name for record in obs.tracer.records]

    def test_one_solve_cold_and_one_warm(self, tmp_path):
        cold = self.traced(cache_dir=tmp_path)
        warm = self.traced(cache_dir=tmp_path)
        # Cold, the joint leg reuses the model the distance sweep solved;
        # warm, the sweep solves nothing and the joint leg solves once.
        assert cold.count("analytic.batched_steady_states") == 1
        assert warm.count("analytic.batched_steady_states") == 1
        # One SDF surface per delay bound, all of them the sweep's: the
        # joint leg starts from the sweep's optimum and searches nothing.
        assert cold.count("analytic.compute_cost_surface") == 4
        assert warm.count("analytic.compute_cost_surface") == 0


class TestJointLegReuse:
    """The joint leg starts from the sweep's optimum, cold or cached, and
    returns what a standalone search returns at every point."""

    AXES = {"q": [0.05, 0.3], "U": [20.0, 100.0], "m": [1, 3, math.inf]}

    @pytest.mark.parametrize("model_name", ["1d", "2d-exact"])
    def test_joint_outcomes_equal_standalone_solves(self, model_name, tmp_path):
        for from_cache in (False, True):
            with session() as obs:
                result = run_tournament(
                    model_name, self.AXES, c=0.02, poll_cost=10.0, d_max=30,
                    cache_dir=tmp_path,
                )
            assert result.from_cache is from_cache
            # One solve per (q, c) chain: the sweep's, which the joint leg
            # reuses, or, from the cache, the joint leg's own.
            names = [record.name for record in obs.tracer.records]
            assert names.count("analytic.batched_steady_states") == 2
            for point in result.points:
                model = MODEL_CLASSES[model_name](MobilityParams(point.q, point.c))
                m = point.max_delay
                policy = optimize_joint_policy(
                    model,
                    CostParams(point.update_cost, point.poll_cost),
                    m if m == math.inf else int(m),
                    d_max=30,
                )
                assert point.outcome("jointly-optimal") == SchemeOutcome(
                    scheme="jointly-optimal",
                    parameter=policy.threshold,
                    update_cost=policy.update_cost,
                    paging_cost=policy.paging_cost,
                    detail=policy.plan.describe(),
                )


@pytest.mark.slow
class TestAllModels:
    @pytest.mark.parametrize("model_name", sorted(MODEL_CLASSES))
    def test_dominance_holds_on_every_model(self, model_name):
        result = run_tournament(
            model_name,
            {"q": [0.05, 0.3], "m": [1, 3]},
            c=0.02,
            update_cost=100.0,
            poll_cost=10.0,
            d_max=30,
        )
        for point in result.points:
            joint = point.outcome("jointly-optimal").total_cost
            distance = point.outcome("distance").total_cost
            assert joint <= distance + 1e-9
            assert point.outcome(point.winner).total_cost == pytest.approx(
                min(e.total_cost for e in point.outcomes)
            )
