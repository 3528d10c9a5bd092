"""Each ablation and extension experiment gates its headline result.

Every experiment of :data:`repro.analysis.experiments.EXPERIMENTS` runs
once per session (about 70 s in all), and every test fails when the
committed ``results/<id>.txt`` is not what the experiment renders.
"""

import math
from pathlib import Path

import pytest

from repro import CostParams, MobilityParams, TwoDimensionalModel, find_optimal_threshold
from repro.analysis.experiments import EXPERIMENTS, OPT_D_MAX

pytestmark = pytest.mark.slow

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.fixture(scope="module")
def outcome():
    """``outcome(id)``: the experiment's results, computed on first use."""
    computed = {}

    def get(experiment_id):
        if experiment_id not in computed:
            computed[experiment_id] = EXPERIMENTS[experiment_id].compute()
        return computed[experiment_id]

    return get


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_committed_report_is_what_the_experiment_renders(outcome, experiment_id):
    text = EXPERIMENTS[experiment_id].render(outcome(experiment_id))
    assert (text + "\n").encode() == (RESULTS / f"{experiment_id}.txt").read_bytes(), (
        f"results/{experiment_id}.txt is stale; regenerate it with 'repro-lm reproduce'"
    )


def test_abl_solver_solvers_agree_with_the_matrix_solve(outcome):
    result = outcome("abl-solver")
    assert result["worst_1d"] < 1e-10
    assert result["worst_2d"] < 1e-10


def test_abl_opt_annealing_tracks_the_exhaustive_optimum(outcome):
    result = outcome("abl-opt")
    assert result["regret"] < 0.05
    for row in result["rows"]:
        assert row[2] <= OPT_D_MAX


def test_abl_part_dp_partition_never_loses_to_sdf(outcome):
    result = outcome("abl-part")
    for row in result["rows"]:
        e_blanket, e_sdf, e_opt = row[2], row[3], row[4]
        assert e_opt <= e_sdf + 1e-9 <= e_blanket + 1e-9
    # SDF's gamma = floor((d+1)/l) can make the first subarea far larger
    # than its probability mass warrants: gate the envelope.
    assert result["worst_gap"] < 0.75


def test_abl_baseline_distance_beats_the_baselines(outcome):
    cost = {
        name: r.mean_total_cost for name, r in outcome("abl-baseline")["results"].items()
    }
    distance = cost["distance(d*)"]
    assert distance < cost["movement(M=d*)"]
    assert distance < cost["timer(T=d*/q)"]
    assert distance < cost["location-area(d*)"]
    # Dynamic adaptation lands within 15% of the static optimum.
    assert cost["dynamic"] < distance * 1.15


def test_abl_analytic_distance_loses_only_where_calls_dominate(outcome):
    result = outcome("abl-analytic")
    assert result["violations"] == []
    # In the paper's own regime (q >= 5c, like Table 1) distance wins.
    for q, c, name in result["losses"]:
        assert q < 5 * c, f"distance lost to {name} in the paper's regime (q={q}, c={c})"


def test_abl_crossover_distance_holds_the_mobility_dominated_region(outcome):
    maps = outcome("abl-crossover")
    delay1 = maps[1]
    assert delay1.share("timer") == 0.0
    assert delay1.share("location-area") == 0.0
    assert delay1.winner_at(len(delay1.q_values) - 1, 0) == "distance"
    assert delay1.share("distance") > 0.4
    assert maps[2].share("distance") >= delay1.share("distance")


def test_ext_square_chain_tracks_the_grid_simulation(outcome):
    assert max(row[-1] for row in outcome("ext-square")) < 0.05


def test_ext_soft_frontier_spans_the_hard_delay_limits(outcome):
    rows = outcome("ext-soft")
    delays = [row[2] for row in rows]
    assert delays == sorted(delays, reverse=True)
    signaling = [row[3] for row in rows]
    assert signaling == sorted(signaling)
    # Penalty 0 is the unbounded hard delay; a huge penalty is the blanket.
    model = TwoDimensionalModel(MobilityParams(0.2, 0.02))
    costs = CostParams(50.0, 5.0)
    unbounded = find_optimal_threshold(model, costs, math.inf, d_max=30)
    blanket = find_optimal_threshold(model, costs, 1, d_max=30)
    assert rows[0][1] == unbounded.threshold
    assert rows[-1][1] == blanket.threshold


def test_ext_transient_cost_converges_from_below(outcome):
    for row in outcome("ext-transient"):
        assert row[4] <= 3000  # converged within the horizon
        assert row[5] <= row[6] + 1e-12  # a fresh fix is never pricier


def test_ext_robust_bursty_traffic_never_hurts_the_tuned_policy(outcome):
    result = outcome("ext-robust")
    for row in result["rows"]:
        base, bursty = row[3], row[4]
        assert bursty <= base * 1.05, "bursty traffic made the tuned policy pricier"
    assert result["worst_bursty"] < 0.20
    assert result["worst_indep"] < 0.05


def test_ext_channel_capacity_caps_the_delay_bound(outcome):
    populations = outcome("ext-channel")
    for points in populations.values():
        costs = [p.per_terminal_cost for p in points]
        assert costs == sorted(costs, reverse=True)
        utilizations = [p.utilization for p in points]
        assert utilizations == sorted(utilizations)
    sizes = list(populations)
    # Small populations afford any delay bound; large ones cannot
    # afford the per-terminal optimum.
    assert all(p.feasible for p in populations[sizes[0]])
    assert not all(p.feasible for p in populations[sizes[-1]])


def test_ext_fleet_per_user_tuning_pays_in_the_tail(outcome):
    plan = outcome("ext-fleet")
    quantiles = plan.regret_quantiles((0.5, 0.9, 0.99))
    assert plan.fleet_saving > 0.05
    assert quantiles[0.99] > 2 * quantiles[0.5]
    for user in plan.users:
        assert user.personal_cost <= user.shared_cost + 1e-12


def test_ext_persist_model_error_grows_with_persistence(outcome):
    errors = [row[-1] for row in outcome("ext-persist")]
    assert abs(errors[0]) < 0.05  # memoryless: the model holds
    assert errors[-1] > 0.15  # vehicle-like: the model is badly optimistic
    assert errors[-1] > errors[0]
    for error in errors[1:]:
        assert error > -0.02  # it only ever underestimates


def test_ext_sens_regret_is_cheap_along_the_ratio(outcome):
    surface = outcome("ext-sens")
    assert surface[1.0][1.0].regret == pytest.approx(0.0, abs=1e-12)
    for factor in (0.5, 2.0, 4.0):
        assert surface[factor][factor].regret < 0.10
    assert surface[2.0][1.0].regret < 0.20
    assert surface[1.0][2.0].regret < 0.20
    for row in surface.values():
        for point in row.values():
            assert point.regret >= -1e-12


def test_ext_fail_update_loss_degrades_gracefully(outcome):
    rows = outcome("ext-fail")
    costs = [row[1] for row in rows]
    assert costs == sorted(costs)
    assert costs[-1] < 2.0 * costs[0]  # graceful at 50% loss
    delays = [row[2] for row in rows]
    assert delays[-1] > delays[0]  # recoveries stretch the average delay
