"""Cross-backend oracles: agreement on healthy code, red on sabotage.

The analytic oracles are driven through broken model fixtures exactly
like the invariants.  The statistical engine oracles are proven
failable through their module-level comparison helpers
(:func:`replicated_agreement`, :func:`bitwise_agreement`) fed genuinely
mismatched simulation runs -- same code path the checks use, without
simulating a deliberately-broken engine.
"""

import math
from functools import partial

import pytest

from repro import CostParams, MobilityParams
from repro.conformance import REGISTRY, bitwise_agreement, replicated_agreement
from repro.simulation import run_replicated
from repro.strategies import DistanceStrategy

from .broken import MethodSkewedModel, SkewedSteadyModel, make_config

ANALYTIC_ORACLES = (
    "steady-closed-vs-recursive",
    "steady-recursive-vs-matrix",
    "steady-batched-vs-scalar",
    "cost-curve-batched-vs-scalar",
    "surface-vs-breakdown",
    "optimal-threshold-consistency",
)


def run(check_id, config):
    return REGISTRY.get(check_id).run(config)


@pytest.mark.parametrize("check_id", ANALYTIC_ORACLES)
@pytest.mark.parametrize("model_name", ["1d", "2d-exact", "square-approx"])
def test_analytic_oracles_agree_on_real_models(check_id, model_name):
    result = run(check_id, make_config(model_name=model_name, m=3))
    if check_id == "steady-closed-vs-recursive" and model_name == "2d-exact":
        # The exact hex chain has no closed form; covered below.
        assert result.status == "skip"
        return
    assert result.status == "pass", (check_id, result.detail)


def test_closed_form_oracle_skips_models_without_one():
    # The exact 2-D chains have no closed form: the oracle must skip,
    # not crash.
    result = run("steady-closed-vs-recursive", make_config(model_name="2d-exact"))
    assert result.status == "skip"


class TestAnalyticOraclesFail:
    def test_closed_vs_recursive_catches_method_skew(self):
        result = run(
            "steady-closed-vs-recursive",
            make_config(model_factory=MethodSkewedModel),
        )
        assert result.status == "fail"
        assert result.deviation > 1e-3

    def test_recursive_vs_matrix_catches_method_skew(self):
        result = run(
            "steady-recursive-vs-matrix",
            make_config(model_factory=MethodSkewedModel),
        )
        assert result.status == "fail"

    def test_batched_vs_scalar_catches_skewed_solver(self):
        # The batched prefix-sum solve derives from the transition
        # rates and stays correct; the skewed per-threshold solver
        # cannot hide behind it.
        result = run(
            "steady-batched-vs-scalar",
            make_config(model_factory=SkewedSteadyModel),
        )
        assert result.status == "fail"

    @pytest.mark.parametrize(
        "check_id",
        ["cost-curve-batched-vs-scalar", "surface-vs-breakdown",
         "optimal-threshold-consistency"],
    )
    def test_cost_pipelines_catch_skewed_solver(self, check_id):
        result = run(check_id, make_config(model_factory=SkewedSteadyModel))
        assert result.status == "fail", (check_id, result.detail)


class TestEngineOracleGating:
    @pytest.mark.parametrize(
        "check_id",
        ["engine-vs-vectorized", "engine-vs-resilient-nofault", "serial-vs-pooled"],
    )
    def test_skip_without_simulation_budget(self, check_id):
        assert run(check_id, make_config()).status == "skip"

    def test_pooled_oracle_needs_a_pool(self):
        config = make_config(sim_slots=2_000, pool_workers=0)
        assert run("serial-vs-pooled", config).status == "skip"


class TestFleetOracles:
    @pytest.mark.parametrize(
        "check_id",
        ["fleet-sharded-vs-single", "fleet-pooled-vs-inprocess"],
    )
    def test_skip_without_simulation_budget(self, check_id):
        assert run(check_id, make_config()).status == "skip"

    def test_pooled_fleet_oracle_needs_a_pool(self):
        config = make_config(sim_slots=2_000, pool_workers=0)
        assert run("fleet-pooled-vs-inprocess", config).status == "skip"

    @pytest.mark.parametrize("model_name", ["1d", "2d-exact", "square-approx"])
    def test_sharded_vs_single_agrees_on_real_models(self, model_name):
        config = make_config(model_name=model_name, sim_slots=2_000)
        result = run("fleet-sharded-vs-single", config)
        assert result.status == "pass", result.detail
        assert result.deviation == 0.0

    def test_pooled_vs_inprocess_is_bit_identical(self):
        config = make_config(sim_slots=2_000, pool_workers=2)
        result = run("fleet-pooled-vs-inprocess", config)
        assert result.status == "pass", result.detail
        assert result.deviation == 0.0


def _replicated(d, seed, slots=6_000, replications=3):
    from repro.geometry import LineTopology

    return run_replicated(
        topology=LineTopology(),
        strategy_factory=partial(DistanceStrategy, d, max_delay=2),
        mobility=MobilityParams(0.2, 0.02),
        costs=CostParams(50.0, 10.0),
        slots=slots,
        replications=replications,
        seed=seed,
    )


class TestAgreementHelpers:
    def test_replicated_agreement_accepts_identical_runs(self):
        a = _replicated(d=2, seed=5)
        assert replicated_agreement(a, a).value == 0.0

    def test_replicated_agreement_rejects_different_policies(self):
        # d = 0 vs d = 4 are different operating points with very
        # different total costs: far outside both the joint CI and the
        # 5% band.
        deviation = replicated_agreement(_replicated(0, seed=5), _replicated(4, seed=5))
        assert deviation.value > 1.0

    def test_bitwise_agreement_is_exact_for_identical_runs(self):
        a = _replicated(d=2, seed=7)
        b = _replicated(d=2, seed=7)
        assert bitwise_agreement(a, b).value == 0.0

    def test_bitwise_agreement_catches_reseeded_run(self):
        deviation = bitwise_agreement(_replicated(2, seed=7), _replicated(2, seed=8))
        assert deviation.value > 0.0

    def test_bitwise_agreement_catches_replication_count_mismatch(self):
        a = _replicated(2, seed=7, replications=2)
        b = _replicated(2, seed=7, replications=3)
        assert bitwise_agreement(a, b).value == math.inf
