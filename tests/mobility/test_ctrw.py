"""Unit tests for CTRW walkers, specs, and residence distributions."""

import math
import pickle

import numpy as np
import pytest

from repro import ParameterError
from repro.mobility import (
    CTRWSpec,
    CTRWWalk,
    DeterministicResidence,
    GeometricResidence,
    HyperexponentialResidence,
    TruncatedParetoResidence,
    mobility_preset,
    residence_from_spec,
)
from repro.mobility import residence as residence_module
from repro.mobility.ctrw import MOBILITY_PRESETS


#: One of each residence kind, away from the degenerate rates whose
#: inverse CDF reads no uniform at all.
RESIDENCES = (
    GeometricResidence(0.3),
    DeterministicResidence(4),
    HyperexponentialResidence.fit(5.0, 6.0),
    TruncatedParetoResidence(1.4, 1.0, 100.0),
)


class TestResidenceDistributions:
    def test_every_kind_is_covered(self):
        assert {r.kind for r in RESIDENCES} == set(residence_module._KINDS)

    @pytest.mark.parametrize("residence", RESIDENCES, ids=lambda r: r.kind)
    def test_declared_uniforms_are_the_ones_read(self, residence):
        # The array engines hash only the declared streams: NaN in an
        # undeclared argument must not reach the draws, and in a
        # declared one it must.
        assert residence.uniforms == tuple(
            name for name in ("u_branch", "u_value") if name in residence.uniforms
        )
        rng = np.random.default_rng(2)
        uniforms = {"u_branch": rng.random(500), "u_value": rng.random(500)}
        draws = residence.from_uniforms(**uniforms)
        for name in uniforms:
            with np.errstate(invalid="ignore"):
                poisoned = residence.from_uniforms(
                    **{**uniforms, name: np.full(500, np.nan)}
                )
            assert np.array_equal(poisoned, draws) == (name not in residence.uniforms)

    def test_geometric_moments(self):
        r = GeometricResidence(0.25)
        assert r.mean() == pytest.approx(4.0)
        assert r.variance() == pytest.approx((1 - 0.25) / 0.25**2)

    def test_deterministic_moments(self):
        r = DeterministicResidence(7)
        assert r.mean() == 7.0
        assert r.variance() == 0.0
        assert r.cv2() == 0.0

    def test_hyper_fit_hits_target_mean(self):
        r = HyperexponentialResidence.fit(6.0, 5.0)
        assert r.mean() == pytest.approx(6.0, rel=0.05)
        assert r.cv2() > 1.0  # strictly over-dispersed vs exponential

    def test_pareto_draws_respect_truncation(self):
        r = TruncatedParetoResidence(alpha=1.5, minimum=1.0, maximum=50.0)
        rng = np.random.default_rng(0)
        draws = r.from_uniforms(rng.random(5000), rng.random(5000))
        assert draws.min() >= 1
        assert draws.max() <= 50

    def test_from_uniforms_minimum_one_slot(self):
        for r in (
            GeometricResidence(0.99),
            HyperexponentialResidence.fit(2.0, 4.0),
        ):
            u = np.full(100, 0.999)
            assert r.from_uniforms(u, u).min() >= 1

    def test_hyperexponential_draws_its_components_geometric(self):
        # A rate-1 component and u = 0 are the edges of the inverse CDF.
        r = HyperexponentialResidence(rates=(1.0, 0.3, 0.02), weights=(0.2, 0.5, 0.3))
        rng = np.random.default_rng(1)
        u_branch, u_value = rng.random(4000), rng.random(4000)
        u_value[:3] = 0.0
        draws = r.from_uniforms(u_branch, u_value)
        component = np.searchsorted(np.cumsum(r.weights), u_branch, side="right")
        for index, rate in enumerate(r.rates):
            mask = np.minimum(component, 2) == index
            geometric = GeometricResidence(rate)
            assert np.array_equal(
                draws[mask], geometric.from_uniforms(u_branch[mask], u_value[mask])
            )
        assert int(r.from_uniforms(np.asarray(0.1), np.asarray(0.5))) == 1

    def test_spec_roundtrip_all_kinds(self):
        for r in (
            GeometricResidence(0.3),
            DeterministicResidence(4),
            HyperexponentialResidence.fit(5.0, 6.0),
            TruncatedParetoResidence(1.4, 1.0, 100.0),
        ):
            assert residence_from_spec(r.spec()) == r

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(ParameterError):
            residence_from_spec({"kind": "levy"})


class TestCTRWSpec:
    def test_validates_residence_type(self):
        with pytest.raises(ParameterError):
            CTRWSpec(residence="geometric")

    def test_validates_drift_budget(self):
        with pytest.raises(ParameterError):
            CTRWSpec(residence=GeometricResidence(0.2), drift=0.7, persistence=0.5)

    def test_effective_move_probability(self):
        spec = CTRWSpec(residence=DeterministicResidence(5))
        assert spec.effective_move_probability() == pytest.approx(0.2)

    def test_effective_rate_capped_at_one(self):
        spec = CTRWSpec(residence=DeterministicResidence(1))
        assert spec.effective_move_probability() == 1.0

    def test_payload_roundtrip(self):
        spec = CTRWSpec(
            residence=HyperexponentialResidence.fit(4.0, 9.0),
            drift=0.3,
            persistence=0.1,
            drift_direction=2,
        )
        assert CTRWSpec.from_payload(spec.to_payload()) == spec

    def test_walker_factory_is_picklable(self):
        factory = CTRWSpec(residence=GeometricResidence(0.2)).walker_factory()
        assert pickle.loads(pickle.dumps(factory)).spec.residence == (
            GeometricResidence(0.2)
        )


class TestCTRWWalk:
    def test_timed_marker(self, hexgrid):
        walker = CTRWWalk(
            hexgrid, GeometricResidence(0.2), rng=np.random.default_rng(0)
        )
        assert walker.timed is True

    def test_deterministic_residence_moves_on_schedule(self, hexgrid):
        walker = CTRWWalk(
            hexgrid, DeterministicResidence(3), rng=np.random.default_rng(1)
        )
        due = []
        for _ in range(12):
            if walker.move_due():
                walker.move()
                due.append(True)
            else:
                due.append(False)
        # Expires every third slot, starting from the initial clock.
        assert due == [False, False, True] * 4

    def test_moves_are_single_ring_steps(self, hexgrid):
        walker = CTRWWalk(
            hexgrid, GeometricResidence(0.6), rng=np.random.default_rng(2)
        )
        previous = walker.position
        for _ in range(300):
            if walker.move_due():
                walker.move()
            assert hexgrid.distance(previous, walker.position) <= 1
            previous = walker.position

    def test_geometric_rate_matches_mean(self, hexgrid):
        walker = CTRWWalk(
            hexgrid, GeometricResidence(0.25), rng=np.random.default_rng(3)
        )
        moves = 0
        slots = 20_000
        for _ in range(slots):
            if walker.move_due():
                walker.move()
                moves += 1
        assert moves / slots == pytest.approx(0.25, abs=0.02)

    def test_full_drift_walks_outward(self, hexgrid):
        walker = CTRWWalk(
            hexgrid,
            DeterministicResidence(1),
            rng=np.random.default_rng(4),
            drift=0.95,
        )
        start = walker.position
        for _ in range(60):
            if walker.move_due():
                walker.move()
        # With near-certain drift every expiry steps the same way.
        assert hexgrid.distance(start, walker.position) >= 40


class TestPresets:
    def test_uniform_is_none(self):
        assert mobility_preset("uniform", 0.2) is None

    @pytest.mark.parametrize("name", [n for n in MOBILITY_PRESETS if n != "uniform"])
    def test_presets_build_specs(self, name):
        spec = mobility_preset(name, 0.2)
        assert isinstance(spec, CTRWSpec)
        assert math.isfinite(spec.residence.mean())

    def test_rate_matched_presets(self):
        for name in ("ctrw-exp", "ctrw-drift"):
            spec = mobility_preset(name, 0.2)
            assert spec.effective_move_probability() == pytest.approx(0.2)

    def test_drift_preset_has_drift(self):
        assert mobility_preset("ctrw-drift", 0.2, drift=0.6).drift == 0.6

    def test_unknown_preset_rejected(self):
        with pytest.raises(ParameterError):
            mobility_preset("brownian", 0.2)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ParameterError):
            mobility_preset("ctrw-exp", 0.0)
