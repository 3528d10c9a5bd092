"""Crash-safe campaign tests: checkpoint, resume, deadlines."""

import json

import pytest

from repro import CostParams, MobilityParams, ParameterError
from repro.geometry import LineTopology
from repro.simulation import PartialReplication, run_replicated
from repro.simulation.metrics import MeterSnapshot
from repro.strategies import DistanceStrategy

MOBILITY = MobilityParams(0.3, 0.03)
COSTS = CostParams(30.0, 2.0)


def campaign(checkpoint=None, seed=0, replications=4, slots=5_000, **kwargs):
    return run_replicated(
        topology=LineTopology(),
        strategy_factory=lambda: DistanceStrategy(2, max_delay=2),
        mobility=MOBILITY,
        costs=COSTS,
        slots=slots,
        replications=replications,
        seed=seed,
        checkpoint=checkpoint,
        **kwargs,
    )


class TestSnapshotRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        snapshot = campaign(replications=1).snapshots[0]
        assert MeterSnapshot.from_dict(snapshot.to_dict()) == snapshot

    def test_survives_json_encoding(self):
        snapshot = campaign(replications=1).snapshots[0]
        wire = json.loads(json.dumps(snapshot.to_dict()))
        assert MeterSnapshot.from_dict(wire) == snapshot

    def test_malformed_payload_rejected(self):
        with pytest.raises(ParameterError):
            MeterSnapshot.from_dict({"slots": 10})


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_to_identical_result(self, tmp_path):
        # The acceptance scenario: kill a campaign mid-run (here: the
        # strategy factory blows up while building replication 2),
        # rerun the same call, and the pooled result must be
        # bit-identical to a never-interrupted campaign.
        path = tmp_path / "campaign.json"
        uninterrupted = campaign()

        built = {"count": 0}

        def crashing_factory():
            # Call 0 is the runner's fingerprint probe; calls 1 and 2
            # build replications 0 and 1; call 3 (replication 2) dies.
            if built["count"] == 3:
                raise KeyboardInterrupt  # simulated kill
            built["count"] += 1
            return DistanceStrategy(2, max_delay=2)

        with pytest.raises(KeyboardInterrupt):
            run_replicated(
                topology=LineTopology(),
                strategy_factory=crashing_factory,
                mobility=MOBILITY,
                costs=COSTS,
                slots=5_000,
                replications=4,
                seed=0,
                checkpoint=path,
            )
        assert path.exists()
        partial = json.loads(path.read_text())
        assert len(partial["snapshots"]) == 2  # progress survived the kill

        resumed = campaign(checkpoint=path)
        assert resumed.snapshots == uninterrupted.snapshots
        assert resumed.mean_total_cost == uninterrupted.mean_total_cost

    def test_completed_campaign_is_not_rerun(self, tmp_path):
        path = tmp_path / "campaign.json"
        first = campaign(checkpoint=path)

        calls = {"count": 0}

        def counting_factory():
            calls["count"] += 1
            return DistanceStrategy(2, max_delay=2)

        again = run_replicated(
            topology=LineTopology(),
            strategy_factory=counting_factory,
            mobility=MOBILITY,
            costs=COSTS,
            slots=5_000,
            replications=4,
            seed=0,
            checkpoint=path,
        )
        assert again.snapshots == first.snapshots
        # Only the fingerprint probe may construct a strategy; no
        # engine ran (each engine build would add a factory call).
        assert calls["count"] == 1

    def test_checkpoint_written_after_every_replication(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign(checkpoint=path, replications=3)
        payload = json.loads(path.read_text())
        assert len(payload["snapshots"]) == 3
        assert payload["fingerprint"]["replications"] == 3
        # Atomic write: no orphaned temp files next to the checkpoint.
        leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_foreign_checkpoint_refused(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign(checkpoint=path, seed=0)
        with pytest.raises(ParameterError):
            campaign(checkpoint=path, seed=1)  # different campaign

    def test_corrupt_checkpoint_refused(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError):
            campaign(checkpoint=path)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda payload: [],
            lambda payload: {"fingerprint": 3},
            lambda payload: {"fingerprint": payload["fingerprint"]},
            lambda payload: {**payload, "snapshots": [{"index": 0}]},
        ],
        ids=["array", "scalar-fingerprint", "no-snapshots", "entry-without-snapshot"],
    )
    def test_malformed_checkpoint_refused(self, tmp_path, mangle):
        path = tmp_path / "campaign.json"
        campaign(checkpoint=path, replications=2, slots=500)
        path.write_text(json.dumps(mangle(json.loads(path.read_text()))))
        with pytest.raises(ParameterError, match="malformed checkpoint"):
            campaign(checkpoint=path, replications=2, slots=500)


class TestCheckpointIdentity:
    """The fingerprint must pin down *what* was simulated, not just how much."""

    def resume(self, path, strategy_factory=None, topology=None, start=None):
        return run_replicated(
            topology=topology if topology is not None else LineTopology(),
            strategy_factory=strategy_factory
            or (lambda: DistanceStrategy(2, max_delay=2)),
            mobility=MOBILITY,
            costs=COSTS,
            slots=5_000,
            replications=4,
            seed=0,
            start=start,
            checkpoint=path,
        )

    def test_different_threshold_refused(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign(checkpoint=path)
        with pytest.raises(ParameterError, match="different campaign"):
            self.resume(path, strategy_factory=lambda: DistanceStrategy(3, max_delay=2))

    def test_different_delay_bound_refused(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign(checkpoint=path)
        with pytest.raises(ParameterError, match="different campaign"):
            self.resume(path, strategy_factory=lambda: DistanceStrategy(2, max_delay=1))

    def test_different_strategy_refused(self, tmp_path):
        from repro.strategies import MovementStrategy

        path = tmp_path / "campaign.json"
        campaign(checkpoint=path)
        with pytest.raises(ParameterError, match="different campaign"):
            self.resume(path, strategy_factory=lambda: MovementStrategy(2))

    def test_different_topology_refused(self, tmp_path):
        from repro.geometry import HexTopology

        path = tmp_path / "campaign.json"
        campaign(checkpoint=path)
        with pytest.raises(ParameterError, match="different campaign"):
            self.resume(path, topology=HexTopology())

    def test_different_start_cell_refused(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign(checkpoint=path)
        with pytest.raises(ParameterError, match="different campaign"):
            self.resume(path, start=7)

    def test_stale_schema_version_refused_with_clear_message(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign(checkpoint=path)
        payload = json.loads(path.read_text())
        payload["fingerprint"]["version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="schema version 1"):
            campaign(checkpoint=path)


class TestReplicationDeadline:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ParameterError):
            campaign(replication_deadline=0)

    def test_overrun_becomes_structured_partial(self):
        # An (effectively) already-expired deadline: every replication
        # is cut short and reported, none poisons the pooled stats.
        result = campaign(
            replications=2, slots=50_000, replication_deadline=1e-9
        )
        assert result.replications == 0
        assert len(result.partials) == 2
        for index, partial in enumerate(result.partials):
            assert isinstance(partial, PartialReplication)
            assert partial.index == index
            assert partial.target_slots == 50_000
            assert partial.completed_slots < 50_000
            assert partial.completed_slots == partial.snapshot.slots

    def test_generous_deadline_changes_nothing(self):
        relaxed = campaign(replication_deadline=3600.0)
        plain = campaign()
        assert relaxed.partials == ()
        assert relaxed.snapshots == plain.snapshots

    def test_partials_are_retried_on_resume(self, tmp_path):
        # A deadline-truncated replication must not be permanently
        # frozen out of the pool: rerunning the campaign without the
        # deadline retries the partial indices and recovers the exact
        # uninterrupted result.
        path = tmp_path / "campaign.json"
        truncated = campaign(
            checkpoint=path, replications=2, replication_deadline=1e-9
        )
        assert truncated.replications == 0
        assert len(truncated.partials) == 2
        assert len(json.loads(path.read_text())["partials"]) == 2

        resumed = campaign(checkpoint=path, replications=2)
        fresh = campaign(replications=2)
        assert resumed.partials == ()
        assert resumed.snapshots == fresh.snapshots
        # The retried full snapshots replaced the truncated ones in the
        # checkpoint too.
        payload = json.loads(path.read_text())
        assert payload["partials"] == []
        assert len(payload["snapshots"]) == 2
