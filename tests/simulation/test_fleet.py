"""Sharded fleet engine: layout invariance, checkpoints, accounting."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CostParams, MobilityParams
from repro.exceptions import ParameterError
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.observability import context as obs_context
from repro.simulation import fleet as fleet_module
from repro.simulation.fleet import (
    FleetShardEngine,
    FleetSpec,
    ShardSnapshot,
    fleet_report,
    run_fleet,
    shard_bounds,
)
from repro.workload import DEFAULT_MIX, Population

COSTS = CostParams(update_cost=50.0, poll_cost=2.0)
MOBILITY = MobilityParams(move_probability=0.3, call_probability=0.05)


@pytest.fixture(scope="module")
def spec():
    """A small heterogeneous fleet, shared across the read-only tests."""
    return FleetSpec.from_population(
        Population(DEFAULT_MIX), 300, COSTS, 2, seed=7
    )


class TestFleetSpec:
    def test_from_population_solves_per_profile_thresholds(self, spec):
        # Three archetypes with very different mobility must not share
        # one threshold; vehicles roam and need larger d than statics.
        by_profile = {
            name: int(spec.threshold[spec.profile_index == i][0])
            for i, name in enumerate(spec.profile_names)
        }
        assert len(set(by_profile.values())) > 1
        assert by_profile["vehicle"] > by_profile["static"]
        # Every terminal of a profile shares that profile's threshold.
        for i in range(len(spec.profile_names)):
            rows = spec.threshold[spec.profile_index == i]
            assert (rows == rows[0]).all()

    def test_threshold_overrides(self):
        spec = FleetSpec.from_population(
            Population(DEFAULT_MIX), 50, COSTS, 2, seed=7,
            thresholds={"vehicle": 9, "pedestrian": 2, "static": 1},
        )
        vehicle = list(spec.profile_names).index("vehicle")
        assert (spec.threshold[spec.profile_index == vehicle] == 9).all()

    def test_homogeneous_spec(self):
        spec = FleetSpec.homogeneous(HexTopology(), 3, MOBILITY, COSTS, 2, 64)
        assert spec.count == 64
        assert (spec.q == MOBILITY.move_probability).all()
        assert (spec.threshold == 3).all()
        assert spec.profile_counts() == {"uniform": 64}

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ParameterError, match="shape"):
            FleetSpec(
                topology=HexTopology(),
                q=np.full(4, 0.1),
                c=np.full(3, 0.01),
                update_cost=np.full(4, 10.0),
                poll_cost=np.full(4, 1.0),
                threshold=np.full(4, 2, dtype=np.int64),
                profile_index=np.zeros(4, dtype=np.int32),
                profile_names=("only",),
                max_delay=2,
                population_seed=0,
            )

    def test_rejects_invalid_mobility(self):
        with pytest.raises(ParameterError, match="mobility out of range"):
            FleetSpec(
                topology=HexTopology(),
                q=np.full(4, 0.9),
                c=np.full(4, 0.2),  # q + c > 1
                update_cost=np.full(4, 10.0),
                poll_cost=np.full(4, 1.0),
                threshold=np.full(4, 2, dtype=np.int64),
                profile_index=np.zeros(4, dtype=np.int32),
                profile_names=("only",),
                max_delay=2,
                population_seed=0,
            )

    @pytest.mark.parametrize(
        "column, value",
        [
            ("q", math.nan),
            ("c", math.nan),
            ("update_cost", math.nan),
            ("poll_cost", math.inf),
            ("update_cost", -math.inf),
        ],
    )
    def test_rejects_non_finite_columns(self, column, value):
        # Every range check compares, and NaN fails every comparison.
        columns = dict(
            q=np.full(4, 0.2),
            c=np.full(4, 0.01),
            update_cost=np.full(4, 10.0),
            poll_cost=np.full(4, 1.0),
        )
        columns[column][1] = value
        with pytest.raises(ParameterError, match=f"{column!r} is not finite"):
            FleetSpec(
                topology=HexTopology(),
                threshold=np.full(4, 2, dtype=np.int64),
                profile_index=np.zeros(4, dtype=np.int32),
                profile_names=("only",),
                max_delay=2,
                population_seed=0,
                **columns,
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_rejects_a_threshold_column_that_is_not_integer(self, dtype):
        # A float column of 2.9 would run as d = 2, and one of 2.0 would
        # run the int column's population under another fingerprint.
        with pytest.raises(ParameterError, match="'threshold' needs an integer dtype"):
            FleetSpec(
                topology=HexTopology(),
                q=np.full(4, 0.1),
                c=np.full(4, 0.01),
                update_cost=np.full(4, 10.0),
                poll_cost=np.full(4, 1.0),
                threshold=np.full(4, 2.9).astype(dtype),
                profile_index=np.zeros(4, dtype=np.int32),
                profile_names=("only",),
                max_delay=2,
                population_seed=0,
            )

    def test_plan_rows_are_the_distinct_thresholds(self, spec):
        assert spec.plan_rows == tuple(sorted(set(spec.threshold.tolist())))
        assert len(spec.plan_rows) > 1

    def test_columns_are_read_only_and_hashed_once(self, monkeypatch):
        spec = FleetSpec.homogeneous(HexTopology(), 3, MOBILITY, COSTS, 2, 64)
        with pytest.raises(ValueError, match="read-only"):
            spec.q[0] = 0.5
        header = (repr(spec.topology), 2, ("uniform",), 0, spec.description, 64)
        digest = hashlib.sha256(repr(header).encode())
        for name in ("q", "c", "update_cost", "poll_cost", "threshold", "profile_index"):
            digest.update(getattr(spec, name).tobytes())
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(
            fleet_module.hashlib, "sha256", lambda *a: hashed.append(a) or sha256(*a)
        )
        run_fleet(spec, slots=5, seed=1)
        assert len(hashed) == 1
        run_fleet(spec, slots=5, seed=2)
        assert spec.fingerprint() == digest.hexdigest()
        assert len(hashed) == 1

    def test_fingerprint_tracks_population_identity(self, spec):
        same = FleetSpec.from_population(
            Population(DEFAULT_MIX), 300, COSTS, 2, seed=7
        )
        other_seed = FleetSpec.from_population(
            Population(DEFAULT_MIX), 300, COSTS, 2, seed=8
        )
        assert spec.fingerprint() == same.fingerprint()
        assert spec.fingerprint() != other_seed.fingerprint()


class TestShardBounds:
    def test_partition_is_contiguous_and_exhaustive(self):
        bounds = shard_bounds(103, 7)
        assert bounds[0][0] == 0 and bounds[-1][1] == 103
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError):
            shard_bounds(5, 0)
        with pytest.raises(ParameterError):
            shard_bounds(3, 4)


class TestShardLayoutInvariance:
    def test_event_totals_exact_across_shard_counts(self, spec):
        runs = {
            shards: run_fleet(spec, slots=120, shards=shards, seed=3)
            for shards in (1, 4, 16)
        }
        base = runs[1]
        for shards, result in runs.items():
            assert result.moves == base.moves, shards
            assert result.updates == base.updates, shards
            assert result.calls == base.calls, shards
            assert result.polled_cells == base.polled_cells, shards
            assert result.delay_histogram == base.delay_histogram, shards
            # Integer-valued costs: exact even across float sum orders.
            assert result.update_cost == base.update_cost, shards
            assert result.paging_cost == base.paging_cost, shards

    def test_pooled_is_bit_identical_to_inprocess(self, spec, tmp_path):
        common = dict(slots=100, shards=5, seed=3)
        serial = run_fleet(spec, workers=None, **common)
        pooled = run_fleet(spec, workers=2, spill_dir=tmp_path, **common)
        assert serial.shards == pooled.shards

    @pytest.mark.parametrize("topology", [LineTopology(), SquareTopology()])
    def test_other_topologies_run(self, topology):
        spec = FleetSpec.homogeneous(topology, 2, MOBILITY, COSTS, 2, 40)
        result = run_fleet(spec, slots=80, shards=3, seed=1)
        assert result.moves > 0 and result.calls > 0

    def test_cost_sums_do_not_depend_on_blas_threads(self):
        # Non-integer costs and more than 10,000 terms per sum, where a
        # threaded BLAS dot product splits the sum across its threads.
        script = (
            "import json\n"
            "from repro import CostParams, MobilityParams\n"
            "from repro.geometry import HexTopology\n"
            "from repro.simulation.fleet import FleetSpec, run_fleet\n"
            "spec = FleetSpec.homogeneous(HexTopology(), 2, MobilityParams(0.3, 0.6),"
            " CostParams(13.7, 0.31), 2, 24_000)\n"
            "result = run_fleet(spec, slots=4, seed=3)\n"
            "print(json.dumps([shard.to_dict() for shard in result.shards]))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = {}
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, (src, os.environ.get("PYTHONPATH")))
                ),
            }
            run = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert run.returncode == 0, run.stderr[-2000:]
            outputs[threads] = json.loads(run.stdout)
        assert outputs["1"][0]["calls"] > 4 * 10_000
        assert outputs["1"] == outputs["2"]

    def test_fleet_totals_equal_sum_of_shards_exactly(self, spec):
        result = run_fleet(spec, slots=60, shards=6, seed=2)
        assert result.update_cost == sum(s.update_cost for s in result.shards)
        assert result.updates == sum(s.updates for s in result.shards)
        assert [s.index for s in result.shards] == list(range(6))


class TestFleetEngineBehavior:
    def test_zero_call_probability_pages_nothing(self):
        spec = FleetSpec.homogeneous(
            HexTopology(), 2, MobilityParams(0.4, 0.0), COSTS, 2, 32
        )
        result = run_fleet(spec, slots=100, seed=0)
        assert result.calls == 0 and result.paging_cost == 0.0
        assert result.moves > 0

    def test_static_terminals_never_update(self):
        spec = FleetSpec.homogeneous(
            HexTopology(), 5, MobilityParams(1e-9, 0.2), COSTS, 2, 32
        )
        result = run_fleet(spec, slots=100, seed=0)
        assert result.updates == 0
        assert result.calls > 0

    def test_independent_event_mode(self, spec):
        exclusive = run_fleet(spec, slots=100, seed=4)
        independent = run_fleet(spec, slots=100, seed=4, event_mode="independent")
        # Different event law, same population: both run, totals differ.
        assert independent.moves != exclusive.moves

    @pytest.mark.parametrize("max_delay", [1, 2, math.inf], ids=["m1", "m2", "minf"])
    @pytest.mark.parametrize("event_mode", ["exclusive", "independent"])
    @pytest.mark.parametrize(
        "topology",
        [LineTopology(), HexTopology(), SquareTopology()],
        ids=lambda t: type(t).__name__,
    )
    def test_event_counts_equal_vectorized_engine(self, topology, event_mode, max_delay):
        # Both engines hash the same (seed, stream, slot, terminal) keys,
        # so a sharded homogeneous fleet replays the vectorized
        # trajectory exactly on every lattice, event law and delay bound.
        from repro.simulation.vectorized import VectorizedDistanceEngine

        spec = FleetSpec.homogeneous(topology, 3, MOBILITY, COSTS, max_delay, 2000)
        fleet = run_fleet(spec, slots=400, shards=4, seed=11, event_mode=event_mode)
        vectorized = VectorizedDistanceEngine(
            topology, 3, MOBILITY, COSTS, max_delay, terminals=2000, seed=11,
            event_mode=event_mode,
        ).run(400)
        for key in ("moves", "updates", "calls", "polled_cells"):
            assert getattr(fleet, key) == sum(
                getattr(snapshot, key) for snapshot in vectorized.snapshots
            ), key
        histogram = {}
        for snapshot in vectorized.snapshots:
            for cycles, count in snapshot.delay_histogram.items():
                histogram[cycles] = histogram.get(cycles, 0) + count
        assert fleet.delay_histogram == dict(sorted(histogram.items()))

    def test_rejects_bad_arguments(self, spec):
        with pytest.raises(ParameterError):
            run_fleet(spec, slots=0)
        with pytest.raises(ParameterError):
            run_fleet(spec, slots=10, event_mode="both")
        with pytest.raises(ParameterError):
            FleetShardEngine(
                topology=HexTopology(),
                q=spec.q, c=spec.c,
                update_cost=spec.update_cost, poll_cost=spec.poll_cost,
                threshold=spec.threshold, profile_index=spec.profile_index,
                n_profiles=3, max_delay=2, plan_rows=spec.plan_rows,
                event_mode="nope",
            )

    def test_per_profile_breakdown_sums_to_fleet_totals(self, spec):
        result = run_fleet(spec, slots=80, shards=3, seed=5)
        breakdown = result.per_profile()
        assert sum(v["terminals"] for v in breakdown.values()) == spec.count
        assert sum(
            v["update_cost"] + v["paging_cost"] for v in breakdown.values()
        ) == pytest.approx(result.total_cost)

    def test_one_profile_sums_are_the_totals_exactly(self):
        # Non-integer costs, so a different summation order would show.
        spec = FleetSpec.homogeneous(
            HexTopology(), 2, MobilityParams(0.3, 0.6), CostParams(13.7, 0.31),
            2, 24_000,
        )
        result = run_fleet(spec, slots=4, shards=3, seed=3)
        for shard in result.shards:
            assert shard.profile_update_cost == (shard.update_cost,)
            assert shard.profile_paging_cost == (shard.paging_cost,)
        (profile,) = result.per_profile().values()
        assert profile["update_cost"] == result.update_cost
        assert profile["paging_cost"] == result.paging_cost


class TestShardSnapshot:
    def test_dict_roundtrip(self, spec):
        snapshot = run_fleet(spec, slots=50, shards=2, seed=1).shards[1]
        assert ShardSnapshot.from_dict(snapshot.to_dict()) == snapshot
        # and via JSON, as the checkpoint stores it
        assert ShardSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))
        ) == snapshot

    def test_malformed_payload_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="malformed shard snapshot"):
            ShardSnapshot.from_dict({"index": 0})


class TestFleetCheckpoint:
    def test_resume_with_partial_shards(self, spec, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        full = run_fleet(spec, slots=60, shards=4, seed=3, checkpoint=path)
        payload = json.loads(path.read_text())
        assert len(payload["shards"]) == 4
        # Keep only shards 0 and 2: simulate a kill mid-run.
        payload["shards"] = [
            entry for entry in payload["shards"] if entry["index"] in (0, 2)
        ]
        path.write_text(json.dumps(payload))
        resumed = run_fleet(spec, slots=60, shards=4, seed=3, checkpoint=path)
        assert resumed.shards == full.shards

    def test_refuses_mismatched_run(self, spec, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        run_fleet(spec, slots=60, shards=4, seed=3, checkpoint=path)
        for kwargs in (
            dict(slots=61, shards=4, seed=3),
            dict(slots=60, shards=5, seed=3),
            dict(slots=60, shards=4, seed=4),
        ):
            with pytest.raises(ParameterError, match="different run"):
                run_fleet(spec, checkpoint=path, **kwargs)

    def test_refuses_different_population(self, spec, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        run_fleet(spec, slots=60, shards=2, seed=3, checkpoint=path)
        other = FleetSpec.from_population(
            Population(DEFAULT_MIX), 300, COSTS, 2, seed=99
        )
        with pytest.raises(ParameterError, match="different run"):
            run_fleet(other, slots=60, shards=2, seed=3, checkpoint=path)

    def test_refuses_schema_version_drift(self, spec, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        run_fleet(spec, slots=60, shards=2, seed=3, checkpoint=path)
        payload = json.loads(path.read_text())
        payload["fingerprint"]["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="schema version"):
            run_fleet(spec, slots=60, shards=2, seed=3, checkpoint=path)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda payload: [],
            lambda payload: {"fingerprint": 3},
            lambda payload: {"fingerprint": payload["fingerprint"]},
            lambda payload: {**payload, "shards": [{"index": 0}]},
        ],
        ids=["array", "scalar-fingerprint", "no-shards", "shard-without-snapshot"],
    )
    def test_refuses_malformed_checkpoint(self, spec, tmp_path, mangle):
        path = tmp_path / "fleet.ckpt.json"
        run_fleet(spec, slots=10, shards=2, seed=3, checkpoint=path)
        path.write_text(json.dumps(mangle(json.loads(path.read_text()))))
        with pytest.raises(ParameterError, match="malformed fleet checkpoint"):
            run_fleet(spec, slots=10, shards=2, seed=3, checkpoint=path)

    def test_refuses_unreadable_checkpoint(self, spec, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError, match="unreadable"):
            run_fleet(spec, slots=10, shards=2, seed=3, checkpoint=path)


class TestFleetObservability:
    def test_exact_accounting_matches_snapshot_sums(self, spec):
        with obs_context.session() as obs:
            result = run_fleet(spec, slots=60, shards=3, seed=1, workers=2)
            values = {
                metric["name"]: metric.get("value", metric.get("sum"))
                for metric in obs.registry.collect()
                if metric.get("labels", {}).get("engine") == "fleet"
            }
        assert values["updates_total"] == result.updates
        assert values["moves_total"] == result.moves
        assert values["calls_total"] == result.calls
        assert values["polled_cells_total"] == result.polled_cells
        assert values["update_cost_total"] == result.update_cost
        assert values["paging_cost_total"] == result.paging_cost
        assert values["slots_total"] == spec.count * 60

    def test_shard_spans_merge_in_index_order(self, spec):
        with obs_context.session() as obs:
            run_fleet(spec, slots=20, shards=3, seed=1, workers=2)
            shard_spans = [
                record
                for record in obs.tracer.records
                if record.name == "simulate.fleet_shard"
            ]
        assert [s.metadata["shard"] for s in shard_spans] == [0, 1, 2]

    def test_disabled_context_stays_silent(self, spec):
        result = run_fleet(spec, slots=20, shards=2, seed=1)
        assert result.moves > 0  # no session: nothing to assert beyond running


class TestFleetReport:
    def test_report_shape_and_rss_budget(self):
        report = fleet_report(
            2_000, shards=4, slots=30, workers=2, seed=0
        )
        assert report["terminal_slots"] == 2_000 * 30
        assert report["rss_within_budget"] is True
        assert set(report["peak_rss_bytes"]) == {"self", "children", "max"}
        assert report["peak_rss_bytes"]["max"] <= report["rss_budget_bytes"]
        assert set(report["per_profile"]) == {"pedestrian", "vehicle", "static"}

    def test_checkpoint_passthrough(self, tmp_path):
        path = tmp_path / "report.ckpt.json"
        fleet_report(500, shards=2, slots=10, seed=0, checkpoint=path)
        assert json.loads(path.read_text())["fingerprint"]["terminals"] == 500
