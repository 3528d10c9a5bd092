"""Parallel campaign execution: determinism, checkpoints, validation."""

import json
from functools import partial

import pytest

from repro import CostParams, MobilityParams, ParameterError
from repro.geometry import LineTopology
from repro.observability import context as obs_context
from repro.parallel import _call, run_jobs
from repro.simulation import run_replicated
from repro.strategies import DistanceStrategy

MOBILITY = MobilityParams(0.3, 0.03)
COSTS = CostParams(30.0, 2.0)
FACTORY = partial(DistanceStrategy, 2, max_delay=2)


def campaign(workers=None, checkpoint=None, replications=4, slots=3_000, seed=0):
    return run_replicated(
        topology=LineTopology(),
        strategy_factory=FACTORY,
        mobility=MOBILITY,
        costs=COSTS,
        slots=slots,
        replications=replications,
        seed=seed,
        workers=workers,
        checkpoint=checkpoint,
    )


def observed_job(i):
    """Record one of each instrument and a nested span."""
    obs = obs_context.current()
    obs.registry.counter("work_total", kind="x").inc(i * 0.1)
    obs.registry.histogram("sizes").observe(i % 3)
    obs.registry.gauge("last").set(i)
    with obs.tracer.span("inner", i=i):
        return i


class TestObservedJobs:
    def test_in_process_jobs_merge_as_their_payloads_would(self):
        jobs = [(i, (i,), {"point": i}) for i in range(5)]
        with obs_context.session() as direct:
            run_jobs(observed_job, jobs, None, lambda i, r: None, span="job")
        with obs_context.session() as shipped:
            payloads = [_call(observed_job, args, True, "job", meta)[1]
                        for _, args, meta in jobs]
            for index, payload in enumerate(payloads):
                shipped.merge_payload(payload, index=index)
        assert direct.registry.collect() == shipped.registry.collect()

        def shape(obs):
            return [(r.name, r.span_id, r.parent_id, r.metadata)
                    for r in obs.tracer.records]

        assert shape(direct) == shape(shipped)
        assert [r.metadata for r in direct.tracer.records[::2]] == [
            {"point": i, "index": i} for i in range(5)
        ]


class TestWorkerValidation:
    def test_serial_aliases(self):
        # None, 1, and "serial" all run in-process and agree exactly.
        assert campaign(workers=None).snapshots == campaign(workers=1).snapshots
        assert campaign(workers="serial").snapshots == campaign(workers=1).snapshots

    def test_zero_workers_rejected(self):
        with pytest.raises(ParameterError):
            campaign(workers=0)

    def test_bogus_string_rejected(self):
        with pytest.raises(ParameterError):
            campaign(workers="threads")

    def test_unpicklable_factory_rejected_with_hint(self):
        unpicklable = lambda: DistanceStrategy(2, max_delay=2)  # noqa: E731
        with pytest.raises(ParameterError, match="functools.partial"):
            run_replicated(
                topology=LineTopology(),
                strategy_factory=unpicklable,
                mobility=MOBILITY,
                costs=COSTS,
                slots=100,
                replications=2,
                workers=2,
            )


class TestParallelDeterminism:
    def test_pool_is_bit_identical_to_serial(self):
        serial = campaign(workers=None)
        pooled = campaign(workers=4)
        assert pooled.snapshots == serial.snapshots
        assert pooled.partials == serial.partials
        assert pooled.mean_total_cost == serial.mean_total_cost

    def test_pool_size_does_not_matter(self):
        assert campaign(workers=2).snapshots == campaign(workers=3).snapshots


class TestParallelCheckpoint:
    def test_checkpoint_written_during_pooled_run(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign(workers=2, checkpoint=path)
        payload = json.loads(path.read_text())
        assert sorted(e["index"] for e in payload["snapshots"]) == [0, 1, 2, 3]

    def test_any_order_checkpoint_resumes_correctly(self, tmp_path):
        # Simulate a pooled campaign killed after replications 0 and 2
        # finished (out of order -- impossible for the old serial-prefix
        # format): both executors must resume the remaining indices and
        # reproduce the uninterrupted result exactly.
        path = tmp_path / "campaign.json"
        uninterrupted = campaign()
        campaign(checkpoint=path)
        payload = json.loads(path.read_text())
        payload["snapshots"] = [
            e for e in payload["snapshots"] if e["index"] in (0, 2)
        ]
        path.write_text(json.dumps(payload))

        resumed_serial = campaign(checkpoint=path)
        assert resumed_serial.snapshots == uninterrupted.snapshots

        path.write_text(json.dumps(payload))
        resumed_pooled = campaign(workers=2, checkpoint=path)
        assert resumed_pooled.snapshots == uninterrupted.snapshots

    def test_serial_checkpoint_finishable_by_pool(self, tmp_path):
        path = tmp_path / "campaign.json"
        uninterrupted = campaign()
        campaign(checkpoint=path, replications=2)  # same seed: prefix
        # A serial 2-replication prefix is NOT resumable as a
        # 4-replication campaign (replications is in the fingerprint)...
        with pytest.raises(ParameterError):
            campaign(workers=2, checkpoint=path)
        # ...but the same campaign resumed with workers is fine.
        partial_result = campaign(replications=2, checkpoint=path, workers=2)
        assert partial_result.replications == 2
        assert partial_result.snapshots == uninterrupted.snapshots[:2]
