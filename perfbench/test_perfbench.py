"""Sabotage tests: every workload's output check rejects a wrong output,
and the closed loop counts such an op as failed.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses

from perfbench import run
from perfbench.common import no_span


def test_paper_check_rejects_a_perturbed_row(tmp_path):
    workload = run.set_up("paper", 5, tmp_path)
    row = workload.op(0)
    assert workload.check(0, row) == []
    row["table1"]["2"]["cost"] *= 1 + 1e-6
    row["figure5b"]["inf"]["d"] += 1
    assert len(workload.check(0, row)) == 2


def _replace_point(result, index, **changes):
    points = list(result.points)
    points[index] = dataclasses.replace(points[index], **changes)
    return dataclasses.replace(result, points=tuple(points))


def test_tournament_check_rejects_dominance_and_winner_violations(tmp_path):
    workload = run.set_up("tournament", 5, tmp_path)
    result = workload.op(0)
    assert workload.check(0, result) == []
    point = result.points[0]
    distance = point.outcome("distance").total_cost
    outcomes = tuple(
        dataclasses.replace(o, update_cost=o.update_cost + distance + 1.0)
        if o.scheme == "jointly-optimal"
        else o
        for o in point.outcomes
    )
    assert any("joint" in p for p in workload.check(0, _replace_point(result, 0, outcomes=outcomes)))
    costliest = max(point.outcomes, key=lambda o: o.total_cost).scheme
    assert any("winner" in p for p in workload.check(0, _replace_point(result, 0, winner=costliest)))


def test_tournament_check_rejects_a_repeat_not_served_from_cache(tmp_path):
    workload = run.set_up("tournament", 5, tmp_path)
    first = workload.op(0)
    for i in range(3):
        assert workload.check(i, first if i == 0 else workload.op(i)) == []
    repeat = workload.op(3)
    assert repeat.from_cache
    workload.check(0, first)
    assert workload.check(3, dataclasses.replace(repeat, from_cache=False))


def test_approx_check_rejects_changed_rows_and_counts(tmp_path):
    workload = run.set_up("approx", 5, tmp_path)
    report = workload.op(0)
    assert workload.check(0, report) == []
    rows = list(report.rows)
    rows[0] = dataclasses.replace(rows[0], simulated_cost=2 * rows[0].simulated_cost)
    rows[1] = dataclasses.replace(rows[1], simulated_cost=rows[1].simulated_cost * (1 + 1e-9))
    assert len(workload.check(0, dataclasses.replace(report, rows=tuple(rows)))) == 2
    summary, counts = workload.traced_op(0, no_span)
    assert summary == workload.summary(report)
    assert workload.check_counts(0, counts) == []
    counts["ctrw-exp.moves"] += 1
    assert workload.check_counts(0, counts)


def test_fleet_check_rejects_changed_totals(tmp_path):
    workload = run.set_up("fleet", 5, tmp_path)
    result, checkpoint_bytes = workload.op(0)
    assert workload.check(0, (result, checkpoint_bytes)) == []
    shard = result.shards[0]
    shards = (dataclasses.replace(shard, moves=shard.moves + 1),) + result.shards[1:]
    sabotaged = dataclasses.replace(result, shards=shards)
    assert workload.check(0, (sabotaged, checkpoint_bytes))


class _Sabotaged:
    """A workload whose every op output passes through ``spoil``."""

    def __init__(self, workload, spoil):
        self.workload = workload
        self.spoil = spoil
        self.calibration = workload.calibration

    def op(self, i):
        return self.spoil(self.workload.op(i))

    def check(self, i, output):
        return self.workload.check(i, output)


def test_closed_loop_counts_wrong_and_raising_ops_as_failed(tmp_path):
    workload = run.set_up("paper", 5, tmp_path)

    def wrong(row):
        row["table2"]["1"]["near_cost"] += 1.0
        return row

    def raising(row):
        raise ValueError("sabotaged")

    for spoil in (wrong, raising):
        failures = run.Failures()
        samples = run.closed_loop(_Sabotaged(workload, spoil), 0.2, failures)
        assert samples and failures.count == len(samples)
        assert not any(sample.ok for sample in samples)
