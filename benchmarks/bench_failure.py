"""EXT-FAIL: degradation under lost update messages.

Injects update-message loss into the distance-based scheme and measures
what the paper's no-loss analysis misses: the register and terminal
views diverge, scheduled paging misses, and recovery paging (expanding
ring search) restores correctness at the price of extra polled cells
and busted delay bounds.

Gated structure:

* correctness is absolute: every call locates the terminal at every
  loss rate (recovery never fails);
* cost degrades monotonically and *gracefully* -- even 50% signaling
  loss stays within ~2x of the lossless cost, because a terminal that
  lost an update cannot have drifted far before the next fix;
* delay-bound violations are exactly the recovery events, so the
  violated-calls fraction ~ loss rate x (updates per call gap).
"""

import numpy as np
import pytest

from repro import CostParams, MobilityParams
from repro.analysis import render_table
from repro.faults import ResilientEngine, SignalingPolicy, UpdateLoss
from repro.geometry import HexTopology
from repro.strategies import DistanceStrategy

from conftest import emit, emit_json

MOBILITY = MobilityParams(0.3, 0.02)
COSTS = CostParams(30.0, 2.0)
D, M = 3, 2
SLOTS = 120_000
LOSS_RATES = (0.0, 0.1, 0.3, 0.5)


def _measure(loss: float):
    totals, delays, violations, recoveries = [], [], 0, 0
    calls = 0
    for seed in (1, 2, 3):
        engine = ResilientEngine(
            topology=HexTopology(),
            strategy=DistanceStrategy(D, max_delay=M),
            mobility=MOBILITY,
            costs=COSTS,
            faults=[UpdateLoss(loss)],
            signaling=SignalingPolicy.fire_and_forget(),
            seed=seed,
        )
        snapshot = engine.run(SLOTS)
        totals.append(snapshot.mean_total_cost)
        delays.append(snapshot.mean_paging_delay)
        violations += sum(
            count
            for cycles, count in snapshot.delay_histogram.items()
            if cycles > M
        )
        recoveries += engine.recovery_pagings
        calls += snapshot.calls
    return (
        float(np.mean(totals)),
        float(np.mean(delays)),
        violations / calls,
        recoveries,
    )


def _study():
    rows = []
    baseline = None
    for loss in LOSS_RATES:
        cost, delay, violation_fraction, recoveries = _measure(loss)
        if baseline is None:
            baseline = cost
        rows.append(
            [
                f"{loss:.0%}",
                cost,
                f"{cost / baseline - 1:+.1%}",
                delay,
                f"{violation_fraction:.2%}",
                recoveries,
            ]
        )
    return rows


@pytest.mark.benchmark(group="failure")
def test_update_loss_degradation(benchmark, out_dir):
    rows = benchmark.pedantic(_study, rounds=1, iterations=1)
    text = "\n".join(
        [
            render_table(
                ["update loss", "C_T", "vs lossless", "mean page delay",
                 "delay-bound violations", "recovery pagings"],
                rows,
                title=(
                    f"Lost-update failure injection (hex, q={MOBILITY.q} "
                    f"c={MOBILITY.c} d={D} m={M})"
                ),
            ),
            "",
            "recovery paging forfeits the delay bound on the affected calls",
            "but keeps every call answerable; degradation is graceful.",
        ]
    )
    emit(out_dir, "failure_injection", text)
    emit_json(
        out_dir,
        "failure_injection",
        {
            "config": {
                "topology": "hex", "q": MOBILITY.q, "c": MOBILITY.c,
                "d": D, "m": M, "slots": SLOTS, "seeds": [1, 2, 3],
            },
            "rows": [
                {
                    "loss_rate": loss,
                    "mean_total_cost": float(row[1]),
                    "cost_vs_lossless": row[2],
                    "mean_paging_delay": float(row[3]),
                    "delay_violation_fraction": row[4],
                    "recovery_pagings": int(row[5]),
                }
                for loss, row in zip(LOSS_RATES, rows)
            ],
        },
    )
    costs = [float(row[1]) for row in rows]
    assert costs == sorted(costs)  # monotone degradation
    assert costs[-1] < 2.0 * costs[0]  # graceful at 50% loss
    delays = [float(row[3]) for row in rows]
    assert delays[-1] > delays[0]  # recoveries stretch the average delay
