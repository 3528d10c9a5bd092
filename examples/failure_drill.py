"""Failure drill: what lost update messages do to the protocol.

Injects signaling loss into the paper's distance-based scheme with
:class:`repro.faults.ResilientEngine` (one update-loss fault, the
paper's fire-and-forget signaling): transmitted updates that never
reach the location register leave the network paging around a stale
center, and the expanding-ring recovery search has to rescue the
call.  The drill sweeps the loss rate and reports the damage -- cost,
paging delay, and how far recovery had to reach -- then sweeps the
threshold under fixed loss to show how the recovery burden scales with
the update rate (every update transmitted is another chance to lose
one).

Run:  python examples/failure_drill.py
"""

import numpy as np

from repro import CostParams, MobilityParams
from repro.faults import ResilientEngine, SignalingPolicy, UpdateLoss
from repro.geometry import HexTopology
from repro.strategies import DistanceStrategy

MOBILITY = MobilityParams(move_probability=0.3, call_probability=0.02)
PRICES = CostParams(update_cost=30.0, poll_cost=2.0)
SLOTS = 100_000


def drill(threshold: int, loss: float, seed: int = 1):
    engine = ResilientEngine(
        topology=HexTopology(),
        strategy=DistanceStrategy(threshold, max_delay=2),
        mobility=MOBILITY,
        costs=PRICES,
        faults=[UpdateLoss(loss)],
        signaling=SignalingPolicy.fire_and_forget(),
        seed=seed,
    )
    snapshot = engine.run(SLOTS)
    return engine, snapshot


def main() -> None:
    print("Update-loss drill (hex grid, d=3, m=2, q=0.3, c=0.02):")
    print(f"  {'loss':>6} {'C_T':>8} {'page delay':>11} {'recoveries':>11} "
          f"{'worst cycles':>13}")
    for loss in (0.0, 0.1, 0.3, 0.5):
        engine, snapshot = drill(3, loss)
        worst = max(snapshot.delay_histogram) if snapshot.delay_histogram else 0
        print(
            f"  {loss:>6.0%} {snapshot.mean_total_cost:>8.4f} "
            f"{snapshot.mean_paging_delay:>11.3f} {engine.recovery_pagings:>11} "
            f"{worst:>13}"
        )
    print(
        "\nEvery call was answered at every loss rate: recovery paging trades"
        "\nthe delay bound (on the affected calls only) for correctness."
    )

    print("\nThreshold sweep at 30% signaling loss:")
    print(f"  {'d':>3} {'C_T':>8} {'recoveries':>11} {'mean delay':>11}")
    results = {}
    for d in (1, 2, 3, 5):
        engine, snapshot = drill(d, 0.3, seed=2)
        results[d] = snapshot.mean_total_cost
        print(
            f"  {d:>3} {snapshot.mean_total_cost:>8.4f} "
            f"{engine.recovery_pagings:>11} {snapshot.mean_paging_delay:>11.3f}"
        )
    best = min(results, key=results.get)
    print(
        f"\nTwo things to notice: the recovery burden *falls* with d (fewer"
        f"\nupdates transmitted means fewer messages to lose), and the optimal"
        f"\nthreshold under loss (d={best} here) stays close to the loss-free"
        f"\noptimum -- the scheme is operationally robust, it just pays the"
        f"\nrecovery tax on the calls that follow a lost update."
    )


if __name__ == "__main__":
    main()
