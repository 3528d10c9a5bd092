#!/usr/bin/env python
"""THROUGHPUT: per-cell engine vs vectorized distance engine, plus the
sharded fleet gate.

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke] [--min-speedup X]
    PYTHONPATH=src python benchmarks/bench_throughput.py --fleet-only \\
        --fleet-terminals 1000000 --fleet-workers 4

Measures slots/sec of :class:`repro.simulation.SimulationEngine` and
terminal-slots/sec of
:class:`repro.simulation.VectorizedDistanceEngine` at the acceptance
operating point (d=3, m=1, q=0.3, c=0.01) on both geometries, prints a
table, and writes ``benchmarks/out/throughput.json`` (and
``observability.json``).  ``--smoke`` runs write every file into the
git-ignored ``benchmarks/out/smoke/`` instead, so CI never rewrites the
committed full-size results.

``--fleet`` (or ``--fleet-only``) additionally runs the sharded
heterogeneous fleet engine and writes ``benchmarks/out/fleet.json``,
asserting the bounded-RSS contract: peak RSS of the parent and of the
worker pool must stay under ``base + bytes_per_terminal * N`` -- any
change that starts materializing per-terminal history blows through
the budget by orders of magnitude.  CI smoke runs 100k terminals; the
nightly ``slow`` test runs the full million.

Unlike the pytest-benchmark benches this is a plain script (no
pytest-benchmark dependency) so CI can run it in smoke mode -- tiny
slot counts that exercise the vectorized path on every supported
Python version without burning minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.parameters import CostParams, MobilityParams  # noqa: E402
from repro.geometry import HexTopology, LineTopology  # noqa: E402
from repro.observability import noop_session  # noqa: E402
from repro.observability.export import build_provenance  # noqa: E402
from repro.simulation.vectorized import throughput_report  # noqa: E402

OUT_DIR = Path(__file__).parent / "out"

#: The acceptance operating point from the issue.
THRESHOLD = 3
MAX_DELAY = 1
MOBILITY = MobilityParams(move_probability=0.3, call_probability=0.01)
COSTS = CostParams(update_cost=100.0, poll_cost=10.0)


def measure_observability_overhead(
    slots: int = 6_000,
    repeats: int = 9,
    seed: int = 0,
    trials: int = 4,
    early_exit_below: Optional[float] = None,
) -> dict:
    """Worst-case instrumentation cost on the per-cell engine hot loop.

    Times engine.run with the default DISABLED context (instrument
    handles are never even created) against
    :func:`repro.observability.noop_session` (every instrumentation call
    is made, against no-op sinks -- the upper bound of what an armed
    registry can cost before any recording work).

    Estimator: each repeat times the two variants back to back
    (alternating which goes first, so a ratio is immune to
    CPU-frequency drift between batches); a *trial* is the median of
    ``repeats`` such pair ratios; the reported overhead is the minimum
    over up to ``trials`` trials.  On a shared box single-trial
    estimates swing several percent from scheduler noise alone, but
    noise only ever inflates the ratio's tails -- the minimum converges
    on the true cost, while a genuine regression above the guard floors
    every trial above it.  ``early_exit_below`` stops trialling as soon
    as one estimate lands under the guard (the common case costs one
    trial).
    """
    from statistics import median

    from repro.simulation.engine import SimulationEngine
    from repro.strategies.distance import DistanceStrategy

    def build() -> SimulationEngine:
        return SimulationEngine(
            topology=HexTopology(),
            strategy=DistanceStrategy(THRESHOLD, max_delay=MAX_DELAY),
            mobility=MOBILITY,
            costs=COSTS,
            seed=seed,
        )

    def timed(armed: bool) -> float:
        if armed:
            with noop_session():
                engine = build()
                tic = time.perf_counter()
                engine.run(slots)
                return time.perf_counter() - tic
        engine = build()
        tic = time.perf_counter()
        engine.run(slots)
        return time.perf_counter() - tic

    timed(False)  # warm both paths before measuring
    timed(True)
    estimates = []
    disabled, armed = [], []
    for _ in range(trials):
        ratios = []
        for i in range(repeats):
            if i % 2 == 0:
                d = timed(False)
                a = timed(True)
            else:
                a = timed(True)
                d = timed(False)
            disabled.append(d)
            armed.append(a)
            ratios.append(a / d)
        estimates.append(median(ratios) - 1.0)
        if early_exit_below is not None and estimates[-1] <= early_exit_below:
            break
    return {
        "slots": slots,
        "repeats": repeats,
        "seed": seed,
        "trials_run": len(estimates),
        "trial_estimates": estimates,
        "disabled_best_seconds": min(disabled),
        "noop_armed_best_seconds": min(armed),
        "overhead_fraction": min(estimates),
    }


def run_fleet_gate(
    terminals: int,
    shards: int,
    slots: int,
    workers: int,
    seed: int = 0,
    out_dir: Path = OUT_DIR,
) -> dict:
    """Run the fleet bench and write ``fleet.json`` into ``out_dir``.

    The returned report carries ``rss_within_budget``; callers decide
    whether to gate on it (``main`` does).
    """
    from repro.simulation.fleet import fleet_report

    report = fleet_report(
        terminals,
        shards=shards,
        slots=slots,
        workers=workers if workers > 1 else None,
        seed=seed,
    )
    report["provenance"] = build_provenance(
        "bench:fleet",
        {"terminals": terminals, "shards": shards, "slots": slots,
         "workers": workers},
        seed=seed,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "fleet.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    rss = report["peak_rss_bytes"]
    print(
        f"fleet: {terminals:,} terminals x {report['config']['slots']} slots "
        f"({shards} shards, {workers} worker(s)): "
        f"{report['terminal_slots_per_sec']:,.0f} terminal-slots/s, "
        f"peak RSS {rss['max'] / 2**20:,.0f} MiB "
        f"(budget {report['rss_budget_bytes'] / 2**20:,.0f} MiB); "
        f"wrote {out_path}"
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny slot counts: exercise the code paths, not the hardware",
    )
    parser.add_argument("--engine-slots", type=int, default=None)
    parser.add_argument("--vector-slots", type=int, default=None)
    parser.add_argument("--terminals", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="exit non-zero if the 2-D speedup falls below this factor",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.02,
        help="exit non-zero if armed-but-no-op observability slows the "
        "per-cell engine by more than this fraction (default 0.02)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="also run the sharded fleet gate (writes benchmarks/out/"
        "fleet.json, asserts the bounded-RSS budget)",
    )
    parser.add_argument(
        "--fleet-only", action="store_true",
        help="run only the fleet gate, skipping the engine benches",
    )
    parser.add_argument("--fleet-terminals", type=int, default=100_000)
    parser.add_argument("--fleet-shards", type=int, default=8)
    parser.add_argument("--fleet-slots", type=int, default=None,
                        help="default: 20 in smoke mode, 50 otherwise")
    parser.add_argument("--fleet-workers", type=int, default=2)
    args = parser.parse_args(argv)
    out_dir = OUT_DIR / "smoke" if args.smoke else OUT_DIR

    if args.fleet_only:
        report = run_fleet_gate(
            terminals=args.fleet_terminals,
            shards=args.fleet_shards,
            slots=args.fleet_slots or (20 if args.smoke else 50),
            workers=args.fleet_workers,
            seed=args.seed,
            out_dir=out_dir,
        )
        if not report["rss_within_budget"]:
            print(
                f"FAIL: fleet peak RSS {report['peak_rss_bytes']['max']:,} "
                f"bytes exceeds budget {report['rss_budget_bytes']:,}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.smoke:
        engine_slots = args.engine_slots or 2_000
        vector_slots = args.vector_slots or 500
        terminals = args.terminals or 64
    else:
        engine_slots = args.engine_slots or 50_000
        vector_slots = args.vector_slots or 10_000
        terminals = args.terminals or 4096

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "provenance": build_provenance(
            "bench:throughput",
            {"engine_slots": engine_slots, "vector_slots": vector_slots,
             "terminals": terminals, "smoke": args.smoke},
            seed=args.seed,
        ),
        "point": {
            "threshold": THRESHOLD,
            "max_delay": MAX_DELAY,
            "q": MOBILITY.move_probability,
            "c": MOBILITY.call_probability,
        },
        "geometries": {},
    }
    rows = []
    for label, topology in (("1d-line", LineTopology()), ("2d-hex", HexTopology())):
        report = throughput_report(
            topology=topology,
            threshold=THRESHOLD,
            mobility=MOBILITY,
            costs=COSTS,
            max_delay=MAX_DELAY,
            engine_slots=engine_slots,
            vector_slots=vector_slots,
            terminals=terminals,
            seed=args.seed,
        )
        payload["geometries"][label] = report
        rows.append((label, report))

    print(f"Throughput at d={THRESHOLD}, m={MAX_DELAY}, "
          f"q={MOBILITY.move_probability}, c={MOBILITY.call_probability} "
          f"({payload['mode']} mode, K={terminals}):")
    for label, report in rows:
        eng = report["engine"]["slots_per_sec"]
        vec = report["vectorized"]["slots_per_sec"]
        print(f"  {label:8s} engine {eng:>14,.0f} slots/s | "
              f"vectorized {vec:>14,.0f} terminal-slots/s | "
              f"speedup {report['speedup']:7.1f}x")

    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "throughput.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    overhead = measure_observability_overhead(
        slots=2_000 if args.smoke else 6_000,
        seed=args.seed,
        early_exit_below=args.max_overhead,
    )
    overhead["max_allowed_fraction"] = args.max_overhead
    overhead["provenance"] = build_provenance(
        "bench:observability",
        {"slots": overhead["slots"], "smoke": args.smoke},
        seed=args.seed,
    )
    obs_path = out_dir / "observability.json"
    obs_path.write_text(json.dumps(overhead, indent=2, sort_keys=True) + "\n")
    print(
        f"observability overhead (no-op armed vs disabled): "
        f"{overhead['overhead_fraction']:+.2%} "
        f"(guard: <{args.max_overhead:.0%}); wrote {obs_path}"
    )

    hex_speedup = payload["geometries"]["2d-hex"]["speedup"]
    if args.min_speedup and hex_speedup < args.min_speedup:
        print(
            f"FAIL: 2-D speedup {hex_speedup:.1f}x below required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    if overhead["overhead_fraction"] > args.max_overhead:
        print(
            f"FAIL: no-op observability overhead "
            f"{overhead['overhead_fraction']:.2%} exceeds the "
            f"{args.max_overhead:.0%} guard",
            file=sys.stderr,
        )
        return 1
    if args.fleet:
        report = run_fleet_gate(
            terminals=args.fleet_terminals,
            shards=args.fleet_shards,
            slots=args.fleet_slots or (20 if args.smoke else 50),
            workers=args.fleet_workers,
            seed=args.seed,
            out_dir=out_dir,
        )
        if not report["rss_within_budget"]:
            print(
                f"FAIL: fleet peak RSS {report['peak_rss_bytes']['max']:,} "
                f"bytes exceeds budget {report['rss_budget_bytes']:,}",
                file=sys.stderr,
            )
            return 1
    return 0


def test_throughput_smoke():
    """Pytest hook so ``pytest benchmarks/`` also exercises the bench."""
    assert main(["--smoke"]) == 0


def test_fleet_smoke():
    """CI fleet gate: 100k terminals, RSS bound asserted."""
    assert main(["--smoke", "--fleet-only"]) == 0


try:  # pytest is absent when this file runs as a plain script
    import pytest as _pytest

    _slow = _pytest.mark.slow
except ImportError:  # pragma: no cover
    def _slow(function):
        return function


@_slow
def test_fleet_million():
    """Nightly fleet gate: the full million terminals, bounded RSS.

    Marked slow; the fast CI job deselects it with ``-m 'not slow'``.
    """
    assert main([
        "--fleet-only",
        "--fleet-terminals", "1000000",
        "--fleet-shards", "16",
        "--fleet-workers", "4",
        "--fleet-slots", "25",
    ]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
