#!/usr/bin/env python
"""MOBILITY: CTRW stepping overhead vs the built-in uniform walk.

    PYTHONPATH=src python benchmarks/bench_mobility.py [--smoke] [--max-overhead X]

Times :class:`repro.simulation.vectorized.VectorizedDistanceEngine`
slot throughput with the built-in uniform walk (counter-RNG path) and
with each CTRW mobility preset (geometric, deterministic,
hyperexponential, truncated-Pareto residence, and directional drift),
at the same terminal count and slot budget.  The CTRW path carries a
per-terminal residence clock and per-expiry distribution sampling, so
it is expected to cost more per slot; the gate bounds that overhead so
a regression in the CTRW kernels is caught, not hidden.

Also times the per-cell :class:`~repro.simulation.engine.SimulationEngine`
with a CTRW walker against its uniform-walk baseline, and verifies the
ctrw-exp preset's measured cost lands within CI-plus-5% of the uniform
walk's (the degeneracy law the conformance tier pins -- here it doubles
as a correctness guard on the timed fast path).

Plain script (no pytest-benchmark dependency) so CI can run it in
smoke mode on every supported Python version.  Writes
``benchmarks/out/mobility.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.parameters import CostParams, MobilityParams  # noqa: E402
from repro.geometry import HexTopology  # noqa: E402
from repro.mobility.ctrw import MOBILITY_PRESETS, mobility_preset  # noqa: E402
from repro.observability.export import build_provenance  # noqa: E402
from repro.simulation.engine import SimulationEngine  # noqa: E402
from repro.simulation.vectorized import VectorizedDistanceEngine  # noqa: E402
from repro.strategies.distance import DistanceStrategy  # noqa: E402

OUT_DIR = Path(__file__).parent / "out"

Q, C = 0.2, 0.02
D, M = 2, 2
COSTS = CostParams(update_cost=50.0, poll_cost=10.0)

#: Allowed slowdown of the slowest CTRW preset relative to the uniform
#: counter-RNG path in the vectorized engine.  The CTRW block adds
#: residence-clock rounds with per-expiry sampling; smoke runs measure
#: about 2x, and the margin covers shared CI hardware.
DEFAULT_MAX_OVERHEAD = 4.0


def _vectorized_rate(spec, terminals: int, slots: int) -> float:
    topology = HexTopology()
    engine = VectorizedDistanceEngine(
        topology,
        threshold=D,
        mobility=MobilityParams(move_probability=Q, call_probability=C),
        costs=COSTS,
        terminals=terminals,
        max_delay=M,
        seed=7,
        walk=spec,
    )
    engine.run(64)  # touch lazily-built tables before timing
    start = time.perf_counter()
    engine.run(slots)
    elapsed = time.perf_counter() - start
    return terminals * slots / elapsed


def _vectorized_cost(spec, terminals: int, slots: int):
    topology = HexTopology()
    engine = VectorizedDistanceEngine(
        topology,
        threshold=D,
        mobility=MobilityParams(move_probability=Q, call_probability=C),
        costs=COSTS,
        terminals=terminals,
        max_delay=M,
        seed=11,
        walk=spec,
    )
    engine.run(max(200, slots // 8))
    engine.reset_meters()
    result = engine.run(slots)
    return result.mean_total_cost, result.total_cost_ci()


def _per_cell_rate(spec, slots: int) -> float:
    engine = SimulationEngine(
        topology=HexTopology(),
        strategy=DistanceStrategy(D, max_delay=M),
        mobility=MobilityParams(move_probability=Q, call_probability=C),
        costs=COSTS,
        seed=7,
        walker_factory=None if spec is None else spec.walker_factory(),
    )
    engine.run(64)
    start = time.perf_counter()
    engine.run(slots)
    elapsed = time.perf_counter() - start
    return slots / elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--max-overhead", type=float,
                        default=DEFAULT_MAX_OVERHEAD,
                        help="max allowed uniform/CTRW throughput ratio "
                        f"(default {DEFAULT_MAX_OVERHEAD})")
    args = parser.parse_args(argv)

    if args.smoke:
        terminals, slots, per_cell_slots, check_slots = 128, 1500, 15_000, 3000
    else:
        terminals, slots, per_cell_slots, check_slots = 1024, 8000, 120_000, 20_000

    rates = {}
    rates["uniform"] = _vectorized_rate(None, terminals, slots)
    for name in MOBILITY_PRESETS:
        if name == "uniform":
            continue
        spec = mobility_preset(name, Q)
        rates[name] = _vectorized_rate(spec, terminals, slots)
    slowest = min(rate for name, rate in rates.items() if name != "uniform")
    overhead = rates["uniform"] / slowest

    per_cell = {
        "uniform": _per_cell_rate(None, per_cell_slots),
        "ctrw-exp": _per_cell_rate(mobility_preset("ctrw-exp", Q), per_cell_slots),
    }

    uniform_cost, uniform_ci = _vectorized_cost(None, terminals, check_slots)
    exp_cost, exp_ci = _vectorized_cost(
        mobility_preset("ctrw-exp", Q), terminals, check_slots
    )
    band = uniform_ci + exp_ci + 0.05 * uniform_cost
    degenerate_ok = abs(uniform_cost - exp_cost) <= band

    print(f"vectorized slot-terminal throughput (terminals={terminals}):")
    for name, rate in rates.items():
        print(f"  {name:<12} {rate:>12.0f} /s")
    print(f"CTRW overhead (uniform / slowest preset): {overhead:.2f}x "
          f"(max allowed {args.max_overhead:.1f}x)")
    print("per-cell engine slots/s: "
          + ", ".join(f"{k}={v:.0f}" for k, v in per_cell.items()))
    print(f"degeneracy: uniform {uniform_cost:.4f}+/-{uniform_ci:.4f} vs "
          f"ctrw-exp {exp_cost:.4f}+/-{exp_ci:.4f} -> "
          f"{'ok' if degenerate_ok else 'FAIL'}")

    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "provenance": build_provenance(
            "bench-mobility",
            params={"terminals": terminals, "slots": slots,
                    "smoke": args.smoke},
            seed=7,
        ),
        "vectorized_rates": rates,
        "per_cell_rates": per_cell,
        "overhead": overhead,
        "degeneracy": {
            "uniform": uniform_cost,
            "ctrw_exp": exp_cost,
            "band": band,
            "ok": degenerate_ok,
        },
    }
    (OUT_DIR / "mobility.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote {OUT_DIR / 'mobility.json'}")

    if overhead > args.max_overhead:
        print(f"FAIL: CTRW overhead {overhead:.2f}x exceeds "
              f"{args.max_overhead:.1f}x", file=sys.stderr)
        return 1
    if not degenerate_ok:
        print("FAIL: ctrw-exp did not degenerate to the uniform walk",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
