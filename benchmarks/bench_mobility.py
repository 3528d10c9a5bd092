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

Estimator: each preset is timed in ``REPEATS`` back-to-back pairs
with the uniform walk, alternating which runs first, and its overhead
is the median of the pair ratios -- the estimator of
``bench_throughput.measure_observability_overhead``.  A single timing
per preset swung the ratio from 2.4x to 4.0x between runs of the same
code on a shared 2-vCPU host; a slowdown that lasts only part of a run
moves both sides of the pairs it hits and cancels in their ratios.

Also times the per-cell :class:`~repro.simulation.engine.SimulationEngine`
with a CTRW walker against its uniform-walk baseline, and verifies the
ctrw-exp preset's measured cost lands within CI-plus-5% of the uniform
walk's (the degeneracy law the conformance tier pins -- here it doubles
as a correctness guard on the timed fast path).

Plain script (no pytest-benchmark dependency) so CI can run it in
smoke mode on every supported Python version.  Writes
``benchmarks/out/mobility.json`` (``benchmarks/out/smoke/`` with
``--smoke``, which is git-ignored).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

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
#: counter-RNG path in the vectorized engine.  The CTRW block adds a
#: hashed residence grid and one gather-and-invert round per move of its
#: busiest terminal; smoke runs (K = 128, where per-call dispatch
#: dominates) measure 2.8-3.0x, full-size runs (K = 1024) about 2.4x,
#: both with ctrw-hyper the slowest preset.
DEFAULT_MAX_OVERHEAD = 4.0

#: Alternating uniform/CTRW timing pairs per preset.
REPEATS = 9


def _vectorized_timer(spec, terminals: int, slots: int):
    """A function that times ``slots`` more slots of one warmed engine."""
    engine = VectorizedDistanceEngine(
        HexTopology(),
        threshold=D,
        mobility=MobilityParams(move_probability=Q, call_probability=C),
        costs=COSTS,
        terminals=terminals,
        max_delay=M,
        seed=7,
        walk=spec,
    )
    engine.run(64)  # touch lazily-built tables before timing

    def timed() -> float:
        start = time.perf_counter()
        engine.run(slots)
        return time.perf_counter() - start

    return timed


def measure_ctrw_overhead(terminals: int, slots: int):
    """``(rates, overheads)``: each walk's median terminal-slots/s, and
    each CTRW preset's median time ratio to the uniform walk over
    ``REPEATS`` alternating back-to-back pairs."""
    uniform = _vectorized_timer(None, terminals, slots)
    seconds = {"uniform": []}
    overheads = {}
    for name in MOBILITY_PRESETS:
        if name == "uniform":
            continue
        ctrw = _vectorized_timer(mobility_preset(name, Q), terminals, slots)
        seconds[name] = []
        ratios = []
        for i in range(REPEATS):
            if i % 2 == 0:
                u = uniform()
                c = ctrw()
            else:
                c = ctrw()
                u = uniform()
            seconds["uniform"].append(u)
            seconds[name].append(c)
            ratios.append(c / u)
        overheads[name] = median(ratios)
    rates = {name: terminals * slots / median(s) for name, s in seconds.items()}
    return rates, overheads


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

    rates, overheads = measure_ctrw_overhead(terminals, slots)
    overhead = max(overheads.values())

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

    print(f"vectorized slot-terminal throughput (terminals={terminals}, "
          f"median of {REPEATS}):")
    for name, rate in rates.items():
        ratio = f"  {overheads[name]:.2f}x uniform" if name in overheads else ""
        print(f"  {name:<12} {rate:>12.0f} /s{ratio}")
    print(f"CTRW overhead (slowest preset's median pair ratio): {overhead:.2f}x "
          f"(max allowed {args.max_overhead:.1f}x)")
    print("per-cell engine slots/s: "
          + ", ".join(f"{k}={v:.0f}" for k, v in per_cell.items()))
    print(f"degeneracy: uniform {uniform_cost:.4f}+/-{uniform_ci:.4f} vs "
          f"ctrw-exp {exp_cost:.4f}+/-{exp_ci:.4f} -> "
          f"{'ok' if degenerate_ok else 'FAIL'}")

    out_dir = OUT_DIR / "smoke" if args.smoke else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "provenance": build_provenance(
            "bench-mobility",
            params={"terminals": terminals, "slots": slots,
                    "repeats": REPEATS, "smoke": args.smoke},
            seed=7,
        ),
        "vectorized_rates": rates,
        "per_cell_rates": per_cell,
        "overhead": overhead,
        "overhead_by_preset": overheads,
        "degeneracy": {
            "uniform": uniform_cost,
            "ctrw_exp": exp_cost,
            "band": band,
            "ok": degenerate_ok,
        },
    }
    (out_dir / "mobility.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote {out_dir / 'mobility.json'}")

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
