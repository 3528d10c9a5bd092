#!/usr/bin/env python3
"""Regenerate ``perfbench/reference_counts.json``.

The ``approx`` and ``fleet`` ops are checked against the exact event
counts the counter RNG produces for every seed of their pools.  Run from
the repository root; the script refuses to overwrite the committed file
without ``--force``::

    python3 perfbench/make_reference.py [--force]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.analysis.approximation import approximation_report  # noqa: E402

from perfbench import approx, fleet  # noqa: E402
from perfbench.common import REFERENCE_PATH  # noqa: E402

APPROX_POOL = range(64)
FLEET_POOL = range(32)


def approx_reference() -> dict:
    seeds, analytic, worst = {}, {}, 0.0
    for seed in APPROX_POOL:
        rows = approx.replay(seed)
        report = approximation_report(seed=seed, **approx.PARAMS)
        summary = {name: {k: row[k] for k in approx.ROW_KEYS} for name, row in rows.items()}
        if summary != approx.report_summary(report):
            raise SystemExit(f"seed {seed}: the replay disagrees with the report")
        for row in report.rows:
            analytic[row.mobility] = {
                "q_effective": row.q_effective,
                "exact_cost": row.exact_cost,
                "approx_cost": row.approx_cost,
            }
        uniform = rows[approx.UNIFORM]
        worst = max(worst, abs(uniform["simulated_cost"] - uniform["exact_cost"]) / uniform["exact_cost"])
        seeds[str(seed)] = {
            name: {key: rows[name][key] for key in (*approx.COUNT_KEYS, "simulated_cost")}
            for name in approx.CTRW_PRESETS
        }
    if worst > approx.UNIFORM_TOLERANCE:
        raise SystemExit(f"uniform row off by {worst:.1%} on a pool seed")
    print(f"approx: {len(seeds)} seeds, worst uniform error {worst:.1%}")
    return {
        "params": approx.PARAMS,
        "analytic": analytic,
        "uniform_worst_relative_error": worst,
        "seeds": seeds,
    }


def fleet_reference() -> dict:
    spec = fleet.build_population()
    seeds = {}
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as scratch:
        for seed in FLEET_POOL:
            result, _ = fleet.run(spec, seed, Path(scratch) / "checkpoint.json")
            seeds[str(seed)] = fleet.totals(result)
    print(f"fleet: {len(seeds)} seeds")
    return {
        "params": fleet.PARAMS,
        "population_fingerprint": spec.fingerprint(),
        "seeds": seeds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="overwrite the committed file")
    args = parser.parse_args()
    if REFERENCE_PATH.exists() and not args.force:
        print(f"{REFERENCE_PATH} exists; pass --force to regenerate it", file=sys.stderr)
        return 1
    payload = {"approx": approx_reference(), "fleet": fleet_reference()}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
