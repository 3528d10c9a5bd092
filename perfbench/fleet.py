"""``fleet``: one 1,000,000-terminal fleet run per op.

The population is sampled once in set-up from the default mix with the
``repro-lm fleet`` defaults (population seed 0, U 50, V 2, m 2,
per-profile thresholds searched up to d 30).  Op ``i`` is ``run_fleet``
over 8 shards for 8 slots in this process, with event seed ``i`` of a
pool of seeds in the order the benchmark seed picks, checkpointing
every shard to a fresh file.  The counter-RNG step runs on columns far
larger than the L2 cache; shard construction, the merge and the
checkpoint writes are the rest.  Event totals must equal
``reference_counts.json`` exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from repro.core.parameters import CostParams
from repro.simulation.fleet import FleetResult, FleetSpec, run_fleet
from repro.workload.profiles import DEFAULT_MIX, Population

from .common import REFERENCE_PATH, BaseWorkload, load_json, no_span, seed_order

PARAMS = {
    "terminals": 1_000_000,
    "shards": 8,
    "slots": 8,
    "population_seed": 0,
    "update_cost": 50.0,
    "poll_cost": 2.0,
    "max_delay": 2,
    "d_max": 30,
}
COUNT_KEYS = ("moves", "updates", "calls", "polled_cells")


def build_population() -> FleetSpec:
    p = PARAMS
    return FleetSpec.from_population(
        Population(DEFAULT_MIX),
        p["terminals"],
        CostParams(p["update_cost"], p["poll_cost"]),
        p["max_delay"],
        seed=p["population_seed"],
        d_max=p["d_max"],
    )


def run(spec: FleetSpec, seed: int, checkpoint: Path):
    """One op: the fleet run and its checkpoint's size (the file is removed)."""
    try:
        result = run_fleet(
            spec,
            slots=PARAMS["slots"],
            shards=PARAMS["shards"],
            seed=seed,
            workers=1,
            checkpoint=checkpoint,
        )
        return result, checkpoint.stat().st_size
    finally:
        checkpoint.unlink(missing_ok=True)


def totals(result: FleetResult) -> Dict[str, int]:
    return {key: getattr(result, key) for key in COUNT_KEYS}


class Workload(BaseWorkload):
    calibration = "stream"

    def __init__(self, seed, workdir, span=no_span):
        super().__init__(seed, workdir)
        reference = load_json(REFERENCE_PATH)["fleet"]
        if reference["params"] != PARAMS:
            raise ValueError(
                f"reference counts were made at {reference['params']}, not {PARAMS}"
            )
        with span("workload.profiles", terminals=PARAMS["terminals"]):
            self.spec = build_population()
        if self.spec.fingerprint() != reference["population_fingerprint"]:
            raise ValueError("the sampled population is not the reference population")
        self.reference = reference
        self.order = seed_order(seed, [int(s) for s in reference["seeds"]])
        workdir.mkdir(parents=True, exist_ok=True)

    def op_seed(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def op(self, i):
        return run(self.spec, self.op_seed(i), self.workdir / f"checkpoint-{i}.json")

    def check(self, i, output):
        result, checkpoint_bytes = output
        problems = []
        expected = self.reference["seeds"][str(self.op_seed(i))]
        if totals(result) != expected:
            problems.append(f"event totals {totals(result)}, reference {expected}")
        if result.terminal_slots != PARAMS["terminals"] * PARAMS["slots"]:
            problems.append(f"{result.terminal_slots} terminal-slots simulated")
        if len(result.shards) != PARAMS["shards"]:
            problems.append(f"{len(result.shards)} shards merged")
        if checkpoint_bytes <= 0:
            problems.append("empty checkpoint")
        return problems

    def summary(self, output):
        result, checkpoint_bytes = output
        return totals(result), checkpoint_bytes

    def traced_op(self, i, span):
        with span("simulation.fleet", terminals=PARAMS["terminals"], slots=PARAMS["slots"]):
            output = self.op(i)
        result, checkpoint_bytes = output
        counts = {f"simulation.fleet.{key}": value for key, value in totals(result).items()}
        counts["simulation.fleet.terminal_slots"] = result.terminal_slots
        counts["persist.checkpoint_bytes"] = checkpoint_bytes
        return self.summary(output), counts
