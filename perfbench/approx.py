"""``approx``: one small CTRW approximation report per op.

Op ``i`` is ``repro-lm approx`` at the CLI's operating point (q 0.2,
c 0.02, d 2, m 2, U 50, V 10, drift 0.4) with the CLI's 256 terminals
but 50 warm-up and 200 metered slots:
:func:`~repro.analysis.approximation.approximation_report` over all six
mobility presets.  Its seed is entry ``i`` of a pool of seeds, in the
order the benchmark seed picks.

The five CTRW presets run the stateless counter RNG, so their simulated
costs must equal ``reference_counts.json`` (to 1e-12, far below one
event's share of the cost), and the traced replay's event counts must
equal it exactly.  The ``uniform`` preset still runs the sequential
PCG64 step, so it is checked against the exact 2-D model instead, with
a tolerance that no pool seed comes near.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.approximation import MOBILITY_MODELS, approximation_report
from repro.core.costs import CostEvaluator
from repro.core.models import TwoDimensionalApproximateModel, TwoDimensionalModel
from repro.core.parameters import CostParams, MobilityParams
from repro.geometry import HexTopology
from repro.mobility.ctrw import mobility_preset
from repro.simulation.vectorized import VectorizedDistanceEngine

from .common import REFERENCE_PATH, BaseWorkload, close, load_json, no_span, seed_order

PARAMS = {
    "q": 0.2,
    "c": 0.02,
    "d": 2,
    "m": 2,
    "update_cost": 50.0,
    "poll_cost": 10.0,
    "slots": 200,
    "terminals": 256,
    "warmup_slots": 50,
    "drift": 0.4,
}
UNIFORM = "uniform"
CTRW_PRESETS = tuple(name for name in MOBILITY_MODELS if name != UNIFORM)
COUNT_KEYS = ("moves", "updates", "calls", "polled_cells")
ROW_KEYS = ("simulated_cost", "ci_half_width", "exact_cost", "approx_cost")
#: Tolerance of the CTRW rows' simulated costs against the reference.
SIMULATED_TOLERANCE = 1e-12
#: Tolerance of the analytic exact and approximate costs.
ANALYTIC_TOLERANCE = 1e-9
#: Largest accepted |simulated - exact| / exact of the uniform row.
UNIFORM_TOLERANCE = 0.25


def replay(seed: int, span=no_span) -> Dict[str, dict]:
    """``approximation_report``'s steps as separate public calls.

    Per preset: engine build, warm-up run, meter reset, metered run,
    pooled result, then the analytic exact and approximate costs at the
    preset's effective move rate.  Returns the report's values by
    preset, with the metered run's event counts added.
    """
    p = PARAMS
    topology = HexTopology()
    costs = CostParams(p["update_cost"], p["poll_cost"])
    mobility = MobilityParams(p["q"], p["c"])
    rows = {}
    for index, name in enumerate(MOBILITY_MODELS):
        spec = mobility_preset(name, p["q"], drift=p["drift"])
        with span("simulation.vectorized.build", mobility=name):
            engine = VectorizedDistanceEngine(
                topology,
                threshold=p["d"],
                mobility=mobility,
                costs=costs,
                terminals=p["terminals"],
                max_delay=p["m"],
                seed=seed + 101 * index,
                walk=spec,
            )
        with span("simulation.vectorized.run", slots=p["warmup_slots"]):
            engine.run(p["warmup_slots"])
        with span("simulation.vectorized.reset"):
            engine.reset_meters()
        with span("simulation.vectorized.run", slots=p["slots"]):
            result = engine.run(p["slots"])
        with span("simulation.vectorized.result"):
            row = {
                "simulated_cost": result.mean_total_cost,
                "ci_half_width": result.total_cost_ci(),
            }
            for key in COUNT_KEYS:
                row[key] = sum(getattr(snapshot, key) for snapshot in result.snapshots)
        q_eff = p["q"] if spec is None else spec.effective_move_probability()
        chain = MobilityParams(q_eff, p["c"])
        with span("core.costs"):
            row["exact_cost"] = CostEvaluator(
                TwoDimensionalModel(chain), costs, convention="physical"
            ).total_cost(p["d"], p["m"])
            row["approx_cost"] = CostEvaluator(
                TwoDimensionalApproximateModel(chain), costs, convention="physical"
            ).total_cost(p["d"], p["m"])
        rows[name] = row
    return rows


def report_summary(report) -> Dict[str, dict]:
    """The report's values by preset, in the form :func:`replay` returns."""
    return {
        row.mobility: {key: getattr(row, key) for key in ROW_KEYS}
        for row in report.rows
    }


class Workload(BaseWorkload):
    calibration = "mixed"

    def __init__(self, seed, workdir, span=no_span):
        super().__init__(seed, workdir)
        reference = load_json(REFERENCE_PATH)["approx"]
        if reference["params"] != PARAMS:
            raise ValueError(
                f"reference counts were made at {reference['params']}, not {PARAMS}"
            )
        self.reference = reference
        self.order = seed_order(seed, [int(s) for s in reference["seeds"]])

    def op_seed(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def op(self, i):
        return approximation_report(seed=self.op_seed(i), **PARAMS)

    def check(self, i, report):
        rows = {row.mobility: row for row in report.rows}
        if list(rows) != list(MOBILITY_MODELS):
            return [f"rows {list(rows)}, expected {list(MOBILITY_MODELS)}"]
        analytic = self.reference["analytic"]
        problems = []
        for name, row in rows.items():
            for key in ("q_effective", "exact_cost", "approx_cost"):
                got, want = getattr(row, key), analytic[name][key]
                if not close(got, want, ANALYTIC_TOLERANCE):
                    problems.append(f"{name} {key}={got!r}, reference {want!r}")
        exact = analytic[UNIFORM]["exact_cost"]
        error = abs(rows[UNIFORM].simulated_cost - exact) / exact
        if error > UNIFORM_TOLERANCE:
            problems.append(
                f"uniform simulated cost is {error:.1%} off the exact 2-D model"
            )
        expected = self.reference["seeds"][str(self.op_seed(i))]
        for name in CTRW_PRESETS:
            got, want = rows[name].simulated_cost, expected[name]["simulated_cost"]
            if not close(got, want, SIMULATED_TOLERANCE):
                problems.append(f"{name} simulated cost {got!r}, reference {want!r}")
        return problems

    def summary(self, report):
        return report_summary(report)

    def traced_op(self, i, span):
        rows = replay(self.op_seed(i), span)
        summary = {name: {key: row[key] for key in ROW_KEYS} for name, row in rows.items()}
        counts = {
            f"{name}.{key}": rows[name][key] for name in CTRW_PRESETS for key in COUNT_KEYS
        }
        for key in COUNT_KEYS:
            counts[f"simulation.vectorized.{key}"] = sum(
                rows[name][key] for name in CTRW_PRESETS
            )
        counts["simulation.vectorized.terminal_slots"] = (
            len(rows) * PARAMS["terminals"] * (PARAMS["warmup_slots"] + PARAMS["slots"])
        )
        return summary, counts

    def check_counts(self, i, counts):
        expected = self.reference["seeds"][str(self.op_seed(i))]
        return [
            f"{name} {key}={counts[f'{name}.{key}']}, reference {expected[name][key]}"
            for name in CTRW_PRESETS
            for key in COUNT_KEYS
            if counts[f"{name}.{key}"] != expected[name][key]
        ]
