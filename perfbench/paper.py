"""``paper``: one row of the paper's evaluation per op.

Op ``i`` computes, for one of the 28 update costs ``U`` of Tables 1-2,
the Table 1 row (1-D model at delay bounds 1, 2, 3 and unbounded) and
the Table 2 row (2-D exact model, plus the near-optimal threshold of the
2-D approximate model, at delay bounds 1, 3 and unbounded), and, for one
of the five golden points, the value of Figures 4a, 4b, 5a and 5b at the
four delay bounds.  That is 23 exhaustive threshold searches (the
paper's D+1 scan) and 3 near-optimal searches; nothing is simulated.

Ops walk the 140 (``U``, figure point) pairs in order from a start the
seed picks, so inputs recur, and every optimum is interior (the largest
d* is 59, below the search bounds of 100 and 120).  Every value must
match the committed golden files at 1e-9.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.analysis import paper_data
from repro.analysis.figures import DELAY_CURVES, log_sweep
from repro.analysis.tables import TABLE1_DELAYS, TABLE2_DELAYS
from repro.core.models import OneDimensionalModel, TwoDimensionalModel
from repro.core.near_optimal import near_optimal_threshold
from repro.core.parameters import CostParams, MobilityParams
from repro.core.threshold import find_optimal_threshold

from .common import GOLDEN_DIR, BaseWorkload, close, delay_key, load_json, no_span

#: The search bounds the golden files were produced with: the tables'
#: and the figures' own defaults.
TABLE_D_MAX = 100
FIGURE_D_MAX = 120
#: Samples per golden figure curve.
FIGURE_POINTS = 5
FIGURES = ("figure4a", "figure4b", "figure5a", "figure5b")
#: The golden suite's float tolerance.
GOLDEN_TOLERANCE = 1e-9
U_VALUES = paper_data.TABLE_U_VALUES
#: 28 update costs times 5 figure points; the counts are coprime, so
#: one cycle visits every pair.
CYCLE = len(U_VALUES) * FIGURE_POINTS


class Workload(BaseWorkload):
    def __init__(self, seed, workdir, span=no_span):
        super().__init__(seed, workdir)
        self.golden = {
            stem: load_json(GOLDEN_DIR / f"{stem}.json")
            for stem in ("table1", "table2", *FIGURES)
        }
        f4, f5 = paper_data.FIGURE4_PARAMS, paper_data.FIGURE5_PARAMS
        q_axis = log_sweep(f4["q_min"], f4["q_max"], FIGURE_POINTS)
        c_axis = log_sweep(f5["c_min"], f5["c_max"], FIGURE_POINTS)
        f4_points = [MobilityParams(q, f4["c"]) for q in q_axis]
        f5_points = [MobilityParams(f5["q"], c) for c in c_axis]
        f4_costs = CostParams(f4["U"], f4["V"])
        f5_costs = CostParams(f5["U"], f5["V"])
        #: figure -> (model class, costs, x axis, mobility per point)
        self.figures = {
            "figure4a": (OneDimensionalModel, f4_costs, q_axis, f4_points),
            "figure4b": (TwoDimensionalModel, f4_costs, q_axis, f4_points),
            "figure5a": (OneDimensionalModel, f5_costs, c_axis, f5_points),
            "figure5b": (TwoDimensionalModel, f5_costs, c_axis, f5_points),
        }
        for name, (_, _, axis, _) in self.figures.items():
            golden_axis = self.golden[name]["x_values"]
            if len(golden_axis) != len(axis) or not all(
                close(x, g, GOLDEN_TOLERANCE) for x, g in zip(axis, golden_axis)
            ):
                raise ValueError(f"{name}: x axis {axis} is not the golden {golden_axis}")
        self.start = random.Random(seed).randrange(CYCLE)

    def op(self, i, span=no_span):
        k = (self.start + i) % CYCLE
        update_cost = float(U_VALUES[k % len(U_VALUES)])
        point = k % FIGURE_POINTS
        t1, t2 = paper_data.TABLE1_PARAMS, paper_data.TABLE2_PARAMS
        row = {"U": update_cost, "point": point}
        row["table1"] = _searches(
            span,
            OneDimensionalModel(MobilityParams(t1["q"], t1["c"])),
            CostParams(update_cost, t1["V"]),
            TABLE1_DELAYS,
            TABLE_D_MAX,
        )
        mobility = MobilityParams(t2["q"], t2["c"])
        costs = CostParams(update_cost, t2["V"])
        row["table2"] = _searches(
            span, TwoDimensionalModel(mobility), costs, TABLE2_DELAYS, TABLE_D_MAX
        )
        for m in TABLE2_DELAYS:
            with span("core.near_optimal", model="2d-approx", q=mobility.q, c=mobility.c):
                near = near_optimal_threshold(
                    mobility, costs, m, d_max=TABLE_D_MAX, apply_correction=False
                )
            row["table2"][delay_key(m)].update(
                near_d=near.threshold, near_cost=near.exact_cost
            )
        for name, (model_class, figure_costs, _, points) in self.figures.items():
            row[name] = _searches(
                span, model_class(points[point]), figure_costs, DELAY_CURVES, FIGURE_D_MAX
            )
        return row

    def check(self, i, row):
        u_key = str(int(row["U"]))
        point = row["point"]
        problems = []
        for table in ("table1", "table2"):
            for m, entry in row[table].items():
                problems += _mismatches(
                    f"{table} U={u_key} m={m}", entry, self.golden[table][m][u_key]
                )
        for name in FIGURES:
            golden = self.golden[name]
            for m, entry in row[name].items():
                expected = {
                    "d": golden["thresholds"][m][point],
                    "cost": golden["curves"][m][point],
                }
                problems += _mismatches(f"{name} point {point} m={m}", entry, expected)
        return problems

    def traced_op(self, i, span):
        row = self.op(i, span)
        at_bound = sum(
            entry["at_bound"]
            for part in ("table1", "table2", *FIGURES)
            for entry in row[part].values()
        )
        return row, {"core.threshold.at_bound": at_bound}


def _searches(span, model, costs, delays, d_max) -> Dict[str, dict]:
    """One row's exhaustive threshold search at every delay bound."""
    out = {}
    for m in delays:
        with span("core.threshold", model=model.name, q=model.q, c=model.c):
            solution = find_optimal_threshold(model, costs, m, d_max=d_max)
        out[delay_key(m)] = {
            "d": solution.threshold,
            "cost": solution.total_cost,
            "at_bound": solution.threshold == d_max,
        }
    return out


def _mismatches(where: str, entry: dict, expected: dict) -> List[str]:
    problems = []
    for key, want in expected.items():
        got = entry.get(key)
        if isinstance(want, int):
            ok = got == want
        else:
            ok = isinstance(got, float) and close(got, want, GOLDEN_TOLERANCE)
        if not ok:
            problems.append(f"{where} {key}={got!r}, golden {want!r}")
    return problems
