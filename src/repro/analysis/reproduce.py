"""One producer for the paper's evaluation: ``repro-lm reproduce``.

Writes Tables 1-2, Figures 4(a)/(b) and 5(a)/(b) (``.txt`` and
``.csv``), the model-vs-simulation campaign (``validation.txt``),
``SUMMARY.txt`` -- every agreement number EXPERIMENTS.md cites -- and
each ablation and extension experiment of
:data:`~repro.analysis.experiments.EXPERIMENTS` (``<id>.txt``) into one
directory, ``results/`` by default.  Each paper artifact has exactly one
renderer here, which the single-artifact commands (``repro-lm table1``,
``table2``, ``fig4``, ``fig5``, ``validate``) print too, so their output
and the committed files cannot drift apart.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .figures import (
    FIGURE_POINTS,
    FigureSeries,
    check_figure_shape,
    compute_figure4,
    compute_figure5,
    gap_closure,
    threshold_jumps,
)
from .report import render_ascii_plot, render_table, write_csv
from .tables import (
    Table1Entry,
    Table2Entry,
    compute_table1,
    compute_table2,
    table1_rows,
    table2_rows,
)
from .validate import CAMPAIGN_SLOTS, ValidationOutcome, run_validation_campaign

__all__ = [
    "FIGURE_POINTS",
    "render_figure",
    "render_table1",
    "render_table2",
    "render_validation",
    "reproduce",
    "write_figures",
    "write_tables",
]

#: ``--quick``: coarse figure sweeps and a short validation campaign.
_QUICK_POINTS = 5
_QUICK_SLOTS = 30_000

Table1 = Dict[float, Dict[float, Table1Entry]]
Table2 = Dict[float, Dict[float, Table2Entry]]


def render_table1(table: Table1) -> str:
    """Table 1 with the published costs alongside (``table1.txt``)."""
    headers, rows = table1_rows(table)
    return render_table(headers, rows, title="Table 1 (1-D): q=0.05 c=0.01 V=10")


def render_table2(table: Table2) -> str:
    """Table 2's exact and near-optimal columns (``table2.txt``)."""
    headers, rows = table2_rows(table)
    return render_table(headers, rows, title="Table 2 (2-D): q=0.05 c=0.01 V=10")


def render_figure(figure: FigureSeries, plot: bool = True) -> str:
    """The series table, an ASCII plot (unless ``plot`` is off), and the
    Section 7 shape check."""
    headers, rows = figure.as_rows()
    parts = [render_table(headers, rows, title=figure.name)]
    if plot:
        series = {figure.curve_label(m): ys for m, ys in figure.curves.items()}
        parts += [
            "",
            render_ascii_plot(
                series, figure.x_values, title=f"optimal C_T vs {figure.x_label}"
            ),
        ]
    parts += ["", f"shape violations: {check_figure_shape(figure) or 'none'}"]
    return "\n".join(parts)


def render_validation(outcomes: Sequence[ValidationOutcome]) -> str:
    """One row per campaign case with its 95% CI (``validation.txt``)."""
    headers = [
        "case", "d", "m", "predicted C_T", "measured C_T", "95% CI", "rel err", "ok",
    ]
    rows = [
        [
            o.case.label,
            o.case.d,
            "inf" if o.case.m == math.inf else int(o.case.m),
            o.comparison.predicted_total,
            o.comparison.measured_total,
            o.comparison.ci_half_width,
            f"{o.comparison.relative_error:.2%}",
            "yes" if o.ok else "NO",
        ]
        for o in outcomes
    ]
    return render_table(headers, rows, title="Model-vs-simulation validation campaign")


def _write(outdir: Path, name: str, text: str, csv_rows=None) -> None:
    (outdir / f"{name}.txt").write_text(text + "\n")
    if csv_rows is not None:
        write_csv(outdir / f"{name}.csv", *csv_rows)


def write_tables(outdir: Path) -> Tuple[Table1, Table2]:
    """Compute Tables 1-2 and write ``table{1,2}.{txt,csv}``."""
    table1, table2 = compute_table1(), compute_table2()
    _write(outdir, "table1", render_table1(table1), table1_rows(table1))
    _write(outdir, "table2", render_table2(table2), table2_rows(table2))
    return table1, table2


def write_figures(outdir: Path, quick: bool = False) -> Dict[str, FigureSeries]:
    """Compute the four figure panels and write ``fig*.{txt,csv}``."""
    figures = {}
    for name, compute in (("fig4", compute_figure4), ("fig5", compute_figure5)):
        points = _QUICK_POINTS if quick else FIGURE_POINTS[name]
        for dimensions, panel in ((1, "a"), (2, "b")):
            figure = compute(dimensions, points=points)
            _write(outdir, name + panel, render_figure(figure), figure.as_rows())
            figures[name + panel] = figure
    return figures


def _published(table) -> list:
    """The cells of a computed table that the paper printed."""
    return [
        entry
        for column in table.values()
        for entry in column.values()
        if entry.paper_cost is not None
    ]


def _summary_lines(
    table1: Table1,
    table2: Table2,
    figures: Dict[str, FigureSeries],
    outcomes: Sequence[ValidationOutcome],
) -> List[str]:
    """Every agreement number EXPERIMENTS.md cites, one artifact a line."""
    cells1, cells2 = _published(table1), _published(table2)
    worst_cost1 = max(abs(e.total_cost - e.paper_cost) for e in cells1)
    worst_cost2 = max(abs(e.total_cost - e.paper_cost) for e in cells2)
    worst_near2 = max(abs(e.near_optimal_cost - e.paper_near_cost) for e in cells2)
    d_star1 = sum(e.optimal_d == e.paper_d for e in cells1)
    d_star2 = sum(e.optimal_d == e.paper_d for e in cells2)
    d_prime2 = sum(e.near_optimal_d == e.paper_near_d for e in cells2)
    lines = [
        f"Table 1: worst |C_T - paper| = {worst_cost1:.4f}; "
        f"d* agrees in {d_star1}/{len(cells1)} cells",
        f"Table 2: worst |C_T - paper| = {worst_cost2:.4f}, "
        f"worst |C'_T - paper| = {worst_near2:.4f}; "
        f"d* agrees in {d_star2}/{len(cells2)}, d' in {d_prime2}/{len(cells2)} cells",
    ]
    for name, figure in figures.items():
        ceiling = max(max(ys) for ys in figure.curves.values())
        line = (
            f"{name}: shape violations = {len(check_figure_shape(figure))}; "
            f"ceiling = {ceiling:.3f}"
        )
        if name == "fig5a":
            line += f"; d* jumps along the sweep = {threshold_jumps(figure)}"
        if name == "fig5b":
            line += f"; delay 2 closes {gap_closure(figure, 2):.0%} of the delay-1 gap"
        lines.append(line)
    worst = {
        dimensions: max(
            o.comparison.relative_error
            for o in outcomes
            if o.case.dimensions == dimensions
        )
        for dimensions in (1, 2)
    }
    lines.append(
        f"validation: {sum(o.ok for o in outcomes)}/{len(outcomes)} cases agree; "
        f"worst relative error {worst[1]:.2%} (1-D), {worst[2]:.2%} (2-D)"
    )
    return lines


def reproduce(outdir, quick: bool = False) -> List[str]:
    """Write every paper artifact and experiment into ``outdir``; returns
    the summary.

    ``quick`` sweeps each figure at 5 points and simulates 30,000 slots
    per replication instead of the documented 13/17 points and 120,000
    slots, and leaves the experiments out, since none of them has a
    smaller size that keeps its numbers -- for smoke runs; the committed
    ``results/`` use the default.
    """
    from .experiments import EXPERIMENTS

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table1, table2 = write_tables(outdir)
    figures = write_figures(outdir, quick)
    outcomes = run_validation_campaign(
        slots=_QUICK_SLOTS if quick else CAMPAIGN_SLOTS
    )
    _write(outdir, "validation", render_validation(outcomes))
    lines = _summary_lines(table1, table2, figures, outcomes)
    (outdir / "SUMMARY.txt").write_text("\n".join(lines) + "\n")
    if not quick:
        for experiment_id, experiment in EXPERIMENTS.items():
            _write(outdir, experiment_id, experiment.render(experiment.compute()))
    return lines
