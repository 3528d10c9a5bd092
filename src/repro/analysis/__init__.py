"""Experiment drivers: tables, figures, sweeps, validation, reporting.

This layer turns the core library into the paper's evaluation section:
:mod:`~repro.analysis.tables` and :mod:`~repro.analysis.figures`
regenerate Tables 1-2 and Figures 4-5 (with the published values
embedded in :mod:`~repro.analysis.paper_data` for comparison),
:mod:`~repro.analysis.sweep` provides free-form parameter sweeps,
:mod:`~repro.analysis.validate` runs the simulation-vs-model campaign,
:mod:`~repro.analysis.report` renders tables, plots and CSV, and
:mod:`~repro.analysis.reproduce` writes every paper artifact into one
directory (``repro-lm reproduce``).
"""

from . import paper_data
from .compare import (
    SCHEMES,
    SchemeOutcome,
    TournamentPoint,
    TournamentResult,
    run_tournament,
)
from .crossover import CrossoverMap, compute_crossover_map
from .figures import (
    DELAY_CURVES,
    FigureSeries,
    check_figure_shape,
    compute_figure4,
    compute_figure5,
    gap_closure,
    log_sweep,
    threshold_jumps,
)
from .hexmap import (
    render_hex_map,
    render_occupancy,
    render_paging_order,
    render_ring_distances,
)
from .report import format_delay, render_ascii_plot, render_table, write_csv
from .sweep import (
    MODEL_CLASSES,
    GridSweepResult,
    SweepPoint,
    SweepResult,
    grid_sweep,
    sweep,
)
from .tables import (
    TABLE1_DELAYS,
    TABLE2_DELAYS,
    Table1Entry,
    Table2Entry,
    compute_table1,
    compute_table2,
    table1_rows,
    table2_rows,
)
from .validate import (
    DEFAULT_CASES,
    ValidationCase,
    ValidationOutcome,
    run_validation_campaign,
)

__all__ = [
    "CrossoverMap",
    "DELAY_CURVES",
    "DEFAULT_CASES",
    "FigureSeries",
    "MODEL_CLASSES",
    "GridSweepResult",
    "SCHEMES",
    "SchemeOutcome",
    "SweepPoint",
    "SweepResult",
    "TournamentPoint",
    "TournamentResult",
    "TABLE1_DELAYS",
    "TABLE2_DELAYS",
    "Table1Entry",
    "Table2Entry",
    "ValidationCase",
    "ValidationOutcome",
    "check_figure_shape",
    "compute_crossover_map",
    "compute_figure4",
    "compute_figure5",
    "compute_table1",
    "compute_table2",
    "format_delay",
    "gap_closure",
    "log_sweep",
    "paper_data",
    "render_ascii_plot",
    "render_hex_map",
    "render_occupancy",
    "render_paging_order",
    "render_ring_distances",
    "render_table",
    "grid_sweep",
    "sweep",
    "run_tournament",
    "run_validation_campaign",
    "table1_rows",
    "table2_rows",
    "threshold_jumps",
    "write_csv",
]
