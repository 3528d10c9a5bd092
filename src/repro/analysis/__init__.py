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

from .. import _lazy
from . import paper_data

# Every re-export loads its submodule on first access, so ``import
# repro.analysis.tables`` loads neither the sweep machinery, nor the
# simulators, nor the conformance checks.  ``sweep`` is the function in
# any import order, though it shares its submodule's name (see _lazy).
_lazy.lazy_exports(globals(), {
    "compare": (
        "SCHEMES", "SchemeOutcome", "TournamentPoint", "TournamentResult",
        "run_tournament",
    ),
    "crossover": ("CrossoverMap", "compute_crossover_map"),
    "figures": (
        "DELAY_CURVES", "FigureSeries", "check_figure_shape", "compute_figure4",
        "compute_figure5", "gap_closure", "log_sweep", "threshold_jumps",
    ),
    "hexmap": (
        "render_hex_map", "render_occupancy", "render_paging_order",
        "render_ring_distances",
    ),
    "report": ("format_delay", "render_ascii_plot", "render_table", "write_csv"),
    "sweep": (
        "MODEL_CLASSES", "GridSweepResult", "SweepPoint", "SweepResult", "grid_sweep",
        "sweep",
    ),
    "tables": (
        "TABLE1_DELAYS", "TABLE2_DELAYS", "Table1Entry", "Table2Entry",
        "compute_table1", "compute_table2", "table1_rows", "table2_rows",
    ),
    "validate": (
        "DEFAULT_CASES", "ValidationCase", "ValidationOutcome",
        "run_validation_campaign",
    ),
})

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
