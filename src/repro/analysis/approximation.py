"""Approximation-error report: analytic model vs simulated mobility truth.

The paper's 2-D analysis rests on two stacked approximations: the
ring-index chain aggregates cells into rings (exact on the line, a
ring-averaged approximation on the hex grid), and the simplified
Section 4.2 model further caps ring transitions.  Both are derived
under *memoryless, isotropic* per-slot movement.  This module measures
what happens to those predictions when the mobility process is not
memoryless: it simulates each :data:`MOBILITY_MODELS` preset (uniform
walk, CTRW with geometric / deterministic / hyperexponential /
truncated-Pareto residence times, and a drifted CTRW) against the
analytic exact and approximate models evaluated at the preset's
*effective* move rate, and reports relative errors and a normalized
agreement deviation per mobility model.

The structural result the conformance tier pins: the exponential
(geometric-residence) case must converge -- CTRW with memoryless
residence *is* the paper's walk -- while heavy-tailed residence and
directional drift are exactly the regimes where the analytic model's
error becomes material.  The report quantifies, rather than hides, the
model's domain of validity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from ..core.costs import CostEvaluator
from ..core.models import MODEL_CLASSES
from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError
from ..geometry import HexTopology
from ..mobility.ctrw import MOBILITY_PRESETS, CTRWSpec, mobility_preset

__all__ = [
    "MOBILITY_MODELS",
    "ApproximationRow",
    "ApproximationReport",
    "approximation_report",
    "approximation_rows",
    "write_approximation_artifact",
]

#: Mobility processes the report simulates, in report order.
MOBILITY_MODELS: Tuple[str, ...] = MOBILITY_PRESETS

#: Relative band the normalized deviation falls back to when the
#: replication CI is tighter -- the same 5% criterion 2-D simulation
#: agreement uses everywhere else in the library.
_RELATIVE_BAND = 0.05


@dataclass(frozen=True)
class ApproximationRow:
    """One mobility model's simulated truth vs the analytic predictions.

    ``deviation`` is the normalized agreement deviation against the
    *exact* 2-D model: ``|simulated - exact|`` divided by the larger of
    the replication CI half-width and a 5% relative band -- at most 1.0
    means the analytic model still describes this mobility process at
    the library's standard agreement criterion (``converges``).
    """

    mobility: str
    q_effective: float
    residence_cv2: float
    simulated_cost: float
    ci_half_width: float
    exact_cost: float
    approx_cost: float
    exact_rel_error: float
    approx_rel_error: float
    deviation: float
    converges: bool


@dataclass(frozen=True)
class ApproximationReport:
    """The full table plus the operating point it was measured at."""

    rows: Tuple[ApproximationRow, ...]
    q: float
    c: float
    d: int
    m: int
    update_cost: float
    poll_cost: float
    slots: int
    terminals: int
    seed: int

    def row(self, mobility: str) -> ApproximationRow:
        for row in self.rows:
            if row.mobility == mobility:
                return row
        raise ParameterError(
            f"no row for mobility {mobility!r}; have "
            f"{[r.mobility for r in self.rows]}"
        )


def _relative_error(measured: float, predicted: float) -> float:
    if predicted == 0:
        return math.inf if measured else 0.0
    return abs(measured - predicted) / predicted


def _chain_mobility(
    name: str, spec: Optional[CTRWSpec], q: float, c: float
) -> MobilityParams:
    """The ``(q, c)`` of the 2-D chain that stands in for mobility model
    ``name``, built as ``spec``: its effective move rate, and ``c``."""
    q_eff = q if spec is None else spec.effective_move_probability()
    try:
        return MobilityParams(move_probability=q_eff, call_probability=c)
    except ParameterError as exc:
        hint = (
            "; ctrw-fixed moves every round(1/q) slots, so with c > 0 it "
            "needs q <= 2/3" if name == "ctrw-fixed" else ""
        )
        raise ParameterError(
            f"mobility model {name!r} has the effective move rate q_eff="
            f"{q_eff:g} at q={q:g}, and its chain is invalid ({exc}); leave "
            f"it out of the models (the CLI's --models) or lower q or c{hint}"
        ) from exc


def approximation_report(
    q: float = 0.2,
    c: float = 0.02,
    d: int = 2,
    m: int = 2,
    update_cost: float = 50.0,
    poll_cost: float = 10.0,
    slots: int = 4000,
    terminals: int = 256,
    warmup_slots: int = 500,
    seed: int = 0,
    models: Sequence[str] = MOBILITY_MODELS,
    drift: float = 0.4,
    spec_factory=None,
) -> ApproximationReport:
    """Simulate each mobility preset and compare against the 2-D models.

    Every preset runs on the hex grid under a distance-``d`` strategy
    with delay bound ``m``; the analytic exact
    (:class:`~repro.core.models.TwoDimensionalModel`) and approximate
    (:class:`~repro.core.models.TwoDimensionalApproximateModel`) costs
    are evaluated at the preset's effective per-slot move rate (for a
    residence distribution with mean ``E[T]`` that is ``1/E[T]``), with
    the physical boundary convention -- the rate the simulator actually
    charges updates at.

    ``spec_factory`` overrides how preset names become
    :class:`CTRWSpec` instances (same signature as
    :func:`~repro.mobility.ctrw.mobility_preset`); the conformance
    test-suite uses it to prove the convergence check can fail.
    """
    from ..simulation.vectorized import VectorizedDistanceEngine  # deferred

    if slots < 1:
        # Zero metered slots would report every preset at cost 0.
        raise ParameterError(f"slots must be >= 1, got {slots}")
    unknown = [name for name in models if name not in MOBILITY_MODELS]
    if unknown:
        raise ParameterError(
            f"unknown mobility model(s) {unknown}; expected a subset of "
            f"{MOBILITY_MODELS}"
        )
    repeated = sorted({name for name in models if models.count(name) > 1})
    if repeated:
        raise ParameterError(f"mobility model(s) {repeated} asked for more than once")
    topology = HexTopology()
    costs = CostParams(update_cost=update_cost, poll_cost=poll_cost)
    mobility = MobilityParams(move_probability=q, call_probability=c)
    build_spec = spec_factory if spec_factory is not None else mobility_preset
    # Every model's chain is checked before anything is simulated.
    specs = [(name, build_spec(name, q, drift=drift)) for name in models]
    chains = [_chain_mobility(name, spec, q, c) for name, spec in specs]
    rows = []
    for (name, spec), chain_mobility in zip(specs, chains):
        q_eff = chain_mobility.move_probability
        # A uniform walk's cell residence time is geometric(q).
        cv2 = 1.0 - q if spec is None else spec.residence.cv2()
        # Seeded by the preset's place in MOBILITY_MODELS, so a row does
        # not depend on which other presets the caller asked for.
        engine = VectorizedDistanceEngine(
            topology,
            threshold=d,
            mobility=mobility,
            costs=costs,
            terminals=terminals,
            max_delay=m,
            seed=seed + 101 * MOBILITY_MODELS.index(name),
            walk=spec,
        )
        if warmup_slots:
            engine.run(warmup_slots)
            engine.reset_meters()
        result = engine.run(slots)
        measured = result.mean_total_cost
        ci = result.total_cost_ci()

        exact = MODEL_CLASSES["2d-exact"](chain_mobility)
        approx = MODEL_CLASSES["2d-approx"](chain_mobility)
        exact_cost = CostEvaluator(exact, costs, convention="physical").total_cost(d, m)
        approx_cost = CostEvaluator(approx, costs, convention="physical").total_cost(
            d, m
        )
        band = max(ci if math.isfinite(ci) else 0.0, _RELATIVE_BAND * exact_cost)
        deviation = abs(measured - exact_cost) / band if band > 0 else math.inf
        rows.append(
            ApproximationRow(
                mobility=name,
                q_effective=q_eff,
                residence_cv2=cv2,
                simulated_cost=measured,
                ci_half_width=ci,
                exact_cost=exact_cost,
                approx_cost=approx_cost,
                exact_rel_error=_relative_error(measured, exact_cost),
                approx_rel_error=_relative_error(measured, approx_cost),
                deviation=deviation,
                converges=deviation <= 1.0,
            )
        )
    return ApproximationReport(
        rows=tuple(rows),
        q=q,
        c=c,
        d=d,
        m=m,
        update_cost=update_cost,
        poll_cost=poll_cost,
        slots=slots,
        terminals=terminals,
        seed=seed,
    )


def approximation_rows(report: ApproximationReport) -> list:
    """Render-ready rows for :func:`repro.analysis.report.render_table`."""
    return [
        [
            row.mobility,
            f"{row.q_effective:.4f}",
            f"{row.residence_cv2:.2f}",
            f"{row.simulated_cost:.4f}",
            f"{row.exact_cost:.4f}",
            f"{100 * row.exact_rel_error:.2f}%",
            f"{100 * row.approx_rel_error:.2f}%",
            f"{row.deviation:.2f}",
            "yes" if row.converges else "no",
        ]
        for row in report.rows
    ]


def write_approximation_artifact(
    path: Union[str, Path],
    report: ApproximationReport,
) -> Path:
    """Persist a report as a provenance-stamped JSONL artifact.

    One ``kind="approximation"`` record per mobility model, behind the
    standard provenance header -- the same file format (and
    :func:`~repro.observability.export.read_artifact` reader) the
    CLI's ``--metrics-out`` and conformance ``--report`` use.
    """
    from ..observability import context as _obs_context  # deferred
    from ..observability.export import build_provenance, write_artifact  # deferred

    provenance = build_provenance(
        "approx",
        params={
            "q": report.q,
            "c": report.c,
            "d": report.d,
            "m": report.m,
            "U": report.update_cost,
            "V": report.poll_cost,
            "slots": report.slots,
            "terminals": report.terminals,
            "models": ",".join(row.mobility for row in report.rows),
        },
        seed=report.seed,
    )
    records = [{"kind": "approximation", **asdict(row)} for row in report.rows]
    with _obs_context.session(metrics=False, trace=False) as obs:
        return write_artifact(path, obs, provenance, extra_records=records)
