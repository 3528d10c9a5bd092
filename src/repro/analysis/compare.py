"""Cross-scheme tournament: which location-management scheme wins where.

Drives every registered analytic scheme -- the paper's distance-based
scheme, the movement/timer baselines of reference [3], the static
location-area scheme of reference [8], and the jointly optimized
paging+registration policy of Hajek/Mitzel/Yang -- over a Cartesian
grid of operating points ``(q, c, U, V, m)`` and records, per point,
each scheme's optimized steady-state cost and the winning scheme.

The distance scheme rides the cached :func:`~repro.analysis.sweep.
grid_sweep` (which also defines the canonical row-major point order);
the blanket-paging baselines are the closed forms in
:mod:`repro.core.baselines`; the joint policy runs
:func:`~repro.strategies.jointly_optimal.optimize_joint_policy` at
every point, started from that point's sweep optimum ``(d*, C_T)``, so
the joint leg runs no threshold search of its own -- on a warm sweep
cache it prices no SDF cost surface at all.  When the sweep solves
serially in-process, the joint leg takes over each ``(q, c)`` chain's
model from it, so every chain is solved once.  The baselines blanket-page
a single polling cycle, so they satisfy any delay bound ``m >= 1`` and
their costs do not vary along the ``m`` axis.

Search bounds scale with ``d_max`` so small tournaments stay cheap:
distance and joint thresholds scan ``0..d_max``, movement thresholds
``1..d_max``, timer periods ``1..2 d_max``, LA radii ``0..d_max``.

Winners are decided by ascending scan over :data:`SCHEMES` with the
same ``1e-15`` strict-improvement rule the per-scheme searchers use,
so exact ties go to the earlier scheme in that canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.baselines import (
    BaselineCosts,
    optimal_la_radius,
    optimal_movement_threshold,
    optimal_timer_period,
)
from ..core.models import MobilityModel
from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError
from ..strategies.jointly_optimal import optimize_joint_policy
from .sweep import MODEL_CLASSES, GridSweepResult, _grid_sweep

__all__ = [
    "SCHEMES",
    "SchemeOutcome",
    "TournamentPoint",
    "TournamentResult",
    "run_tournament",
]

#: Canonical scheme order -- also the winner tie-break order.
SCHEMES: Tuple[str, ...] = (
    "distance",
    "movement",
    "timer",
    "location-area",
    "jointly-optimal",
)

_TIE_TOLERANCE = 1e-15


@dataclass(frozen=True)
class SchemeOutcome:
    """One scheme's optimized operating point at one grid point."""

    scheme: str
    #: The scheme's tuned parameter: threshold ``d`` (distance, joint),
    #: movement count ``M``, timer period ``T``, or LA radius ``n``.
    parameter: int
    update_cost: float
    paging_cost: float
    #: Extra description, e.g. the joint policy's paging-plan layout.
    detail: str = ""

    @property
    def total_cost(self) -> float:
        return self.update_cost + self.paging_cost


@dataclass(frozen=True)
class TournamentPoint:
    """All schemes' outcomes at one ``(q, c, U, V, m)`` grid point."""

    q: float
    c: float
    update_cost: float
    poll_cost: float
    max_delay: float
    outcomes: Tuple[SchemeOutcome, ...]
    winner: str

    def outcome(self, scheme: str) -> SchemeOutcome:
        for entry in self.outcomes:
            if entry.scheme == scheme:
                return entry
        raise ParameterError(
            f"scheme {scheme!r} was not part of this tournament; "
            f"ran: {[entry.scheme for entry in self.outcomes]}"
        )


@dataclass(frozen=True)
class TournamentResult:
    """A solved tournament over a parameter grid.

    ``points`` follows :class:`~repro.analysis.sweep.GridSweepResult`'s
    row-major canonical ``(q, c, U, V, m)`` axis order.
    """

    model_name: str
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...]
    schemes: Tuple[str, ...]
    points: Tuple[TournamentPoint, ...]
    d_max: int
    convention: str
    #: True when the distance leg was served from the sweep cache.
    from_cache: bool = False

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(values) for _, values in self.axes)

    def winners(self) -> List[str]:
        """The winning scheme per grid point, row-major."""
        return [point.winner for point in self.points]

    def winner_counts(self) -> Dict[str, int]:
        """How many grid points each scheme wins (all schemes listed)."""
        counts = {scheme: 0 for scheme in self.schemes}
        for point in self.points:
            counts[point.winner] += 1
        return counts

    def cost_surface(self, scheme: str) -> List[float]:
        """One scheme's total cost per grid point, row-major."""
        return [point.outcome(scheme).total_cost for point in self.points]

    def to_payload(self) -> dict:
        """JSON-safe representation (``inf`` encoded as ``"inf"``)."""
        return {
            "model": self.model_name,
            "axes": [
                [name, [_json_safe(value) for value in values]]
                for name, values in self.axes
            ],
            "schemes": list(self.schemes),
            "d_max": self.d_max,
            "convention": self.convention,
            "winner_counts": self.winner_counts(),
            "points": [
                {
                    "q": point.q,
                    "c": point.c,
                    "U": point.update_cost,
                    "V": point.poll_cost,
                    "m": _json_safe(point.max_delay),
                    "winner": point.winner,
                    "outcomes": {
                        entry.scheme: {
                            "parameter": entry.parameter,
                            "total_cost": entry.total_cost,
                            "update_cost": entry.update_cost,
                            "paging_cost": entry.paging_cost,
                            "detail": entry.detail,
                        }
                        for entry in point.outcomes
                    },
                }
                for point in self.points
            ],
        }

    def rows(self) -> List[dict]:
        """Flat per-point rows for tables/CSV: one column per scheme."""
        out = []
        for point in self.points:
            row = {
                "q": point.q,
                "c": point.c,
                "U": point.update_cost,
                "V": point.poll_cost,
                "m": "inf" if point.max_delay == math.inf else point.max_delay,
                "winner": point.winner,
            }
            for entry in point.outcomes:
                row[entry.scheme] = entry.total_cost
                row[f"{entry.scheme}_param"] = entry.parameter
            out.append(row)
        return out


def _json_safe(value):
    if value == math.inf:
        return "inf"
    return value


def _pick_winner(outcomes: Sequence[SchemeOutcome]) -> str:
    winner = outcomes[0]
    for entry in outcomes[1:]:
        if entry.total_cost < winner.total_cost - _TIE_TOLERANCE:
            winner = entry
    return winner.scheme


def _baseline_outcome(result: BaselineCosts) -> SchemeOutcome:
    return SchemeOutcome(
        scheme=result.scheme,
        parameter=int(result.parameter),
        update_cost=float(result.update_cost),
        paging_cost=float(result.paging_cost),
    )


def run_tournament(
    model_name: str,
    axes: Dict[str, Sequence[float]],
    q: float = 0.05,
    c: float = 0.01,
    update_cost: float = 100.0,
    poll_cost: float = 10.0,
    max_delay=1,
    d_max: int = 100,
    convention: str = "paper",
    schemes: Optional[Sequence[str]] = None,
    workers: Optional[Union[int, str]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> TournamentResult:
    """Run every scheme over the grid and crown a winner per point.

    Parameters mirror :func:`~repro.analysis.sweep.grid_sweep` (the
    distance leg *is* a grid sweep, including its on-disk cache);
    ``schemes`` restricts the field to a subset of :data:`SCHEMES`
    (``"distance"`` is always included -- it defines the grid).
    """
    if schemes is None:
        selected = SCHEMES
    else:
        unknown = sorted(set(schemes) - set(SCHEMES))
        if unknown:
            raise ParameterError(f"unknown schemes {unknown}; known: {list(SCHEMES)}")
        selected = tuple(s for s in SCHEMES if s in set(schemes) or s == "distance")

    # A serial sweep that solves leaves each chain's model here, with
    # its steady-state solve, for the joint leg to reuse.
    models: Dict[Tuple[float, float], MobilityModel] = {}
    sweep_result: GridSweepResult = _grid_sweep(
        model_name,
        axes,
        q=q,
        c=c,
        update_cost=update_cost,
        poll_cost=poll_cost,
        max_delay=max_delay,
        d_max=d_max,
        convention=convention,
        plan_factory=None,
        workers=workers,
        cache_dir=cache_dir,
        models=models,
    )

    model_cls = MODEL_CLASSES[model_name]
    model = None
    baseline_memo: Dict[tuple, List[SchemeOutcome]] = {}

    points: List[TournamentPoint] = []
    for sweep_point in sweep_result.points:
        mobility = MobilityParams(sweep_point.q, sweep_point.c)
        costs = CostParams(sweep_point.update_cost, sweep_point.poll_cost)
        # Points of one (q, c) are consecutive in the row-major order:
        # one model serves them all, so its steady-state solve and joint
        # evaluator are shared by every (U, V, m) joint policy.  Taking
        # the sweep's model out of ``models`` drops it with this chain.
        chain = (sweep_point.q, sweep_point.c)
        if model is None or (model.q, model.c) != chain:
            model = models.pop(chain, None)
            if model is None:
                model = model_cls(mobility)
        topology = model.topology

        outcomes: List[SchemeOutcome] = [
            SchemeOutcome(
                scheme="distance",
                parameter=sweep_point.optimal_d,
                update_cost=sweep_point.update_component,
                paging_cost=sweep_point.paging_component,
            )
        ]

        # The blanket-paging baselines ignore m; memoize across the m
        # axis (and any duplicated grid values).
        baseline_key = (
            sweep_point.q,
            sweep_point.c,
            sweep_point.update_cost,
            sweep_point.poll_cost,
        )
        cached = baseline_memo.get(baseline_key)
        if cached is None:
            cached = []
            if "movement" in selected:
                cached.append(
                    _baseline_outcome(
                        optimal_movement_threshold(
                            topology, mobility, costs, max_threshold=max(1, d_max)
                        )
                    )
                )
            if "timer" in selected:
                cached.append(
                    _baseline_outcome(
                        optimal_timer_period(
                            topology, mobility, costs, max_period=2 * max(1, d_max)
                        )
                    )
                )
            if "location-area" in selected:
                cached.append(
                    _baseline_outcome(
                        optimal_la_radius(topology, mobility, costs, max_radius=d_max)
                    )
                )
            baseline_memo[baseline_key] = cached
        outcomes.extend(cached)

        if "jointly-optimal" in selected:
            # Sweep points store m as float; the solver wants int | inf.
            # The sweep found this point's distance optimum with the
            # search and arguments the solver would use (its cache
            # returns it exactly), so the solver starts from it.
            m = sweep_point.max_delay
            policy = optimize_joint_policy(
                model,
                costs,
                math.inf if m == math.inf else int(m),
                d_max=d_max,
                convention=convention,
                distance_optimum=(sweep_point.optimal_d, sweep_point.total_cost),
            )
            outcomes.append(
                SchemeOutcome(
                    scheme="jointly-optimal",
                    parameter=policy.threshold,
                    update_cost=policy.update_cost,
                    paging_cost=policy.paging_cost,
                    detail=policy.plan.describe(),
                )
            )

        ordered = tuple(
            sorted(outcomes, key=lambda entry: selected.index(entry.scheme))
        )
        points.append(
            TournamentPoint(
                q=sweep_point.q,
                c=sweep_point.c,
                update_cost=sweep_point.update_cost,
                poll_cost=sweep_point.poll_cost,
                max_delay=sweep_point.max_delay,
                outcomes=ordered,
                winner=_pick_winner(ordered),
            )
        )

    return TournamentResult(
        model_name=model_name,
        axes=sweep_result.axes,
        schemes=selected,
        points=tuple(points),
        d_max=d_max,
        convention=convention,
        from_cache=sweep_result.from_cache,
    )
