"""Location update and terminal paging costs (paper Section 5).

Given a mobility model, threshold ``d``, delay bound ``m``, and cost
weights ``(U, V)``:

* average location update cost per slot (eqn (61)):
  ``C_u(d) = p_{d,d} * a_{d,d+1} * U``;
* average paging cost per slot (eqns (62)-(65)):
  ``C_v(d, m) = c V sum_j alpha_j w_j`` for the chosen partition, which
  reduces to ``c g(d) V`` when ``m = 1`` (blanket polling);
* average total cost (eqn (66)): ``C_T(d, m) = C_u(d) + C_v(d, m)``.

The partition defaults to the paper's SDF scheme but any
:class:`~repro.paging.PagingPlan` factory can be supplied, which is how
the optimal-partition ablation is wired up.

Evaluation strategy
-------------------

Breakdowns are memoized per ``(d, m)``: repeated queries -- an
exhaustive search followed by a breakdown at the optimum, say -- solve
each operating point once.  :meth:`CostEvaluator.cost_curve` prefers
the batched solver of :mod:`repro.core.batch` whenever the evaluator
uses the default SDF partition on a model with threshold-invariant
rates: it prices one cost row per delay bound -- ``C_u``, ``C_v``,
``C_T``, expected cells and delay over every threshold, from O(D)
prefix sums of one memoized steady-state solve and the vectors kept
on that solve -- and serves a cached row only at the
exact ``d_max`` it was priced at.  The threshold searches scan the
row's read-only ``C_T`` vector in place rather than the list
``cost_curve`` returns, and read the optimum's breakdown from the same
row.  The per-point scalar path remains available (``method="scalar"``)
as the cross-check reference and is used automatically for custom plan
factories and threshold-dependent rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..exceptions import ParameterError
from ..observability.context import current as _observability
from ..paging import PagingPlan, sdf_partition
from .batch import _cost_row, _CostRow, _row_vectors
from .models import MobilityModel
from .parameters import CostParams, validate_delay, validate_threshold

__all__ = ["CostBreakdown", "CostEvaluator", "PlanFactory"]

#: Signature of a partition factory: maps (model, d, m) to a plan.
#: ``model`` is passed so factories can use the steady-state
#: distribution (the DP-optimal partition needs it).
PlanFactory = Callable[[MobilityModel, int, object], PagingPlan]


def _sdf_factory(model: MobilityModel, d: int, m) -> PagingPlan:
    return sdf_partition(d, m)


@dataclass(frozen=True)
class CostBreakdown:
    """The cost components of one ``(d, m)`` operating point."""

    threshold: int
    delay_bound: float
    update_cost: float
    paging_cost: float
    expected_polled_cells: float
    expected_delay: float

    @property
    def total_cost(self) -> float:
        """``C_T = C_u + C_v`` (paper eqn (66))."""
        return self.update_cost + self.paging_cost


class CostEvaluator:
    """Evaluates ``C_u``, ``C_v``, and ``C_T`` for one model and cost pair.

    Parameters
    ----------
    model:
        A :class:`~repro.core.models.MobilityModel` (fixes ``q, c`` and
        the geometry).
    costs:
        The ``(U, V)`` weights.
    plan_factory:
        Optional partition factory; defaults to the paper's SDF scheme.
    convention:
        Boundary-rate convention for ``C_u`` at ``d = 0``; ``"paper"``
        reproduces the published tables (see models module docstring).
    """

    def __init__(
        self,
        model: MobilityModel,
        costs: CostParams,
        plan_factory: Optional[PlanFactory] = None,
        convention: str = "paper",
    ) -> None:
        self.model = model
        self.costs = costs
        self.plan_factory = plan_factory or _sdf_factory
        self.convention = convention
        #: Memoized breakdowns keyed by ``(d, m)``; populated by every
        #: evaluation path so an optimizer's winning point is never
        #: re-solved for its report.
        self._breakdowns: Dict[Tuple[int, float], CostBreakdown] = {}
        #: The last batched cost row priced per delay bound (see
        #: :meth:`_row`).
        self._rows: Dict[float, _CostRow] = {}

    # ------------------------------------------------------------------

    @property
    def uses_sdf_partition(self) -> bool:
        """True when this evaluator pages with the paper's SDF scheme."""
        return self.plan_factory is _sdf_factory

    def _can_batch(self) -> bool:
        return self.uses_sdf_partition and getattr(
            self.model, "threshold_invariant_rates", False
        )

    def update_cost(self, d: int) -> float:
        """``C_u(d)`` -- average location update cost per slot (eqn (61))."""
        d = validate_threshold(d)
        p = self.model.steady_state(d)
        rate = self.model.update_rate(d, convention=self.convention)
        return float(p[d]) * rate * self.costs.update_cost

    def plan(self, d: int, m) -> PagingPlan:
        """The paging plan this evaluator uses at ``(d, m)``."""
        return self.plan_factory(self.model, validate_threshold(d), validate_delay(m))

    def _paging_cost_from_cells(self, cells: float) -> float:
        """``C_v = c V E[polled cells]`` -- the outer factor of eqn (65)."""
        return self.model.c * self.costs.poll_cost * cells

    def paging_cost(self, d: int, m) -> float:
        """``C_v(d, m)`` -- average paging cost per slot (eqn (65)).

        Served from the breakdown memo when the point was already
        evaluated; otherwise computes only the paging component (no
        update-cost work).
        """
        d = validate_threshold(d)
        m = validate_delay(m)
        cached = self._breakdowns.get((d, m))
        if cached is not None:
            return cached.paging_cost
        p = self.model.steady_state(d)
        plan = self.plan(d, m)
        cells = plan.expected_polled_cells(self.model.topology, p)
        return self._paging_cost_from_cells(cells)

    def total_cost(self, d: int, m) -> float:
        """``C_T(d, m) = C_u(d) + C_v(d, m)`` (eqn (66))."""
        return self.breakdown(d, m).total_cost

    def breakdown(self, d: int, m) -> CostBreakdown:
        """Full cost decomposition at one operating point (memoized)."""
        d = validate_threshold(d)
        m = validate_delay(m)
        key = (d, m)
        registry = _observability().registry
        cached = self._breakdowns.get(key)
        if cached is not None:
            registry.counter(
                "analytic_memo_hits_total", model=self.model.name
            ).inc()
            return cached
        row = self._rows.get(m)
        if row is not None and d < row.update.size:
            registry.counter(
                "analytic_solves_total", model=self.model.name, path="surface"
            ).inc()
            breakdown = CostBreakdown(
                threshold=d,
                delay_bound=m if m == math.inf else int(m),
                update_cost=float(row.update[d]),
                paging_cost=float(row.paging[d]),
                expected_polled_cells=float(row.cells[d]),
                expected_delay=float(row.delay[d]),
            )
            self._breakdowns[key] = breakdown
            return breakdown
        return self._scalar_breakdown(d, m)

    def _scalar_breakdown(self, d: int, m) -> CostBreakdown:
        """The breakdown at a validated ``(d, m)`` from this point's own
        steady-state solve and paging plan, memoized; never read from a
        batched row."""
        _observability().registry.counter(
            "analytic_solves_total", model=self.model.name, path="scalar"
        ).inc()
        p = self.model.steady_state(d)
        plan = self.plan(d, m)
        cells = plan.expected_polled_cells(self.model.topology, p)
        breakdown = CostBreakdown(
            threshold=d,
            delay_bound=m if m == math.inf else int(m),
            update_cost=self.update_cost(d),
            paging_cost=self._paging_cost_from_cells(cells),
            expected_polled_cells=cells,
            expected_delay=plan.expected_delay(p),
        )
        self._breakdowns[(d, m)] = breakdown
        return breakdown

    # ------------------------------------------------------------------

    def _row(self, m, d_max: int) -> Optional[_CostRow]:
        """The batched cost row of delay ``m`` over ``0 .. d_max`` (see
        :func:`repro.core.batch._cost_row`), priced once per exact
        ``d_max``; ``total``, the one vector handed out, is read-only.

        A row priced at another ``d_max`` is priced again rather than
        sliced or extended: its steady states come from another prefix
        solve, whose backward ratios start elsewhere, so reusing it
        would make a curve depend on what this evaluator was asked
        before.  Returns None when this evaluator cannot batch (custom
        plan factory, or threshold-dependent rates).
        """
        row = self._rows.get(m)
        if row is not None and row.update.size == d_max + 1:
            return row
        if not self._can_batch():
            return None
        with _observability().tracer.span(
            "analytic.compute_cost_surface",
            model=self.model.name,
            d_max=d_max,
            delay=str(m),
        ):
            chain, coverage, crossing = _row_vectors(
                self.model, d_max, self.convention
            )
            row = _cost_row(
                self.model, self.costs, m, chain, coverage,
                crossing * self.costs.update_cost,
            )
        row.total.flags.writeable = False
        self._rows[m] = row
        return row

    def cost_curve(self, m, d_max: int, method: str = "auto"):
        """Return ``[C_T(0, m), ..., C_T(d_max, m)]`` as a list of floats.

        The raw material for both the exhaustive optimizer and the
        figure benches.  ``method`` selects the evaluation path:

        ``"auto"``
            the batched surface solver when the evaluator pages with
            the default SDF partition (prefix sums of one steady-state
            solve for all thresholds), falling back to the scalar loop
            otherwise;
        ``"batched"``
            force the batched solver; raises
            :class:`~repro.exceptions.ParameterError` if this
            evaluator cannot batch;
        ``"scalar"``
            force the per-threshold reference path (the cross-check
            used by ``benchmarks/bench_analytic.py``).
        """
        m = validate_delay(m)
        d_max = validate_threshold(d_max)
        if method not in ("auto", "batched", "scalar"):
            raise ParameterError(
                f"unknown cost_curve method {method!r}; "
                "expected auto/batched/scalar"
            )
        if method == "batched" and not self._can_batch():
            raise ParameterError(
                "this evaluator cannot use the batched surface (custom "
                "plan factory or threshold-dependent rates); use "
                "method='auto' or 'scalar'"
            )
        return self._total_curve(m, d_max, batched=method != "scalar").tolist()

    def _total_curve(self, m, d_max: int, batched: bool = True) -> np.ndarray:
        """``C_T(0 .. d_max, m)`` for a validated ``(m, d_max)`` as one
        vector -- what the threshold searches scan: the batched cost
        row's read-only ``total`` when ``batched`` and this evaluator
        can batch, else an array of per-threshold scalar solves (which
        read neither a row nor the memo, so the reference curve is the
        scalar one whatever this evaluator priced before).
        """
        row = self._row(m, d_max) if batched else None
        if row is not None:
            return row.total
        return np.array(
            [self._scalar_breakdown(d, m).total_cost for d in range(d_max + 1)],
            dtype=float,
        )

    def __repr__(self) -> str:
        return (
            f"CostEvaluator(model={self.model!r}, U={self.costs.update_cost}, "
            f"V={self.costs.poll_cost}, convention={self.convention!r})"
        )
