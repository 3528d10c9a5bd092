"""High-level optimal-threshold API.

Ties together the model, cost evaluator, and searcher into the
operation a network operator actually performs: "given this user's
``(q, c)``, these costs ``(U, V)``, and a delay budget ``m``, what
threshold distance should the terminal use, and what will it cost?"

The default exhaustive search reads the whole cost curve as one array
-- the read-only ``C_T`` vector of the evaluator's batched cost row,
scanned in place, whenever the evaluator pages with the SDF partition
-- and replays the scan's tie-breaking over it with
:func:`~repro.core.optimizers.scan_curve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..exceptions import ParameterError
from .costs import CostBreakdown, CostEvaluator, PlanFactory
from .models import MobilityModel
from .optimizers import (
    OptimizationResult,
    exhaustive_search,
    hill_climb,
    scan_curve,
    simulated_annealing,
)
from .parameters import CostParams, validate_delay, validate_threshold

__all__ = ["ThresholdSolution", "find_optimal_threshold", "DEFAULT_MAX_THRESHOLD"]

#: Default search bound ``D``.  Section 6: "for typical call arrival and
#: mobility values, the optimal distance rarely exceeds 50"; Table 1
#: reaches ``d* = 52`` at ``U = 1000``, so we leave headroom.
DEFAULT_MAX_THRESHOLD = 100


@dataclass(frozen=True)
class ThresholdSolution:
    """An optimized operating point for one terminal."""

    threshold: int
    delay_bound: float
    breakdown: CostBreakdown
    search: OptimizationResult

    @property
    def total_cost(self) -> float:
        """Optimal average total cost ``C_T(d*, m)``."""
        return self.breakdown.total_cost

    @property
    def update_cost(self) -> float:
        """``C_u(d*)`` component."""
        return self.breakdown.update_cost

    @property
    def paging_cost(self) -> float:
        """``C_v(d*, m)`` component."""
        return self.breakdown.paging_cost


def find_optimal_threshold(
    model: MobilityModel,
    costs: CostParams,
    max_delay,
    d_max: int = DEFAULT_MAX_THRESHOLD,
    method: str = "exhaustive",
    plan_factory: Optional[PlanFactory] = None,
    convention: str = "paper",
    seed: int = 0,
) -> ThresholdSolution:
    """Find the threshold minimizing ``C_T(d, m)`` over ``0 <= d <= d_max``.

    Parameters
    ----------
    model:
        The terminal's mobility model (fixes geometry and ``q, c``).
    costs:
        Update and polling costs ``(U, V)``.
    max_delay:
        Delay bound ``m`` in polling cycles (``math.inf`` = unbounded).
    method:
        ``"exhaustive"`` (default; guaranteed optimum, the paper's
        ``D + 1``-iteration method, served by the batched cost row of
        :mod:`repro.core.batch` whenever the evaluator pages with the
        default SDF partition), ``"exhaustive-scalar"`` (the
        same scan forced through the per-threshold scalar path -- the
        cross-check reference), ``"annealing"`` (the paper's simulated
        annealing), or ``"hill"`` (greedy baseline).
    plan_factory, convention:
        Forwarded to :class:`CostEvaluator`.
    seed:
        RNG seed for the annealing method.
    """
    m = validate_delay(max_delay)
    d_max = validate_threshold(d_max)
    evaluator = CostEvaluator(
        model, costs, plan_factory=plan_factory, convention=convention
    )

    def objective(d: int) -> float:
        return evaluator.total_cost(d, m)

    if method == "exhaustive":
        # Scan the whole curve at once -- the batched cost row's C_T in
        # place when possible -- replaying the scan's tie-breaking and
        # evaluation accounting over the array.
        search = scan_curve(evaluator._total_curve(m, d_max))
    elif method == "exhaustive-scalar":
        search = exhaustive_search(objective, d_max)
    elif method == "annealing":
        search = simulated_annealing(objective, d_max, seed=seed)
    elif method == "hill":
        search = hill_climb(objective, d_max)
    else:
        raise ParameterError(
            f"unknown method {method!r}; expected "
            "exhaustive/exhaustive-scalar/annealing/hill"
        )
    # The winning point's breakdown is a memo (or cost-row) hit:
    # every evaluation path above populates the evaluator's caches, so
    # nothing is re-solved here.
    breakdown = evaluator.breakdown(search.optimal_threshold, m)
    return ThresholdSolution(
        threshold=search.optimal_threshold,
        delay_bound=m if m == math.inf else int(m),
        breakdown=breakdown,
        search=search,
    )
