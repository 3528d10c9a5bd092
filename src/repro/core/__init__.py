"""The paper's primary contribution: models, costs, and optimization.

Submodules
----------

``parameters``
    validated ``(q, c)`` and ``(U, V)`` parameter objects;
``chains``
    the generic birth-death-with-reset Markov chain and its matrix and
    recursive steady-state solvers;
``closed_form``
    the paper's closed-form steady states (Sections 3.2, 4.2);
``models``
    the 1-D, 2-D exact, and 2-D approximate mobility models;
``costs``
    update/paging/total cost evaluation (Section 5);
``batch``
    batched cost-surface solver: all thresholds from O(D) prefix sums
    of one steady-state solve (the fast path behind every exhaustive
    scan);
``optimizers``
    exhaustive search and simulated annealing (Section 6);
``threshold``
    the high-level "find my optimal threshold" entry point;
``near_optimal``
    the computation-constrained near-optimal scheme (Section 7).
"""

from .baselines import (
    BaselineCosts,
    location_area_costs,
    movement_based_costs,
    optimal_la_radius,
    optimal_movement_threshold,
    optimal_timer_period,
    time_based_costs,
)
from .batch import (
    CostSurfaceGrid,
    batched_steady_states,
    batched_update_costs,
    batched_update_rates,
    compute_cost_surface,
)
from .chains import ResetChain, solve_steady_state_matrix, solve_steady_state_recursive
from .costs import CostBreakdown, CostEvaluator
from .derived import PolicyMetrics, derive_metrics
from .delay_penalty import (
    SoftDelayPolicy,
    optimal_soft_delay_partition,
    optimize_soft_delay,
)
from .movement_chain import (
    movement_staged_costs,
    optimal_staged_movement_threshold,
)
from .models import (
    MobilityModel,
    OneDimensionalModel,
    SquareGridApproximateModel,
    SquareGridModel,
    TwoDimensionalApproximateModel,
    TwoDimensionalModel,
)
from .near_optimal import NearOptimalSolution, near_optimal_threshold
from .policy_io import Policy, policy_from_solution
from .sensitivity import RegretPoint, misestimation_regret, regret_surface
from .transient import TransientAnalysis, distribution_at, mixing_time, transient_cost
from .optimizers import (
    OptimizationResult,
    exhaustive_search,
    hill_climb,
    simulated_annealing,
)
from .parameters import CostParams, MobilityParams, validate_delay, validate_threshold
from .threshold import DEFAULT_MAX_THRESHOLD, ThresholdSolution, find_optimal_threshold

__all__ = [
    "BaselineCosts",
    "CostBreakdown",
    "CostSurfaceGrid",
    "CostEvaluator",
    "CostParams",
    "DEFAULT_MAX_THRESHOLD",
    "MobilityModel",
    "MobilityParams",
    "NearOptimalSolution",
    "OneDimensionalModel",
    "OptimizationResult",
    "Policy",
    "PolicyMetrics",
    "RegretPoint",
    "ResetChain",
    "SoftDelayPolicy",
    "SquareGridApproximateModel",
    "SquareGridModel",
    "ThresholdSolution",
    "TransientAnalysis",
    "TwoDimensionalApproximateModel",
    "TwoDimensionalModel",
    "batched_steady_states",
    "batched_update_costs",
    "batched_update_rates",
    "compute_cost_surface",
    "derive_metrics",
    "distribution_at",
    "exhaustive_search",
    "find_optimal_threshold",
    "hill_climb",
    "location_area_costs",
    "misestimation_regret",
    "mixing_time",
    "movement_based_costs",
    "movement_staged_costs",
    "near_optimal_threshold",
    "optimal_la_radius",
    "optimal_movement_threshold",
    "optimal_soft_delay_partition",
    "optimal_staged_movement_threshold",
    "optimal_timer_period",
    "optimize_soft_delay",
    "policy_from_solution",
    "regret_surface",
    "simulated_annealing",
    "solve_steady_state_matrix",
    "solve_steady_state_recursive",
    "time_based_costs",
    "transient_cost",
    "validate_delay",
    "validate_threshold",
]
