"""repro -- reproduction of Akyildiz & Ho (SIGCOMM '95).

"A Mobile User Location Update and Paging Mechanism Under Delay
Constraints": distance-based location update combined with
delay-constrained shortest-distance-first paging for cellular personal
communication networks, with Markov-chain cost analysis and optimal
threshold selection.

Quick start::

    from repro import (
        MobilityParams, CostParams, TwoDimensionalModel,
        find_optimal_threshold,
    )

    user = MobilityParams(move_probability=0.05, call_probability=0.01)
    prices = CostParams(update_cost=100.0, poll_cost=10.0)
    solution = find_optimal_threshold(
        TwoDimensionalModel(user), prices, max_delay=3
    )
    print(solution.threshold, solution.total_cost)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

from .core import (
    BaselineCosts,
    CostBreakdown,
    CostEvaluator,
    CostParams,
    CostSurfaceGrid,
    DEFAULT_MAX_THRESHOLD,
    MobilityModel,
    MobilityParams,
    NearOptimalSolution,
    OneDimensionalModel,
    OptimizationResult,
    Policy,
    PolicyMetrics,
    ResetChain,
    SoftDelayPolicy,
    SquareGridApproximateModel,
    SquareGridModel,
    ThresholdSolution,
    TransientAnalysis,
    TwoDimensionalApproximateModel,
    TwoDimensionalModel,
    batched_steady_states,
    batched_update_costs,
    batched_update_rates,
    compute_cost_surface,
    derive_metrics,
    distribution_at,
    exhaustive_search,
    find_optimal_threshold,
    hill_climb,
    location_area_costs,
    misestimation_regret,
    mixing_time,
    movement_based_costs,
    movement_staged_costs,
    near_optimal_threshold,
    optimal_la_radius,
    optimal_movement_threshold,
    optimal_soft_delay_partition,
    optimal_staged_movement_threshold,
    optimal_timer_period,
    optimize_soft_delay,
    regret_surface,
    simulated_annealing,
    time_based_costs,
    transient_cost,
)
from .exceptions import (
    FaultInjectionError,
    ParameterError,
    PartitionError,
    RecoveryExhaustedError,
    ReproError,
    SimulationError,
    SolverError,
)
from .geometry import HexTopology, LineTopology, SquareTopology
from .paging import (
    PagingPlan,
    blanket_partition,
    density_ordered_partition,
    optimal_contiguous_partition,
    per_ring_partition,
    sdf_partition,
)

__version__ = "1.0.0"

__all__ = [
    "BaselineCosts",
    "CostBreakdown",
    "CostEvaluator",
    "CostParams",
    "CostSurfaceGrid",
    "DEFAULT_MAX_THRESHOLD",
    "FaultInjectionError",
    "HexTopology",
    "LineTopology",
    "MobilityModel",
    "MobilityParams",
    "NearOptimalSolution",
    "OneDimensionalModel",
    "OptimizationResult",
    "PagingPlan",
    "Policy",
    "PolicyMetrics",
    "ParameterError",
    "PartitionError",
    "RecoveryExhaustedError",
    "ReproError",
    "ResetChain",
    "SimulationError",
    "SoftDelayPolicy",
    "SolverError",
    "SquareGridApproximateModel",
    "SquareGridModel",
    "SquareTopology",
    "ThresholdSolution",
    "TransientAnalysis",
    "TwoDimensionalApproximateModel",
    "TwoDimensionalModel",
    "blanket_partition",
    "batched_steady_states",
    "batched_update_costs",
    "batched_update_rates",
    "compute_cost_surface",
    "density_ordered_partition",
    "derive_metrics",
    "distribution_at",
    "exhaustive_search",
    "find_optimal_threshold",
    "hill_climb",
    "location_area_costs",
    "mixing_time",
    "movement_based_costs",
    "movement_staged_costs",
    "misestimation_regret",
    "near_optimal_threshold",
    "optimal_contiguous_partition",
    "optimal_la_radius",
    "optimal_movement_threshold",
    "optimal_staged_movement_threshold",
    "optimal_timer_period",
    "optimize_soft_delay",
    "per_ring_partition",
    "regret_surface",
    "sdf_partition",
    "simulated_annealing",
    "time_based_costs",
    "transient_cost",
    "__version__",
]
