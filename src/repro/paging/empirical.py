"""Empirical paging-order optimization from simulated location data.

The analytic pipeline feeds the *chain's* steady-state ring
distribution into the delay-constrained partition DP
(:func:`~repro.paging.optimal.optimal_contiguous_partition`).  That is
exact for the paper's memoryless isotropic walk -- but the moment the
mobility process has residence-time memory or directional drift, the
chain's distribution is wrong, while the simulator can *measure* the
real one: the vectorized engine records which ring the terminal was
found in at every call (``record_ring_hits=True``).

This module closes that loop: measure the empirical at-call ring
distribution under any :class:`~repro.mobility.ctrw.CTRWSpec`, feed it
into the DP, and compare the resulting plan against the paper's
shortest-distance-first heuristic.  The structural finding the
conformance tier pins: under directional drift the SDF plan is *not*
optimal (probability mass migrates outward, so fronting the poll order
with ring 0 wastes a cycle on a low-mass subarea), while at drift zero
the DP recovers the SDF plan -- the heuristic is validated exactly in
the regime the paper assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError
from ..geometry.topology import CellTopology
from .optimal import optimal_contiguous_partition
from .plan import PagingPlan, sdf_partition

if TYPE_CHECKING:
    from ..mobility.ctrw import CTRWSpec

__all__ = [
    "EmpiricalPagingReport",
    "empirical_paging_report",
    "empirical_ring_distribution",
]


def empirical_ring_distribution(
    topology: CellTopology,
    threshold: int,
    mobility: MobilityParams,
    walk: Optional[CTRWSpec] = None,
    slots: int = 4000,
    terminals: int = 256,
    warmup_slots: int = 500,
    seed: int = 0,
    max_delay=1,
) -> np.ndarray:
    """Measure the at-call ring distribution ``p_0 .. p_d`` by simulation.

    Runs the vectorized engine with ring-hit recording under a
    distance-``threshold`` strategy and returns the normalized
    distribution of the terminal's ring distance at call arrival --
    the distribution the paging partition should be optimized for.
    ``walk=None`` measures the paper's uniform walk; pass a
    :class:`CTRWSpec` for residence-clock or drifted mobility.
    ``max_delay`` only affects paging costs, never the measured
    distribution, so the default blanket plan is fine.
    """
    from ..simulation.vectorized import VectorizedDistanceEngine  # local: cycle

    engine = VectorizedDistanceEngine(
        topology,
        threshold=threshold,
        mobility=mobility,
        # Costs never influence positions; fixed weights keep the
        # distribution a function of (topology, threshold, mobility).
        costs=CostParams(update_cost=1.0, poll_cost=1.0),
        terminals=terminals,
        max_delay=max_delay,
        seed=seed,
        walk=walk,
        record_ring_hits=True,
    )
    if warmup_slots:
        engine.run(warmup_slots)
        engine.reset_meters()
    engine.run(slots)
    return engine.ring_hit_distribution()


@dataclass(frozen=True)
class EmpiricalPagingReport:
    """SDF vs DP-optimal paging on one measured ring distribution.

    ``improvement`` is the relative saving of the optimal plan over SDF
    in expected polled cells per call (0 when the plans coincide).
    """

    threshold: int
    max_delay: int
    ring_probabilities: Tuple[float, ...]
    sdf_plan: PagingPlan
    optimal_plan: PagingPlan
    sdf_cells: float
    optimal_cells: float

    @property
    def plans_equal(self) -> bool:
        return self.sdf_plan.subareas == self.optimal_plan.subareas

    @property
    def improvement(self) -> float:
        if self.sdf_cells == 0:
            return 0.0
        return (self.sdf_cells - self.optimal_cells) / self.sdf_cells


def empirical_paging_report(
    topology: CellTopology,
    threshold: int,
    max_delay: int,
    ring_probabilities,
) -> EmpiricalPagingReport:
    """Compare SDF against the DP optimum on a measured distribution.

    ``ring_probabilities`` is the at-call ring distribution
    (``threshold + 1`` entries summing to one), typically from
    :func:`empirical_ring_distribution`.
    """
    p = np.asarray(ring_probabilities, dtype=float)
    if p.shape != (threshold + 1,):
        raise ParameterError(
            f"need {threshold + 1} ring probabilities for threshold "
            f"{threshold}, got shape {p.shape}"
        )
    ring_sizes = [topology.ring_size(i) for i in range(threshold + 1)]
    sdf = sdf_partition(threshold, max_delay)
    optimal = optimal_contiguous_partition(threshold, max_delay, p, ring_sizes)
    return EmpiricalPagingReport(
        threshold=threshold,
        max_delay=max_delay,
        ring_probabilities=tuple(float(x) for x in p),
        sdf_plan=sdf,
        optimal_plan=optimal,
        sdf_cells=sdf.expected_polled_cells(topology, p),
        optimal_cells=optimal.expected_polled_cells(topology, p),
    )
