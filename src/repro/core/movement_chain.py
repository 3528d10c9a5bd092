"""Joint (move-count, ring) chain: movement-based updating, staged paging.

The blanket-paging movement model in :mod:`repro.core.baselines` only
needs the move count ``k``.  To page a movement-based terminal in
*stages* (the SDF partition of its radius-``k`` uncertainty disk under
a delay bound ``m``) the network's cost depends on which ring the
terminal actually occupies -- so the analysis needs the joint steady
state over

    (k, i):   k = moves since the last fix (0 .. M-1),
              i = ring distance from the fix cell (0 <= i <= k).

Transitions (competing per-slot events, as everywhere in this library):

* call, probability ``c`` -> fix, state (0, 0);
* move, probability ``q``: ``k -> k+1`` and the ring moves out/same/in
  with the geometry's ring-statistics ``p+(i) / p0(i) / p-(i)``
  (ring-aggregated, exactly like the paper's 2-D chain); the ``M``-th
  move triggers an update -> (0, 0);
* otherwise stay.

Costs:

* ``C_u = U q sum_i p(M-1, i)``  (the next move updates);
* ``C_v(m) = c V sum_{k,i} p(k, i) * w_k(i)`` where ``w_k(i)`` is the
  cumulative polled cells through ring ``i``'s subarea in the SDF
  partition of radius ``k`` under bound ``m``.

With ``m = 1`` this reduces exactly to the blanket model of
``baselines.movement_based_costs`` (tested), and on the line the ring
aggregation is exact so simulation agreement is within noise.
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple

import numpy as np

from ..exceptions import ParameterError
from ..geometry import HexTopology, LineTopology, SquareTopology
from ..geometry.ringstats import (
    paper_p_minus,
    paper_p_plus,
    square_p_minus,
    square_p_plus,
)
from ..geometry.topology import CellTopology
from ..paging.plan import sdf_partition
from .baselines import BaselineCosts
from .parameters import CostParams, MobilityParams, validate_delay

__all__ = ["movement_staged_costs", "optimal_staged_movement_threshold"]


@functools.lru_cache(maxsize=4096)
def _ring_probs(topology: CellTopology, i: int) -> Tuple[float, float, float]:
    """``(p+, p0, p-)`` for ring ``i`` of the given geometry; memoized,
    as a threshold search asks for each ring once per chain state.
    ``p0`` is clamped at 0: on the square grid, where every move changes
    the ring, ``1 - p+ - p-`` can round to -5.6e-17."""
    if isinstance(topology, LineTopology):
        if i == 0:
            return 1.0, 0.0, 0.0
        return 0.5, 0.0, 0.5
    if isinstance(topology, HexTopology):
        plus = float(paper_p_plus(i))
        minus = float(paper_p_minus(i))
        return plus, 1.0 - plus - minus, minus
    if isinstance(topology, SquareTopology):
        plus = float(square_p_plus(i))
        minus = float(square_p_minus(i))
        return plus, max(1.0 - plus - minus, 0.0), minus
    raise ParameterError(f"unsupported topology {topology!r}")


def _joint_steady_state(
    topology: CellTopology, mobility: MobilityParams, M: int
) -> Dict[Tuple[int, int], float]:
    """Stationary distribution over (k, i) states, level by level.

    Level ``k + 1`` is fed only by level ``k``'s moves, and each of its
    states is left with probability ``c + q`` per slot (a call fixes, a
    move advances or updates).  Balancing the two gives, from the
    unnormalized ``pi(0, 0) = 1``::

        pi(k + 1, j) = q / (c + q) * sum_i pi(k, i) T(i -> j)

    with ``T`` the ring transition of :func:`_ring_probs`; one
    normalization over every level ends it, in O(M^2) work.
    """
    q, c = mobility.q, mobility.c
    feed = q / (c + q)
    probs = np.array([_ring_probs(topology, i) for i in range(M)])
    levels = [np.ones(1)]
    for k in range(M - 1):
        level = levels[-1] * feed
        plus, same, minus = probs[: k + 1].T
        after = np.zeros(k + 2)
        after[1:] += level * plus
        after[:-1] += level * same
        after[:-2] += level[1:] * minus[1:]
        levels.append(after)
    pi = np.concatenate(levels)
    pi /= pi.sum()
    states = [(k, i) for k in range(M) for i in range(k + 1)]
    return dict(zip(states, pi.tolist()))


def movement_staged_costs(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    movement_threshold: int,
    max_delay,
) -> BaselineCosts:
    """Movement-based scheme with SDF paging under delay bound ``m``."""
    if isinstance(movement_threshold, bool) or not isinstance(movement_threshold, int):
        raise ParameterError(
            f"movement_threshold must be an int, got {movement_threshold!r}"
        )
    if movement_threshold < 1:
        raise ParameterError(
            f"movement_threshold must be >= 1, got {movement_threshold}"
        )
    m = validate_delay(max_delay)
    M = movement_threshold
    joint = _joint_steady_state(topology, mobility, M)
    q, c = mobility.q, mobility.c

    update = costs.update_cost * q * sum(
        joint[(M - 1, i)] for i in range(M)
    )
    # Per-radius SDF plans: w_k(i) = cells polled when found in ring i.
    paging = 0.0
    for k in range(M):
        plan = sdf_partition(k, m)
        w = plan.cumulative_polled(topology)
        for i in range(k + 1):
            paging += joint[(k, i)] * float(w[plan.subarea_of_ring(i)])
    paging *= c * costs.poll_cost
    return BaselineCosts(
        scheme="movement-staged",
        parameter=M,
        update_cost=update,
        paging_cost=paging,
    )


def optimal_staged_movement_threshold(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    max_delay,
    max_threshold: int = 60,
) -> BaselineCosts:
    """Best ``M`` for the staged-paging movement scheme."""
    best: BaselineCosts = None  # type: ignore[assignment]
    for M in range(1, max_threshold + 1):
        candidate = movement_staged_costs(topology, mobility, costs, M, max_delay)
        if best is None or candidate.total_cost < best.total_cost - 1e-15:
            best = candidate
    return best
