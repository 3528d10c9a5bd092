"""Delay-constrained optimal partitioning of the residing area.

The paper's future-work section calls for "an optimal method for
partitioning the residing area of the terminal"; its own scheme (SDF
with equal-size groups) is a heuristic.  This module implements the
optimal *contiguous* partition by dynamic programming, in the spirit of
Rose & Yates [7] (reference [7] of the paper), and an exhaustive
searcher over all contiguous partitions for validating the DP on small
instances.

Problem statement
-----------------

Given ring probabilities ``p_0 .. p_d``, ring sizes ``n_0 .. n_d``, and
a delay bound of ``m`` cycles, choose group boundaries
``0 = t_0 < t_1 < ... < t_l = d + 1`` with ``l <= m`` minimizing the
expected number of polled cells

    E = sum_j alpha_j w_j,
    alpha_j = sum_{i in group j} p_i,
    w_j     = sum_{k <= j} N(A_k).

Rings are kept in distance order: because the steady-state distribution
is (weakly) densest near the center, polling closer rings first
dominates, and grouping non-adjacent rings can only increase ``w`` for
the probability mass involved.  (Tests verify by brute force over all
ordered set partitions for small ``d`` that contiguous-in-distance is
optimal whenever per-cell ring probabilities are non-increasing.)

Dynamic program
---------------

``best(s, k)`` = minimum of ``sum alpha_j * (cells polled so far)``
over partitions of rings ``s .. d`` into at most ``k`` groups, where
"cells polled so far" is relative; we exploit the decomposition

    E = sum_j alpha_j w_j
      = sum over groups of [ alpha_j * N(A_j) accumulated ]

and compute ``best(s, k) = min_e  tail_prob(s..e) * cells(s..e)
+ shifted future`` -- implemented below with suffix sums so each
transition is O(1); total complexity ``O(d^2 l)`` for ``l = min(d + 1,
m)`` groups: ``O(d^2 m)`` under a delay bound, ``O(d^3)`` when
``m >= d + 1``.  The loop runs on Python floats (the same IEEE
operations as on NumPy scalars, without their per-operation dispatch),
and a single allowed group (``m = 1`` or ``d = 0``) is returned without
it.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import PartitionError
from ..core.parameters import validate_delay, validate_threshold
from .plan import PagingPlan, partition_from_sizes, subarea_count

__all__ = ["optimal_contiguous_partition", "brute_force_partition"]


def _prepare(
    d: int, ring_probabilities: Sequence[float], ring_sizes: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    p = np.asarray(ring_probabilities, dtype=float)
    n = np.asarray(ring_sizes, dtype=float)
    if p.shape != (d + 1,) or n.shape != (d + 1,):
        raise PartitionError(
            f"need {d + 1} ring probabilities and sizes, got {p.shape} and {n.shape}"
        )
    if np.any(p < -1e-12):
        raise PartitionError("ring probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise PartitionError(f"ring probabilities must sum to 1, got {p.sum()}")
    if np.any(n < 1):
        raise PartitionError("ring sizes must be >= 1")
    return p, n


def optimal_contiguous_partition(
    d: int,
    m,
    ring_probabilities: Sequence[float],
    ring_sizes: Sequence[int],
) -> PagingPlan:
    """Optimal contiguous partition of rings ``0..d`` into ``<= m`` groups.

    Minimizes the expected number of polled cells per call.  Returns a
    :class:`PagingPlan`; the achieved expectation can be recomputed with
    :meth:`PagingPlan.expected_polled_cells`.
    """
    d = validate_threshold(d)
    m = validate_delay(m)
    max_groups = subarea_count(d, m)
    p, n = _prepare(d, ring_probabilities, ring_sizes)
    if max_groups == 1:
        return partition_from_sizes(d, [d + 1])

    # Suffix sums: tail_p[s] = sum_{i >= s} p_i.  Both helpers are
    # Python floats, which the loop below adds without NumPy dispatch.
    tail_p = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]]).tolist()
    # cells[s:e] helper via prefix sums of n.
    pref_n = np.concatenate([[0.0], np.cumsum(n)]).tolist()

    size = d + 1
    inf = math.inf
    # best[k][s]: minimal expected *additional* polled cells for rings
    # s..d using at most k groups, counting each group's size against
    # every terminal still unfound when that group is polled
    # (probability tail_p[s] at the moment group starting at s is
    # polled).  Recurrence:
    #   best[k][s] = min over e in s..d of
    #       tail_p[s] * cells(s..e) + best[k-1][e+1]
    # because the group's cells are paid by everyone not yet found
    # before it *plus* those inside it -- i.e. tail mass at s.
    #
    # Proof of equivalence with sum_j alpha_j w_j: swap the order of
    # summation; terminal in group j pays all cells of groups 1..j, so
    # each group's cell count is paid by the probability mass at or
    # beyond its first ring.
    best = [[inf] * (size + 1) for _ in range(max_groups + 1)]
    choice = [[-1] * (size + 1) for _ in range(max_groups + 1)]
    for k in range(max_groups + 1):
        best[k][size] = 0.0
    for k in range(1, max_groups + 1):
        previous = best[k - 1]
        for s in range(size - 1, -1, -1):
            tp = tail_p[s]
            cells_before = pref_n[s]
            acc = inf
            pick = -1
            for e in range(s, size):
                future = previous[e + 1]
                if future == inf:
                    continue
                cost = tp * (pref_n[e + 1] - cells_before) + future
                if cost < acc - 1e-15:
                    acc = cost
                    pick = e
            best[k][s] = acc
            choice[k][s] = pick
    if best[max_groups][0] == inf:  # pragma: no cover - cannot happen
        raise PartitionError("dynamic program found no feasible partition")

    sizes = []
    s, k = 0, max_groups
    while s < size:
        e = choice[k][s]
        if e < 0:
            # Fewer groups than allowed were needed; drop to the level
            # that actually has a decision recorded.
            k -= 1
            if k <= 0:  # pragma: no cover - defensive
                raise PartitionError("partition reconstruction failed")
            continue
        sizes.append(e - s + 1)
        s = e + 1
        k -= 1
    return partition_from_sizes(d, sizes)


def brute_force_partition(
    d: int,
    m,
    ring_probabilities: Sequence[float],
    ring_sizes: Sequence[int],
) -> PagingPlan:
    """Exhaustively search all contiguous partitions (small ``d`` only).

    Used by tests to validate the dynamic program.  Complexity is
    exponential in ``d``; refuse beyond ``d = 15``.
    """
    d = validate_threshold(d)
    m = validate_delay(m)
    if d > 15:
        raise PartitionError(f"brute force limited to d <= 15, got {d}")
    max_groups = subarea_count(d, m)
    p, n = _prepare(d, ring_probabilities, ring_sizes)

    best_plan = None
    best_cost = math.inf
    rings = d + 1
    for cuts in range(max_groups):
        for positions in itertools.combinations(range(1, rings), cuts):
            bounds = (0,) + positions + (rings,)
            sizes = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
            cost = _contiguous_cost(p, n, sizes)
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_plan = sizes
    assert best_plan is not None
    return partition_from_sizes(d, best_plan)


def _contiguous_cost(p: np.ndarray, n: np.ndarray, sizes: Sequence[int]) -> float:
    """Expected polled cells of a contiguous partition given by sizes."""
    cost = 0.0
    polled = 0.0
    start = 0
    for s in sizes:
        polled += float(n[start : start + s].sum())
        cost += float(p[start : start + s].sum()) * polled
        start += s
    return cost
