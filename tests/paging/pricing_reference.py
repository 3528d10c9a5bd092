"""Plain references for the paging plan's pricing and the paging DP.

:class:`repro.paging.PagingPlan` prices a plan with one gather for its
single-ring groups and a slice sum per consecutive group, and
:func:`repro.paging.optimal.optimal_contiguous_partition` runs its
dynamic program on Python floats.  This module keeps what they
replaced -- a list-indexed ``np.sum`` per subarea, ring sizes summed
ring by ring, and the DP on NumPy scalars -- so the tests can assert
that both return the same doubles and the same plans.
"""

import math

import numpy as np

from repro.core.parameters import validate_delay, validate_threshold
from repro.exceptions import PartitionError
from repro.paging.plan import partition_from_sizes, subarea_count
from repro.paging.optimal import _prepare


def subarea_probabilities(plan, ring_distribution):
    """``alpha_j`` (eqn (63)), one list-indexed sum per subarea."""
    p = np.asarray(ring_distribution, dtype=float)
    return np.array([p[list(group)].sum() for group in plan.subareas])


def cumulative_polled(plan, topology):
    """``w_j`` (eqn (64)) from ring sizes summed one ring at a time."""
    return np.cumsum(
        np.array(
            [sum(topology.ring_size(r) for r in group) for group in plan.subareas]
        )
    )


def expected_polled_cells(plan, topology, ring_distribution):
    alpha = subarea_probabilities(plan, ring_distribution)
    return float(alpha @ cumulative_polled(plan, topology))


def expected_delay(plan, ring_distribution):
    alpha = subarea_probabilities(plan, ring_distribution)
    return float(alpha @ np.arange(1, len(plan.subareas) + 1))


def optimal_contiguous_partition(d, m, ring_probabilities, ring_sizes):
    """The paging DP with its loop on NumPy scalars."""
    d = validate_threshold(d)
    m = validate_delay(m)
    max_groups = subarea_count(d, m)
    p, n = _prepare(d, ring_probabilities, ring_sizes)

    # Suffix sums: tail_p[s] = sum_{i >= s} p_i.
    tail_p = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])
    # cells[s:e] helper via prefix sums of n.
    pref_n = np.concatenate([[0.0], np.cumsum(n)])

    size = d + 1
    inf = math.inf
    best = [[inf] * (size + 1) for _ in range(max_groups + 1)]
    choice = [[-1] * (size + 1) for _ in range(max_groups + 1)]
    for k in range(max_groups + 1):
        best[k][size] = 0.0
    for k in range(1, max_groups + 1):
        for s in range(size - 1, -1, -1):
            tp = tail_p[s]
            acc = inf
            pick = -1
            for e in range(s, size):
                future = best[k - 1][e + 1]
                if future == inf:
                    continue
                cost = tp * (pref_n[e + 1] - pref_n[s]) + future
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
