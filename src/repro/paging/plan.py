"""Paging plans: partitions of the residing area into polled subareas.

Section 2.2 of the paper: when a call arrives for a terminal with
threshold ``d``, the residing area (rings ``r_0 .. r_d``) is partitioned
into ``l = min(d + 1, m)`` subareas ``A_1 .. A_l`` (eqn (2)), polled in
order until the terminal answers.  Each ring belongs to exactly one
subarea, so the terminal is always found within ``l <= m`` polling
cycles -- the delay guarantee.

A :class:`PagingPlan` is an ordered list of ring groups.  Given the
steady-state ring distribution ``p_{i,d}`` and a topology's ring sizes,
it computes

* ``alpha_j`` -- probability the terminal is in subarea ``A_j``
  (eqn (63)),
* ``w_j`` -- cells polled when the terminal is found in ``A_j``
  (eqn (64), cumulative subarea sizes),
* the expected number of polled cells ``sum_j alpha_j w_j`` (the
  bracket of eqn (65)) and the expected paging delay in cycles.

Pricing takes a few NumPy calls per plan, not a few per ring: one
gather reads every single-ring group's ``alpha_j``, and each other
group sums its rings as a slice when they are consecutive (by list
index otherwise) -- the same ``np.sum`` over the same values, so every
``alpha_j`` is the same double either way.  A contiguous plan (rings
``0..d`` listed in order) reads ``w_j`` off the topology's coverage
curve at each group's last ring.

Constructors provided:

:func:`sdf_partition`
    the paper's shortest-distance-first scheme (Section 2.2 steps 1-3):
    ``gamma = floor((d+1)/l)`` rings per subarea, remainder in the last;
:func:`blanket_partition`
    one subarea covering everything (maximum delay 1; what the LA-based
    scheme of [8] does);
:func:`per_ring_partition`
    one ring per subarea (the unconstrained-delay limit).

The delay-constrained *optimal* partition (the paper's future-work
item) lives in :mod:`repro.paging.optimal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import PartitionError
from ..geometry.topology import CellTopology
from ..core.parameters import validate_delay, validate_threshold

__all__ = [
    "PagingPlan",
    "subarea_count",
    "sdf_partition",
    "sdf_weights_batch",
    "blanket_partition",
    "per_ring_partition",
    "partition_from_sizes",
]


def subarea_count(d: int, m) -> int:
    """Paper equation (2): ``l = min(d + 1, m)`` subareas."""
    d = validate_threshold(d)
    m = validate_delay(m)
    if m == math.inf:
        return d + 1
    return min(d + 1, int(m))


@dataclass(frozen=True)
class PagingPlan:
    """An ordered partition of rings ``r_0 .. r_d`` into polled subareas.

    ``subareas`` is a tuple of tuples of ring indices; subarea ``j``
    (0-based here, 1-based in the paper) is polled in cycle ``j + 1``.
    """

    threshold: int
    subareas: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = self.threshold
        if d < 0:
            raise PartitionError(f"threshold must be >= 0, got {d}")
        if not all(map(len, self.subareas)):
            raise PartitionError("every subarea must contain at least one ring")
        rings = list(chain.from_iterable(self.subareas))
        expected = list(range(d + 1))
        # Groups listing rings 0..d in order need no sort.
        contiguous = rings == expected
        if not contiguous and sorted(rings) != expected:
            raise PartitionError(
                f"subareas must cover rings 0..{d} exactly once, got {sorted(rings)}"
            )
        object.__setattr__(self, "_contiguous", contiguous)

    # ------------------------------------------------------------------

    @property
    def delay_bound(self) -> int:
        """Worst-case paging delay in polling cycles (= subarea count)."""
        return len(self.subareas)

    @property
    def contiguous(self) -> bool:
        """True when the groups list rings ``0 .. d`` in order: each one a
        distance range, nearest first (what :func:`partition_from_sizes`
        builds)."""
        return self._contiguous

    @cached_property
    def _layout(self) -> Tuple[np.ndarray, List[Tuple[int, object]]]:
        """Eqn (63)'s sums, laid out once per plan: ``(firsts, multi)``.

        ``firsts`` holds every group's first ring, so one gather prices
        all single-ring groups; ``multi`` holds ``(j, index)`` for every
        other group, ``index`` a slice when its rings are consecutive,
        else its ring list.
        """
        groups = self.subareas
        count = len(groups)
        firsts = np.fromiter(map(itemgetter(0), groups), np.intp, count)
        lengths = np.fromiter(map(len, groups), np.intp, count)
        multi: List[Tuple[int, object]] = []
        for j in np.flatnonzero(lengths > 1).tolist():
            group = groups[j]
            rings = range(group[0], group[0] + len(group))
            if self._contiguous or tuple(group) == tuple(rings):
                multi.append((j, slice(rings.start, rings.stop)))
            else:
                multi.append((j, list(group)))
        return firsts, multi

    def subarea_of_ring(self, ring: int) -> int:
        """Return the 0-based index of the subarea containing ``ring``."""
        for j, group in enumerate(self.subareas):
            if ring in group:
                return j
        raise PartitionError(f"ring {ring} not in any subarea of {self!r}")

    def subarea_sizes(self, topology: CellTopology) -> np.ndarray:
        """``N(A_j)``: number of cells in each subarea."""
        return np.diff(self.cumulative_polled(topology), prepend=0.0)

    def cumulative_polled(self, topology: CellTopology) -> np.ndarray:
        """``w_j`` (eqn (64)): cells polled when found in subarea ``j``."""
        coverage = topology.coverage_curve(self.threshold)
        if self._contiguous:
            # Polling through group j covers the disk out to its last
            # ring, one before the next group's first.
            firsts, _ = self._layout
            return coverage[np.append(firsts[1:] - 1, self.threshold)]
        ring_sizes = np.diff(coverage, prepend=0.0)
        return np.cumsum([ring_sizes[list(group)].sum() for group in self.subareas])

    def subarea_probabilities(self, ring_distribution: Sequence[float]) -> np.ndarray:
        """``alpha_j`` (eqn (63)): probability of each subarea.

        ``ring_distribution`` is the steady-state vector
        ``p_{0,d} .. p_{d,d}``.  A one-ring group's sum is its ring's
        probability, and a slice sums the same values in the same order
        as a list index, so every ``alpha_j`` is the ``np.sum`` of its
        rings' probabilities.
        """
        p = np.asarray(ring_distribution, dtype=float)
        if p.shape != (self.threshold + 1,):
            raise PartitionError(
                f"ring distribution must have length {self.threshold + 1}, "
                f"got shape {p.shape}"
            )
        firsts, multi = self._layout
        alpha = p.take(firsts)
        for j, rings in multi:
            alpha[j] = p[rings].sum()
        return alpha

    def expected_polled_cells(
        self, topology: CellTopology, ring_distribution: Sequence[float]
    ) -> float:
        """Expected cells polled per call: ``sum_j alpha_j w_j``.

        This is the bracketed factor of eqn (65); multiply by ``c V``
        for the average paging cost per slot.
        """
        alpha = self.subarea_probabilities(ring_distribution)
        w = self.cumulative_polled(topology)
        return float(alpha @ w)

    def expected_delay(self, ring_distribution: Sequence[float]) -> float:
        """Expected paging delay in polling cycles, ``sum_j alpha_j (j+1)``."""
        alpha = self.subarea_probabilities(ring_distribution)
        return float(alpha @ np.arange(1, len(self.subareas) + 1))

    def describe(self) -> str:
        """One-line human-readable description of the ring grouping."""
        parts = []
        for group in self.subareas:
            lo, hi = min(group), max(group)
            if list(group) == list(range(lo, hi + 1)):
                parts.append(f"r{lo}" if lo == hi else f"r{lo}-r{hi}")
            else:
                parts.append("{" + ",".join(f"r{g}" for g in group) + "}")
        return " | ".join(parts)


def partition_from_sizes(d: int, sizes: Sequence[int]) -> PagingPlan:
    """Build a contiguous plan from per-subarea ring counts.

    ``sizes = [2, 1, 3]`` groups rings as ``(0,1), (2,), (3,4,5)``.
    """
    d = validate_threshold(d)
    if any(s < 1 for s in sizes):
        raise PartitionError(f"all subarea sizes must be >= 1, got {list(sizes)}")
    if sum(sizes) != d + 1:
        raise PartitionError(
            f"sizes must sum to d + 1 = {d + 1}, got {sum(sizes)}"
        )
    groups: List[Tuple[int, ...]] = []
    start = 0
    for s in sizes:
        groups.append(tuple(range(start, start + s)))
        start += s
    return PagingPlan(threshold=d, subareas=tuple(groups))


def sdf_partition(d: int, m) -> PagingPlan:
    """The paper's shortest-distance-first partition (Section 2.2).

    With ``l = min(d + 1, m)`` subareas and ``gamma = floor((d+1)/l)``:
    subareas ``A_1 .. A_{l-1}`` get ``gamma`` consecutive rings each,
    starting from ring 0, and ``A_l`` gets the remaining rings.
    """
    d = validate_threshold(d)
    count = subarea_count(d, m)
    gamma = (d + 1) // count
    sizes = [gamma] * (count - 1)
    sizes.append((d + 1) - gamma * (count - 1))
    return partition_from_sizes(d, sizes)


def sdf_weights_batch(chain, cumulative_cells, m):
    """SDF partition weights (eqns (63)-(65)) for *all* thresholds at once.

    The scalar path builds a :class:`PagingPlan` per ``(d, m)`` and
    sums ``alpha_j w_j`` over its subareas.  For the paper's SDF scheme
    every subarea is a contiguous ring range, so with
    ``F_d(k) = P(ring <= k | d)`` and ``hi_j`` the outer ring of
    subarea ``j`` (of ``l = min(d + 1, m)``), summation by parts gives

        cells(d) = g(d) - sum_{j < l-1} F_d(hi_j) (g(hi_{j+1}) - g(hi_j)),
        delay(d) = l    - sum_{j < l-1} F_d(hi_j),

    one vectorized pass over the threshold axis per polling cycle.  When
    every threshold polls ring by ring (``m > D``) both are plain
    steady-state means of ``g(i)`` and ``i + 1``.

    Parameters
    ----------
    chain:
        The thresholds' steady states as prefix sums: an object with
        ``ring_cdf(d, k)`` (``F_d(k)`` for index arrays) and ``mean(f)``
        (``sum_i p_{i,d} f(i)`` for every ``d``), such as
        :class:`repro.core.batch.SteadyPrefix`.
    cumulative_cells:
        ``g(0) .. g(D)`` -- cumulative ring sizes of the topology.
    m:
        Delay bound (positive int or ``math.inf``).

    Returns
    -------
    ``(expected_cells, expected_delay)`` -- two ``(D+1,)`` vectors:
    expected polled cells per call (the bracket of eqn (65)) and the
    expected paging delay in cycles, for each threshold ``d``.
    """
    m = validate_delay(m)
    coverage = np.asarray(cumulative_cells, dtype=float)
    size = coverage.size
    if m >= size:
        return chain.mean(coverage), chain.mean(np.arange(1.0, size + 1.0))
    thresholds = np.arange(size)
    count = np.minimum(thresholds + 1, int(m))  # l(d), eqn (2)
    gamma = (thresholds + 1) // count
    cells = coverage.copy()
    delay = count.astype(float)
    for j in range(int(m) - 1):
        # Subarea j + 1 exists for every threshold with l(d) > j + 1,
        # i.e. d > j.  Subarea j ends at ring (j+1) gamma - 1; the next
        # one ends gamma rings later, or at d if it is the last.
        rows = thresholds[j + 1 :]
        step = gamma[j + 1 :]
        hi = (j + 1) * step - 1
        hi_next = np.where(count[j + 1 :] == j + 2, rows, hi + step)
        below = chain.ring_cdf(rows, hi)
        cells[j + 1 :] -= below * (coverage[hi_next] - coverage[hi])
        delay[j + 1 :] -= below
    return cells, delay


def blanket_partition(d: int) -> PagingPlan:
    """Poll the whole residing area at once (delay bound of one cycle)."""
    return partition_from_sizes(d, [validate_threshold(d) + 1])


def per_ring_partition(d: int) -> PagingPlan:
    """One ring per subarea -- the unconstrained-delay SDF limit."""
    return partition_from_sizes(d, [1] * (validate_threshold(d) + 1))
