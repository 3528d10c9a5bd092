"""Optimal-threshold search (paper Section 6).

The total cost ``C_T(d, m)`` as a function of the integer threshold
``d`` may have local minima (the partition changes discontinuously with
``d``), so gradient methods are out.  The paper offers two approaches,
both implemented here:

:func:`exhaustive_search`
    evaluate every ``d in 0..D`` and take the argmin -- always finds
    the global optimum in ``D + 1`` evaluations ("for typical call
    arrival and mobility values, the optimal distance rarely exceeds
    50");
:func:`simulated_annealing`
    the paper's iterative algorithm: propose a nearby threshold, accept
    improvements always and regressions with probability
    ``exp(delta / T)`` under the cooling schedule ``T = y / (y + k)``.

A greedy :func:`hill_climb` is included as an ablation baseline to
demonstrate *why* the paper rejects pure descent (it gets caught on the
local minima the paper mentions).

:func:`scan_curve` replays the exhaustive scan's ascending
strict-improvement rule over a cost vector computed in one array pass
-- only a strict running minimum can be accepted, so it visits those
candidates alone -- and is how the threshold search reads a batched
cost curve.  :func:`screened_scan` replays the same rule over a vector
that only approximates the costs, calling the exact scalar cost only
where the vector's float error could change a comparison -- how the
jointly-optimal registration step and the baseline optimizers scan
hundreds of candidates cheaply while returning exactly what the scalar
scan returns.

All searchers share the :class:`OptimizationResult` record and count
cost evaluations, so the optimizer bench can compare accuracy against
work performed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "OptimizationResult",
    "exhaustive_search",
    "scan_curve",
    "screened_scan",
    "simulated_annealing",
    "hill_climb",
]

#: Strict-improvement tie tolerance of every ascending scan.
_TIE_TOLERANCE = 1e-15

CostFunction = Callable[[int], float]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a threshold search.

    ``evaluations`` counts *distinct* thresholds whose cost was
    computed (cost lookups are memoized in every searcher, matching how
    an implementation on a power-limited terminal would behave).
    """

    optimal_threshold: int
    optimal_cost: float
    evaluations: int
    method: str
    curve: Dict[int, float] = field(default_factory=dict, repr=False)

    def cost_at(self, d: int) -> Optional[float]:
        """Cost of threshold ``d`` if it was evaluated during the search."""
        return self.curve.get(d)


class _MemoizedCost:
    """Wrap a cost function with memoization and an evaluation counter."""

    def __init__(self, fn: CostFunction) -> None:
        self._fn = fn
        self.cache: Dict[int, float] = {}

    def __call__(self, d: int) -> float:
        if d not in self.cache:
            self.cache[d] = self._fn(d)
        return self.cache[d]

    @property
    def evaluations(self) -> int:
        return len(self.cache)


def _validate_bound(d_max: int) -> int:
    if isinstance(d_max, bool) or not isinstance(d_max, int) or d_max < 0:
        raise ParameterError(f"d_max must be a non-negative int, got {d_max!r}")
    return d_max


def exhaustive_search(cost: CostFunction, d_max: int) -> OptimizationResult:
    """Evaluate every threshold in ``0..d_max`` and return the best.

    Ties are broken toward the *smaller* threshold, matching the paper's
    tables (a smaller residing area at equal cost means less paging
    latency exposure).
    """
    d_max = _validate_bound(d_max)
    memo = _MemoizedCost(cost)
    best_d = 0
    best_cost = math.inf
    for d in range(d_max + 1):
        value = memo(d)
        if value < best_cost - _TIE_TOLERANCE:
            best_cost = value
            best_d = d
    return OptimizationResult(
        optimal_threshold=best_d,
        optimal_cost=best_cost,
        evaluations=memo.evaluations,
        method="exhaustive",
        curve=dict(memo.cache),
    )


def scan_curve(curve: Sequence[float]) -> OptimizationResult:
    """:func:`exhaustive_search` over a cost vector already computed.

    Returns exactly what ``exhaustive_search(lambda d: curve[d],
    len(curve) - 1)`` returns -- threshold, cost, ``D + 1`` evaluations
    and the full ``curve`` dict -- without a Python call per threshold.
    The scan's ``fl(best_cost - 1e-15)`` never exceeds the smallest
    value seen so far, so only a strict running minimum can be
    accepted; the rule is replayed over those candidates alone.  NaNs
    are never accepted and do not hide later minima.
    """
    values = np.asarray(curve, dtype=float)
    earlier = np.fmin.accumulate(np.concatenate(([math.inf], values)))[:-1]
    candidates = np.flatnonzero(values < earlier)
    best, best_cost = 0, math.inf
    for k, value in zip(candidates.tolist(), values[candidates].tolist()):
        if value < best_cost - _TIE_TOLERANCE:
            best, best_cost = k, value
    return OptimizationResult(
        optimal_threshold=best,
        optimal_cost=best_cost,
        evaluations=values.size,
        method="exhaustive",
        curve=dict(enumerate(values.tolist())),
    )


def screened_scan(
    screened: Sequence[float],
    cost: CostFunction,
    best: int = 0,
    best_cost: float = math.inf,
    skip: Optional[int] = None,
) -> Tuple[int, float, int]:
    """The ascending strict-improvement scan, confirmed where it matters.

    Returns ``(best, best_cost, evaluations)`` equal to what

    .. code-block:: python

        for k in range(len(screened)):
            if k != skip and cost(k) < best_cost - 1e-15:
                best, best_cost = k, cost(k)

    returns, while calling ``cost`` only ``evaluations`` times.
    ``screened[k]`` is ``cost(k)`` computed another way -- a vectorized
    pass that sums the same at most ``n = len(screened)`` non-negative
    terms in a different order -- so it is within ``4 (n + 8) 2**-52
    |screened[k]| + 2e-15`` of ``cost(k)``, and every comparison those
    bounds decide is decided without ``cost``:

    * a threshold whose lower bound is not below ``best_cost - 1e-15``
      for any ``best_cost`` the scan can still hold is never accepted
      (the scan's ``fl(best_cost - 1e-15)`` never exceeds the smallest
      cost seen so far, so the running minimum of the upper bounds
      screens all of them in one array pass);
    * a threshold whose upper bound is below the incumbent's lower
      bound minus the tolerance is accepted, with its cost known only
      to within its bounds;
    * any other comparison -- near-ties -- calls ``cost`` for the
      candidate and, if still bounded only, the incumbent.

    The winner's cost is confirmed last if it is still only bounded.
    NaNs defeat every bound and fall through to ``cost``.
    """
    tol = _TIE_TOLERANCE
    values = np.asarray(screened, dtype=float)
    slack = 4.0 * (values.size + 8) * 2.0**-52 * np.abs(values) + 2.0 * tol
    lower = values - slack
    upper = values + slack
    ceiling = np.minimum.accumulate(np.concatenate(([best_cost - tol], upper[:-1])))
    low = high = best_cost
    exact = True
    evaluations = 0
    candidates = np.flatnonzero(~(lower >= ceiling))
    for k, lower_k, upper_k in zip(
        candidates.tolist(), lower[candidates].tolist(), upper[candidates].tolist()
    ):
        if k == skip or lower_k >= high - tol:
            continue
        if upper_k < low - tol:
            best, low, high, exact = k, lower_k, upper_k, False
            continue
        if not exact:
            low = high = cost(best)
            exact = True
            evaluations += 1
        value = cost(k)
        evaluations += 1
        if value < low - tol:
            best, low, high = k, value, value
    if not exact:
        low = cost(best)
        evaluations += 1
    return best, low, evaluations


def simulated_annealing(
    cost: CostFunction,
    d_max: int,
    seed: int = 0,
    y: float = 8.0,
    exit_temperature: float = 0.05,
    neighborhood: int = 3,
) -> OptimizationResult:
    """The paper's simulated-annealing threshold search (Section 6).

    Follows the pseudo-code: start from a random threshold, propose a
    neighbor ``d'`` of the current ``d``, compute
    ``delta = cost(d) - cost(d')``, accept improvements outright and
    regressions with probability ``exp(delta / T)`` (``delta < 0``),
    and cool with ``T = y / (y + k)`` until ``T <= exit_temperature``.

    Parameters
    ----------
    seed:
        Seeds the private RNG; runs are fully deterministic per seed.
    y, exit_temperature:
        The paper's accuracy knobs: larger ``y`` and smaller
        ``exit_temperature`` mean more iterations.
    neighborhood:
        ``generate(d)`` proposes uniformly from
        ``[d - neighborhood, d + neighborhood]`` clipped to ``[0, d_max]``
        and excluding ``d`` itself.
    """
    d_max = _validate_bound(d_max)
    if y <= 0 or exit_temperature <= 0 or exit_temperature >= 1:
        raise ParameterError(
            f"need y > 0 and 0 < exit_temperature < 1, got y={y}, "
            f"exit_temperature={exit_temperature}"
        )
    if neighborhood < 1:
        raise ParameterError(f"neighborhood must be >= 1, got {neighborhood}")
    rng = random.Random(seed)
    memo = _MemoizedCost(cost)

    current = rng.randint(0, d_max)  # Random_Init()
    best = current
    temperature = 1.0
    k = 1
    while temperature > exit_temperature:
        proposal = _generate_neighbor(rng, current, d_max, neighborhood)
        delta = memo(current) - memo(proposal)
        if delta >= 0 or rng.random() < math.exp(delta / temperature):
            current = proposal
        if memo(current) < memo(best):
            best = current
        temperature = y / (y + k)
        k += 1
    # Report the best threshold *seen*, not merely the final state: the
    # chain may end on an uphill excursion at low temperature.
    for d, value in memo.cache.items():
        if value < memo.cache[best] - 1e-15 or (
            abs(value - memo.cache[best]) <= 1e-15 and d < best
        ):
            best = d
    return OptimizationResult(
        optimal_threshold=best,
        optimal_cost=memo.cache[best],
        evaluations=memo.evaluations,
        method="simulated-annealing",
        curve=dict(memo.cache),
    )


def _generate_neighbor(
    rng: random.Random, d: int, d_max: int, spread: int
) -> int:
    """The paper's ``generate(d)``: a random threshold near ``d``."""
    if d_max == 0:
        return 0
    lo = max(0, d - spread)
    hi = min(d_max, d + spread)
    candidates: List[int] = [x for x in range(lo, hi + 1) if x != d]
    if not candidates:  # pragma: no cover - only if spread clipped to nothing
        return d
    return rng.choice(candidates)


def hill_climb(
    cost: CostFunction, d_max: int, start: int = 0
) -> OptimizationResult:
    """Greedy descent baseline: move to the better adjacent threshold.

    Stops at the first local minimum.  Included to demonstrate the
    paper's observation that the cost curve "may have local minimum"
    and gradient descent is unsafe; the optimizer ablation bench counts
    how often this diverges from :func:`exhaustive_search`.
    """
    d_max = _validate_bound(d_max)
    if not 0 <= start <= d_max:
        raise ParameterError(f"start must be in [0, {d_max}], got {start}")
    memo = _MemoizedCost(cost)
    current = start
    while True:
        here = memo(current)
        candidates = [d for d in (current - 1, current + 1) if 0 <= d <= d_max]
        values = {d: memo(d) for d in candidates}
        best_neighbor = min(values, key=lambda d: (values[d], d))
        if values[best_neighbor] < here - 1e-15:
            current = best_neighbor
            continue
        return OptimizationResult(
            optimal_threshold=current,
            optimal_cost=here,
            evaluations=memo.evaluations,
            method="hill-climb",
            curve=dict(memo.cache),
        )
