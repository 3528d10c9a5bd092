"""Analytical cost models for the baseline update strategies.

The paper compares against three related-work schemes only by
citation; this module gives each a steady-state cost model of the same
form as Section 5, so the strategy comparison can be done analytically
(and cross-checked against the simulator, which implements the same
schemes independently).  All three models assume *blanket* paging
(delay bound of one polling cycle), which is exact for these schemes'
uncertainty structure.

Movement-based (Bar-Noy/Kessler/Sidi [3])
-----------------------------------------

State ``k`` = cell crossings since the last location fix, ``0..M-1``
(the ``M``-th crossing triggers an update).  Under the chain's
competing-event semantics the balance equations give the truncated
geometric

    p_k = p_0 r^k,   r = q / (q + c),   k = 1..M-1,

update cost ``C_u = U q p_{M-1}`` and paging cost
``C_v = c V sum_k p_k g(k)`` (a call at ``k`` crossings pages the
radius-``k`` disk).

Time-based (Bar-Noy/Kessler/Sidi [3])
-------------------------------------

State ``s`` = slots since the last fix at slot start; updates fire
deterministically when ``s + 1 = T``.  ``p_s = p_0 (1 - c)^s``;
``C_u = U p_{T-1}``; a call in a slot pages radius ``(s + 1) mod T``.
Movement is irrelevant: the elapsed-time disk always covers the
terminal, which is exactly why the scheme over-pages.

Static location areas (Xie/Tabbane/Goodman [8])
-----------------------------------------------

Because the LA tessellation is lattice-periodic and the walk is
symmetric, the within-LA position is uniform in steady state (the
quotient walk on the finite torus is doubly stochastic).  The update
rate is then ``q`` times the fraction of neighbor edges that leave the
LA:

    1-D, width W = 2n+1:   rate = q / W
    hex, radius n:         rate = q * (2n + 1) / g(n)

(the hex LA exposes ``6 (2n + 1)`` of its ``6 g(n)`` edges), and
``C_v = c V g(n)`` since the whole LA is polled each call.

Optimizing a baseline
---------------------

Each ``optimal_*`` function prices every candidate parameter in one
array pass -- the movement and timer costs are running sums,
``W_M = sum_{k<M} r^k`` and ``sum_{k<M} r^k g(k)`` for movement,
``sum_{s<T} (1-c)^s`` and ``sum_{s<T-1} (1-c)^s g(s+1)`` for the
timer -- and hands that curve to
:func:`~repro.core.optimizers.screened_scan`, which replays the
ascending strict-improvement scan and prices a candidate with the
scalar cost function only where the curve's float error could change a
comparison.  The winner is exactly the one a scan of the scalar costs
picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..geometry.topology import CellTopology
from .optimizers import screened_scan
from .parameters import CostParams, MobilityParams

__all__ = [
    "BaselineCosts",
    "movement_based_costs",
    "time_based_costs",
    "location_area_costs",
    "optimal_movement_threshold",
    "optimal_timer_period",
    "optimal_la_radius",
]


@dataclass(frozen=True)
class BaselineCosts:
    """Cost decomposition of one baseline configuration."""

    scheme: str
    parameter: int
    update_cost: float
    paging_cost: float

    @property
    def total_cost(self) -> float:
        return self.update_cost + self.paging_cost


def _validate(topology: CellTopology, parameter: int, name: str, minimum: int) -> None:
    if isinstance(parameter, bool) or not isinstance(parameter, (int, np.integer)):
        raise ParameterError(f"{name} must be an int, got {parameter!r}")
    if parameter < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {parameter}")


def movement_based_costs(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    movement_threshold: int,
) -> BaselineCosts:
    """Steady-state cost of the movement-``M`` scheme with blanket paging."""
    _validate(topology, movement_threshold, "movement_threshold", 1)
    q, c = mobility.q, mobility.c
    M = movement_threshold
    r = q / (q + c) if (q + c) > 0 else 0.0
    weights = np.array([1.0] + [r**k for k in range(1, M)])
    p = weights / weights.sum()
    g = topology.coverage_curve(M - 1)
    update = costs.update_cost * q * p[M - 1]
    paging = c * costs.poll_cost * float(p @ g)
    return BaselineCosts(
        scheme="movement", parameter=M, update_cost=update, paging_cost=paging
    )


def time_based_costs(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    period: int,
) -> BaselineCosts:
    """Steady-state cost of the timer-``T`` scheme with blanket paging."""
    _validate(topology, period, "period", 1)
    q, c = mobility.q, mobility.c
    T = period
    if c > 0:
        weights = np.array([(1.0 - c) ** s for s in range(T)])
    else:
        weights = np.ones(T)
    p = weights / weights.sum()
    update = costs.update_cost * p[T - 1]
    # A call in a slot with start-state s pages radius (s + 1) mod T
    # (the timer fires before the call is processed when s + 1 = T).
    radii = [(s + 1) % T for s in range(T)]
    g = np.array([topology.coverage(radius) for radius in radii], dtype=float)
    paging = c * costs.poll_cost * float(p @ g)
    return BaselineCosts(
        scheme="timer", parameter=T, update_cost=update, paging_cost=paging
    )


def location_area_costs(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    radius: int,
) -> BaselineCosts:
    """Steady-state cost of the static-LA scheme (uniform occupancy).

    Supports the 1-D line (LA width ``2 radius + 1``), the hex grid
    (radius-``radius`` cluster LAs), and the square grid (Lee-sphere
    LAs).  Remarkably the hex and square crossing rates share one
    formula: a radius-``n`` hex cluster exposes ``6(2n+1)`` of its
    ``6 g(n)`` half-edges and a Lee sphere ``4(2n+1)`` of ``4 g(n)``,
    both giving ``rate = q (2n+1) / g(n)`` (with each geometry's own
    ``g``).
    """
    _validate(topology, radius, "radius", 0)
    q, c = mobility.q, mobility.c
    cells = topology.coverage(radius)
    update = costs.update_cost * _la_crossing_rate(topology, q, radius, cells)
    paging = c * costs.poll_cost * cells
    return BaselineCosts(
        scheme="location-area", parameter=radius, update_cost=update, paging_cost=paging
    )


def _la_crossing_rate(topology: CellTopology, q: float, radius, cells):
    """LA-boundary crossing rate; ``radius`` and ``cells`` may be arrays."""
    if topology.dimensions == 1:
        return q / cells
    if topology.degree in (4, 6):
        return q * (2 * radius + 1) / cells
    raise ParameterError(
        "location_area_costs supports line, hex, and square geometries, "
        f"got {topology!r}"
    )


def _argmin(evaluate, curve: np.ndarray, lo: int) -> BaselineCosts:
    """``evaluate`` at the parameter the 1e-15 strict-improvement scan of
    ``lo, lo + 1, ...`` picks; ``curve[k]`` screens parameter ``lo + k``."""
    best, _, _ = screened_scan(curve, lambda k: evaluate(lo + k).total_cost)
    return evaluate(lo + best)


def _movement_curve(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    max_threshold: int,
) -> np.ndarray:
    """Total cost of every movement threshold ``M = 1..max_threshold``.

    ``C_T(M) = (U q r^{M-1} + c V sum_{k<M} r^k g(k)) / sum_{k<M} r^k``
    as running sums; element ``M - 1`` agrees with
    :func:`movement_based_costs` to float rounding.
    """
    q, c = mobility.q, mobility.c
    r = q / (q + c) if (q + c) > 0 else 0.0
    weights = r ** np.arange(max_threshold)
    mass = np.cumsum(weights)
    covered = np.cumsum(weights * topology.coverage_curve(max_threshold - 1))
    return (
        costs.update_cost * q * weights / mass
        + c * costs.poll_cost * covered / mass
    )


def _timer_curve(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    max_period: int,
) -> np.ndarray:
    """Total cost of every timer period ``T = 1..max_period``.

    With ``w_s = (1 - c)^s``: period ``T`` pages radius ``s + 1`` from
    slot states ``s < T - 1`` and radius 0 (the timer just fired) from
    state ``T - 1``, so ``C_T(T) = (U w_{T-1} + c V (sum_{s<T-1} w_s
    g(s+1) + w_{T-1} g(0))) / sum_{s<T} w_s``; element ``T - 1`` agrees
    with :func:`time_based_costs` to float rounding.
    """
    c = mobility.c
    weights = (1.0 - c) ** np.arange(max_period)
    mass = np.cumsum(weights)
    ahead = np.cumsum(weights * topology.coverage_curve(max_period)[1:])
    covered = np.concatenate(([0.0], ahead[:-1])) + weights * topology.coverage(0)
    return costs.update_cost * weights / mass + c * costs.poll_cost * covered / mass


def _la_curve(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    max_radius: int,
) -> np.ndarray:
    """Total cost of every LA radius ``n = 0..max_radius``; element ``n``
    agrees with :func:`location_area_costs` to float rounding."""
    radii = np.arange(max_radius + 1)
    cells = topology.coverage_curve(max_radius)
    rate = _la_crossing_rate(topology, mobility.q, radii, cells)
    return costs.update_cost * rate + mobility.c * costs.poll_cost * cells


def optimal_movement_threshold(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    max_threshold: int = 100,
) -> BaselineCosts:
    """Best movement threshold ``M`` in ``1..max_threshold``."""
    return _argmin(
        lambda M: movement_based_costs(topology, mobility, costs, M),
        _movement_curve(topology, mobility, costs, max_threshold),
        1,
    )


def optimal_timer_period(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    max_period: int = 200,
) -> BaselineCosts:
    """Best timer period ``T`` in ``1..max_period``."""
    return _argmin(
        lambda T: time_based_costs(topology, mobility, costs, T),
        _timer_curve(topology, mobility, costs, max_period),
        1,
    )


def optimal_la_radius(
    topology: CellTopology,
    mobility: MobilityParams,
    costs: CostParams,
    max_radius: int = 100,
) -> BaselineCosts:
    """Best LA size parameter ``n`` in ``0..max_radius``."""
    return _argmin(
        lambda n: location_area_costs(topology, mobility, costs, n),
        _la_curve(topology, mobility, costs, max_radius),
        0,
    )
