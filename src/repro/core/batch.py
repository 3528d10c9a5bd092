"""Batched analytic cost surfaces: every threshold in O(D).

The scalar pipeline (:mod:`repro.core.chains` -> :mod:`repro.core.costs`)
solves one ``(d, m)`` operating point at a time, so the paper's
exhaustive ``D + 1``-threshold scan (Section 6) costs O(D^2) work.
This module prices the whole threshold axis from O(D) prefix sums.

The balance equations of the interior states (paper Sections 3.2 and
4.1) do not depend on the threshold ``d`` -- their rates ``a_i``, ``b_i``
depend only on the ring index (see
:attr:`MobilityModel.threshold_invariant_rates`).  With
``s_i = a_i + b_i + c``, row ``d`` solves

    a_{i-1} y_{i-1} - s_i y_i + b_{i+1} y_{i+1} = 0,   i = 1 .. d,

with ``y_{d+1} = 0``, so every row mixes the same two solutions of one
three-term recurrence: ``p_{i,d}`` is proportional to
``M_i (W_{d+1} - W_i)`` for any positive solution ``M`` and ``W = G / M``
with ``G_0 = 0``.  :func:`steady_prefix` takes ``M`` from the backward
ratios ``r_i = M_i / M_{i-1} = a_{i-1} / (s_i - b_{i+1} r_{i+1})``
(``r_{D+2} = 0``: the truncated chain's own solution, which exists at
``c = 0`` too) and ``W_{i+1} - W_i = C_i / (M_i M_{i+1})`` from the
Casoratian ``C_i = C_{i-1} a_{i-1} / b_{i+1}``.  With
``SM_k = sum_{i <= k} M_i`` and the running normalizer
``Z_d = sum_{k <= d} (W_{k+1} - W_k) SM_k``:

* ``p_{d,d} = M_d (W_{d+1} - W_d) / Z_d`` -- the update cost, eqn (61);
* ``P(ring <= k | d) = (Z_k + SM_k (W_{d+1} - W_{k+1})) / Z_d`` -- the
  SDF weights, eqns (63)-(65), via
  :func:`~repro.paging.plan.sdf_weights_batch`;
* ``sum_i p_{i,d} f(i)`` is a prefix sum of prefix sums -- the per-ring
  (``m = inf``) cells and delay.

Every quantity is kept in log space: the recursion's magnitudes span
thousands of orders on call-dominated or deep chains.  One solve per
model is memoized under its exact ``d_max``; the distance search, every
delay bound and the jointly-optimal solver querying one chain share it.

A cost row -- ``C_u(d)``, the SDF cells and delay, ``C_v(d, m)`` and
``C_T(d, m)`` over ``d = 0 .. D`` for one delay bound -- costs one SDF
weight pass over that solve plus a few vector products.  What a row
reads that does not depend on ``m`` -- the coverage ``g(0 .. D)`` and,
per boundary convention, the update rate ``p_{d,d} a_{d,d+1}`` -- is
built once per chain and kept on the solve.  A threshold search prices
the one row it scans
(:meth:`~repro.core.costs.CostEvaluator.cost_curve`);
:func:`compute_cost_surface` stacks the rows of several delay bounds
into a :class:`CostSurfaceGrid`.  :func:`batched_steady_states` builds
the ``(D+1) x (D+1)`` matrix from the same prefix arrays for the one
consumer that needs whole rows, the jointly-optimal registration step.
The scalar solvers -- closed form, recursion, matrix solve and the
single-``d`` :func:`banded_steady_state` -- stay as independent
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from ..exceptions import ParameterError, SolverError
from ..observability.context import current as _observability
from ..observability.tracing import traced
from ..paging.plan import sdf_weights_batch
from .models import MobilityModel
from .optimizers import scan_curve
from .parameters import CostParams, validate_delay, validate_threshold

__all__ = [
    "CostSurfaceGrid",
    "SteadyPrefix",
    "banded_steady_state",
    "batched_steady_states",
    "batched_update_rates",
    "batched_update_costs",
    "compute_cost_surface",
    "steady_prefix",
]

#: Tolerance for the vectorized state-0 balance check (same bound the
#: scalar recursive solver enforces per chain).
_BALANCE_TOLERANCE = 1e-9


def _require_invariant_rates(model: MobilityModel) -> None:
    if not getattr(model, "threshold_invariant_rates", False):
        raise ParameterError(
            f"model {model.name!r} declares threshold-dependent transition "
            "rates (threshold_invariant_rates is False); the batched solver "
            "requires a_i/b_i to depend only on the ring index -- use the "
            "scalar CostEvaluator path for this model"
        )


def _banded_solve(a: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
    """One chain's steady state via a tridiagonal ``solve_banded`` LU.

    Anchors ``p_0 = 1`` and solves the interior balance equations

        (a_i + b_i + c) p_i - a_{i-1} p_{i-1} - b_{i+1} p_{i+1} = 0

    for the unknowns ``p_1 .. p_d`` (the reset flows all land in the
    state-0 equation, which normalization replaces).  The scalar
    recursion instead anchors ``u_d = 1`` and works *backward*, so its
    unnormalized values grow like ``prod(s_i / a_i)`` -- at least
    ``2**d`` for the library's models -- and overflow float64 near
    ``d ~ 760``.  The ``p_0 = 1`` anchor turns that growth into harmless
    underflow of the far tail.
    """
    from scipy.linalg import solve_banded

    d = a.size - 1
    if d == 0:
        return np.ones(1)
    s = a + b + c
    ab = np.zeros((3, d))
    ab[1, :] = s[1:]
    ab[0, 1:] = -b[2:]
    ab[2, :-1] = -a[1:d]
    rhs = np.zeros(d)
    rhs[0] = a[0]
    x = solve_banded((1, 1), ab, rhs)
    p = np.concatenate(([1.0], x))
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise SolverError(
            "banded solve produced an invalid steady-state vector; the "
            "chain parameters are numerically pathological"
        )
    return p / p.sum()


@traced("analytic.banded_steady_state")
def banded_steady_state(model: MobilityModel, d: int) -> np.ndarray:
    """Steady state of one threshold ``d`` via the banded LU solver.

    Needs no rate invariance -- the chain is built per ``d`` -- and
    stays finite far past the ``d ~ 760`` overflow horizon of the
    backward recursion.  The state-0 balance check of the scalar
    solvers is applied to the result.
    """
    d = validate_threshold(d)
    chain = model.chain(d)
    pi = _banded_solve(chain.a, chain.b, chain.reset)
    if d >= 1:
        lhs = pi[0] * chain.a[0]
        rhs = (
            pi[1] * chain.b[1]
            + pi[d] * chain.a[d]
            + chain.reset * (1.0 - pi[0])
        )
        if abs(lhs - rhs) > _BALANCE_TOLERANCE:
            raise SolverError(
                f"state-0 balance violated by {abs(lhs - rhs):.3e} in the "
                "banded solve; steady-state vector is inconsistent"
            )
    return pi


class SteadyPrefix:
    """The steady states of every threshold ``0 .. D`` of one chain, as
    O(D) log-space prefix sums (see the module docstring).

    ``log_m`` holds ``ln M_0 .. ln M_{D+1}`` (``M_0 = 1``) and ``log_w``
    holds ``ln W_0 .. ln W_{D+1}`` (``W_0 = 0``); ``log_dw``, ``log_sm``
    and ``log_z`` hold ``ln(W_{k+1} - W_k)``, ``ln SM_k`` and ``ln Z_k``
    for ``k = 0 .. D``, and ``outward`` the rates ``a_0 .. a_D``.  Index
    arguments ``d``, ``k`` and ``i`` may be NumPy arrays of thresholds
    and rings.
    """

    def __init__(
        self, log_m: np.ndarray, log_dw: np.ndarray, outward: np.ndarray
    ) -> None:
        self.log_m = log_m
        self.log_dw = log_dw
        self.outward = outward
        self.log_sm = np.logaddexp.accumulate(log_m[:-1])
        self.log_w = np.concatenate(([-np.inf], np.logaddexp.accumulate(log_dw)))
        self.log_z = np.logaddexp.accumulate(log_dw + self.log_sm)
        for array in (log_m, log_dw, outward, self.log_sm, self.log_w, self.log_z):
            array.flags.writeable = False
        self._matrix = None
        #: The cost-row vectors of the model this chain was solved for,
        #: built on first use; see :func:`_row_vectors`.
        self._coverage = None
        self._crossings: dict = {}

    @property
    def d_max(self) -> int:
        """Largest threshold covered."""
        return self.log_dw.size - 1

    def diagonal(self) -> np.ndarray:
        """``p_{d,d}`` for every ``d = 0 .. D``."""
        return np.exp(self.log_m[:-1] + self.log_dw - self.log_z)

    def probability(self, d, i):
        """``p_{i,d} = M_i W_{d+1} (1 - W_i / W_{d+1}) / Z_d``; zero for
        ``i > d``."""
        log_w = self.log_w[d + 1]
        tail = -np.expm1(np.minimum(self.log_w[i] - log_w, 0.0))
        return np.exp(self.log_m[i] + log_w - self.log_z[d]) * tail

    def ring_cdf(self, d, k):
        """``P(ring <= k | d)`` for ``k <= d``."""
        log_w, log_z = self.log_w[d + 1], self.log_z[d]
        tail = -np.expm1(self.log_w[k + 1] - log_w)
        below = np.exp(self.log_z[k] - log_z)
        return below + np.exp(self.log_sm[k] + log_w - log_z) * tail

    def mean(self, f: np.ndarray) -> np.ndarray:
        """``sum_i p_{i,d} f(i)`` for every ``d``; ``f(0 .. D) > 0``."""
        inner = np.logaddexp.accumulate(self.log_m[:-1] + np.log(f))
        return np.exp(np.logaddexp.accumulate(self.log_dw + inner) - self.log_z)

    def matrix(self) -> np.ndarray:
        """The read-only ``(D+1) x (D+1)`` matrix whose row ``d`` holds
        ``p_{0,d} .. p_{d,d}`` followed by zeros; built once."""
        if self._matrix is None:
            rings = np.arange(self.d_max + 1)
            matrix = self.probability(rings[:, np.newaxis], rings)
            matrix[rings, rings] = self.diagonal()
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix


def steady_prefix(model: MobilityModel, d_max: int) -> SteadyPrefix:
    """The :class:`SteadyPrefix` of ``model`` over thresholds ``0 .. d_max``.

    The last solve is kept on ``model`` under its exact ``d_max``;
    asking again returns that same object without a solve (and without
    an ``analytic.batched_steady_states`` span).  A different ``d_max``
    solves afresh rather than reading a prefix of a deeper solve: the
    backward ratios start at ``d_max + 2``.
    ``analytic_steady_memo_total{model, outcome}`` counts hits and
    misses.
    """
    d_max = validate_threshold(d_max)
    _require_invariant_rates(model)
    chain = getattr(model, "_steady_prefix", None)
    if chain is not None and chain.d_max == d_max:
        _count_memo(model, "hit")
        return chain
    _count_memo(model, "miss")
    a, b = model.transition_rates(d_max + 1)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    chain = _solve_prefix(a, b, model.c)
    model._steady_prefix = chain
    return chain


def _count_memo(model: MobilityModel, outcome: str) -> None:
    _observability().registry.counter(
        "analytic_steady_memo_total", model=model.name, outcome=outcome
    ).inc()


@traced("analytic.batched_steady_states")
def _solve_prefix(a: np.ndarray, b: np.ndarray, c: float) -> SteadyPrefix:
    """One solve of :func:`steady_prefix` from the rates ``0 .. D+1``."""
    n = a.size - 1  # thresholds 0 .. D
    # r_i = a_{i-1} / den_i with den_i = a_{i-1} + kappa_i + b_{i+1} e_{i+1},
    # where e = 1 - r and kappa_i = s_i - b_{i+1} - a_{i-1} is summed from
    # rate differences: near r = 1 (rare calls) the recursion contracts
    # slowly, and carrying e keeps its rounding relative to e, not to r.
    after = np.append(b[2:], 0.0)  # b_{i+1} for i = 1 .. D+1
    kappa = (a[1:] - a[:-1]) + (b[1:] - after) + c
    dens = []
    e = 1.0
    for k, b_next, a_prev in zip(
        kappa[::-1].tolist(), after[::-1].tolist(), a[-2::-1].tolist()
    ):
        num = k + b_next * e
        den = a_prev + num
        e = num / den
        dens.append(den)
    dens = np.array(dens[::-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(a[:-1]) - np.log(dens)
        log_m = np.concatenate(([0.0], np.cumsum(log_r)))
        log_c = np.concatenate(([0.0], np.cumsum(np.log(a[: n - 1] / b[2:]))))
    log_dw = log_c - log_m[:-1] - log_m[1:]
    # One sum is non-finite iff some term is (NaN, or an infinity).
    if not (dens.min() > 0 and math.isfinite(log_dw.sum())):
        raise SolverError(
            "prefix solve produced an invalid ratio; the chain parameters "
            "are numerically pathological"
        )
    chain = SteadyPrefix(log_m, log_dw, a[:-1])
    _check_reset_balance(chain, b[1], c)
    return chain


def _check_reset_balance(chain: SteadyPrefix, b_1: float, c: float) -> None:
    """Vectorized form of the scalar solver's state-0 balance check.

    For every threshold ``d >= 1`` (the ``d = 0`` chain is trivially
    ``[1]``), paper eqn (5) requires
    ``p_0 a_0 = p_1 b_1 + p_d a_d + c (1 - p_0)``, where
    ``p_{0,d} = W_{d+1} / Z_d`` and
    ``p_{1,d} = M_1 p_{0,d} (1 - W_1 / W_{d+1})``.
    """
    if chain.d_max == 0:
        return
    a = chain.outward
    log_w = chain.log_w[2:]
    p0 = np.exp(log_w - chain.log_z[1:])
    p1 = math.exp(chain.log_m[1]) * p0 * -np.expm1(chain.log_w[1] - log_w)
    lhs = p0 * a[0]
    rhs = p1 * b_1 + chain.diagonal()[1:] * a[1:] + c * (1.0 - p0)
    worst = float(np.max(np.abs(lhs - rhs)))
    if not worst <= _BALANCE_TOLERANCE:
        raise SolverError(
            f"state-0 balance violated by {worst:.3e} in the batched solve; "
            "steady states are inconsistent"
        )


def batched_steady_states(model: MobilityModel, d_max: int) -> np.ndarray:
    """Steady-state vectors of *every* threshold ``0 .. d_max`` at once.

    Returns a read-only ``(d_max + 1, d_max + 1)`` row-triangular
    matrix ``P`` whose row ``d`` holds ``p_{0,d} .. p_{d,d}`` followed
    by zeros -- what ``model.steady_state(d)`` returns per row.  The
    matrix is built in one pass from the memoized :func:`steady_prefix`
    and kept with it, so every delay bound asking for the same chain
    shares one array.  Cost surfaces never build it.
    """
    return steady_prefix(model, d_max).matrix()


def batched_update_rates(
    model: MobilityModel, d_max: int, convention: str = "paper"
) -> np.ndarray:
    """The boundary-crossing rate ``a_{d,d+1}`` for every ``d = 0 .. d_max``.

    For ``d >= 1`` this is the model's interior outward rate, which is
    the ``d``-th entry of the transition-rate array; ``d = 0`` applies
    the per-model boundary convention (see the models module
    docstring).
    """
    d_max = validate_threshold(d_max)
    _require_invariant_rates(model)
    a, _ = model.transition_rates(d_max)
    rates = np.array(a, dtype=float, copy=True)
    rates[0] = model.update_rate(0, convention=convention)
    return rates


def batched_update_costs(
    model: MobilityModel,
    costs: CostParams,
    d_max: int,
    convention: str = "paper",
) -> np.ndarray:
    """``C_u(d)`` (eqn (61)) for every ``d = 0 .. d_max`` as one vector."""
    _, _, crossing = _row_vectors(model, d_max, convention)
    return crossing * costs.update_cost


def _row_vectors(
    model: MobilityModel, d_max: int, convention: str
) -> Tuple[SteadyPrefix, np.ndarray, np.ndarray]:
    """What every cost row of ``model``'s chain over ``0 .. d_max`` reads,
    whatever the delay bound and the costs: the :func:`steady_prefix`
    solve, the coverage ``g(0 .. D)`` and the update rate per slot
    ``p_{d,d} a_{d,d+1}`` with the ``d = 0`` rate of ``convention``.

    The two vectors are read-only and kept on the solve they derive
    from, as its matrix is, so every delay bound and every ``(U, V)``
    priced on one chain -- and the jointly-optimal evaluator -- share
    them.  Each call looks the solve up once, which the
    ``analytic_steady_memo_total`` counter records.
    """
    chain = steady_prefix(model, d_max)
    if chain._coverage is None:
        coverage = model.topology.coverage_curve(chain.d_max)
        coverage.flags.writeable = False
        chain._coverage = coverage
    crossing = chain._crossings.get(convention)
    if crossing is None:
        rates = chain.outward.copy()
        rates[0] = model.update_rate(0, convention=convention)
        crossing = chain.diagonal() * rates
        crossing.flags.writeable = False
        chain._crossings[convention] = crossing
    return chain, chain._coverage, crossing


class _CostRow(NamedTuple):
    """One delay bound's costs over ``d = 0 .. D``; see :func:`_cost_row`."""

    update: np.ndarray
    paging: np.ndarray
    total: np.ndarray
    cells: np.ndarray
    delay: np.ndarray


def _cost_row(
    model: MobilityModel,
    costs: CostParams,
    m,
    chain: SteadyPrefix,
    coverage: np.ndarray,
    update: np.ndarray,
) -> _CostRow:
    """One delay bound's row of the cost surface over ``d = 0 .. D``.

    ``chain`` and ``coverage`` are :func:`_row_vectors`' and ``update``
    is ``C_u(0 .. D)`` (eqn (61)), which does not depend on ``m``.  The
    row adds the SDF expected polled cells and paging delay of
    :func:`~repro.paging.plan.sdf_weights_batch` -- the one weight pass
    that depends on ``m`` -- the paging cost ``c V cells`` (eqn (65))
    and the total ``C_u + C_v`` (eqn (66)).  ``m`` must be a validated
    delay bound.
    """
    cells, delay = sdf_weights_batch(chain, coverage, m)
    paging = model.c * costs.poll_cost * cells
    return _CostRow(update, paging, update + paging, cells, delay)


@dataclass(frozen=True, eq=False)
class CostSurfaceGrid:
    """The full analytic cost surface over ``d = 0..D`` x delay bounds.

    All arrays are read-only numpy; row ``k`` of the 2-D arrays
    corresponds to ``delays[k]``.  :meth:`argmin` replays the
    exhaustive searcher's ascending strict-improvement scan, so
    surface-based optimization is interchangeable with
    :func:`repro.core.optimizers.exhaustive_search` over the curve.
    """

    model_name: str
    q: float
    c: float
    update_weight: float
    poll_weight: float
    convention: str
    delays: Tuple[float, ...]
    #: ``C_u(d)`` -- shape ``(D+1,)``.
    update: np.ndarray
    #: ``C_v(d, m)`` -- shape ``(len(delays), D+1)``.
    paging: np.ndarray
    #: ``C_T(d, m) = C_u + C_v`` -- shape ``(len(delays), D+1)``.
    total: np.ndarray
    #: Expected polled cells per call -- shape ``(len(delays), D+1)``.
    expected_cells: np.ndarray
    #: Expected paging delay in cycles -- shape ``(len(delays), D+1)``.
    expected_delay: np.ndarray

    def __post_init__(self) -> None:
        for array in (
            self.update, self.paging, self.total,
            self.expected_cells, self.expected_delay,
        ):
            array.flags.writeable = False

    @property
    def d_max(self) -> int:
        """Largest threshold covered by the surface."""
        return self.update.shape[0] - 1

    def delay_index(self, m) -> int:
        """Row index of delay bound ``m``; raises if not on the grid."""
        m = validate_delay(m)
        for k, delay in enumerate(self.delays):
            if delay == m:
                return k
        raise ParameterError(
            f"delay {m} is not on the surface grid; have {list(self.delays)}"
        )

    def curve(self, m) -> np.ndarray:
        """``C_T(., m)`` as a read-only vector over ``d = 0 .. d_max``."""
        return self.total[self.delay_index(m)]

    def argmin(self, m) -> int:
        """Optimal threshold for delay ``m`` (ties to the smaller ``d``)."""
        return scan_curve(self.curve(m)).optimal_threshold

    def optimal_thresholds(self) -> dict:
        """``{m: argmin(m)}`` over every delay on the grid."""
        return {m: self.argmin(m) for m in self.delays}


@traced("analytic.compute_cost_surface")
def compute_cost_surface(
    model: MobilityModel,
    costs: CostParams,
    d_max: int,
    delays: Sequence[float] = (1, 2, 3, math.inf),
    convention: str = "paper",
) -> CostSurfaceGrid:
    """Evaluate ``C_u``, ``C_v``, and ``C_T`` on the full ``(d, m)`` grid.

    Row ``k`` is :func:`_cost_row` at ``delays[k]``; the rows share one
    memoized :func:`steady_prefix` solve, its :func:`_row_vectors` and
    one ``C_u`` vector, and each adds O(D min(m, D)) work over the
    prefix sums.  Only the paper's SDF partition is supported -- custom
    plan factories need the scalar :class:`CostEvaluator` path.
    """
    d_max = validate_threshold(d_max)
    delays = tuple(validate_delay(m) for m in delays)
    if len(set(delays)) != len(delays):
        raise ParameterError(f"duplicate delay bounds in {list(delays)}")
    chain, coverage, crossing = _row_vectors(model, d_max, convention)
    update = crossing * costs.update_cost
    paging, total, cells, delay = np.empty((4, len(delays), d_max + 1))
    for k, m in enumerate(delays):
        row = _cost_row(model, costs, m, chain, coverage, update)
        paging[k], total[k] = row.paging, row.total
        cells[k], delay[k] = row.cells, row.delay
    return CostSurfaceGrid(
        model_name=model.name,
        q=model.q,
        c=model.c,
        update_weight=costs.update_cost,
        poll_weight=costs.poll_cost,
        convention=convention,
        delays=delays,
        update=update,
        paging=paging,
        total=total,
        expected_cells=cells,
        expected_delay=delay,
    )
