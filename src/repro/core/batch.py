"""Batched analytic cost-surface solver: every threshold at once.

The scalar pipeline (:mod:`repro.core.chains` -> :mod:`repro.core.costs`)
solves one ``(d, m)`` operating point at a time: each threshold ``d``
rebuilds a :class:`~repro.core.chains.ResetChain` and runs an O(d)
recursion, so the paper's exhaustive ``D + 1``-iteration scan
(Section 6) costs O(D^2) Python-level work per optimization, and every
figure, table, crossover map, and fleet plan pays it again.

This module computes the *whole* cost surface in a handful of NumPy
passes:

1. :func:`batched_steady_states` runs the paper's Section 4.1 backward
   recursion for **all** thresholds ``d = 0 .. D`` simultaneously.  The
   balance-equation coefficients ``a_i``, ``b_i`` depend only on the
   ring index ``i`` -- never on the threshold ``d`` -- for every model
   in the library (see :attr:`MobilityModel.threshold_invariant_rates`),
   so one triangular ``(D+1) x (D+1)`` sweep with ``u_{d,d} = 1``
   terminal conditions reproduces every per-``d`` recursive solve:
   step ``i`` updates column ``i - 1`` of all rows ``d >= i`` at once.
   ``method="auto"`` takes that sweep only while
   :func:`dense_recursion_fits` bounds its magnitudes inside float64,
   and the per-row banded LU otherwise.  The last matrix solved is kept
   on the model instance under its exact ``(method, d_max)``, so the
   distance search, the jointly-optimal solver and every delay bound
   that query one chain share one solve.
2. :func:`batched_update_costs` turns the diagonal ``p_{d,d}`` into the
   full ``C_u(d)`` vector (eqn (61)) with the model's boundary-rate
   convention applied at ``d = 0``.
3. :func:`~repro.paging.plan.sdf_weights_batch` derives the SDF
   partition weights ``alpha_j w_j`` (eqns (63)-(65)) for all ``d``
   from cumulative sums of the steady-state matrix and the ring sizes
   -- no per-``d`` plan objects.

:func:`compute_cost_surface` packages the three into a
:class:`CostSurfaceGrid` holding ``C_u(d)``, ``C_v(d, m)``, and
``C_T(d, m)`` over a ``d x m`` grid.  The scalar
:class:`~repro.core.costs.CostEvaluator` path is retained as the
cross-check reference; ``benchmarks/bench_analytic.py`` asserts the two
agree to 1e-10 and measures the speedup (>= 20x at ``d_max = 100``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_banded

from ..exceptions import ParameterError, SolverError
from ..observability.context import current as _observability
from ..observability.tracing import traced
from ..paging.plan import sdf_weights_batch
from .models import MobilityModel
from .parameters import CostParams, validate_delay, validate_threshold

__all__ = [
    "BANDED_CUTOVER",
    "CostSurfaceGrid",
    "banded_steady_state",
    "batched_steady_states",
    "dense_recursion_fits",
    "batched_update_rates",
    "batched_update_costs",
    "compute_cost_surface",
]

#: Tolerance for the vectorized state-0 balance check (same bound the
#: scalar recursive solver enforces per chain).
_BALANCE_TOLERANCE = 1e-9

#: Tie-breaking tolerance of the exhaustive argmin; matches
#: :func:`repro.core.optimizers.exhaustive_search`.
_TIE_TOLERANCE = 1e-15

#: The steady-state solver methods ``batched_steady_states`` accepts.
_SOLVERS = ("auto", "dense", "banded")

#: ``method="auto"`` never takes the dense triangular recursion above
#: this ``d_max``: past it the O(d) banded LU per row is the faster
#: path anyway.
BANDED_CUTOVER = 512

#: ``method="auto"`` keeps the dense recursion only while its magnitude
#: bound (see :func:`dense_recursion_fits`) stays below ``1e300``.
_DENSE_LOG_LIMIT = math.log(1e300)


def dense_recursion_fits(a: np.ndarray, b: np.ndarray, c: float) -> bool:
    """Whether the backward recursion stays in float64 range for a chain.

    With ``u_d = 1`` the recursion ``u_{i-1} = (u_i s_i - u_{i+1}
    b_{i+1}) / a_{i-1}`` (``s_i = a_i + b_i + c``) never exceeds
    ``prod_{k >= i} s_k / a_{k-1}``, which grows far faster than the
    ``2**d`` of a fast walker when calls dominate moves: at ``q = 3e-4``,
    ``c = 0.2`` each ring multiplies it by ~1335 and ``d = 100``
    overflows.  ``method="auto"`` -- in :func:`batched_steady_states`
    for every row ``d <= len(a) - 1`` at once, and in
    :meth:`MobilityModel.steady_state` for one ``d`` -- takes the dense
    recursion only when ``d <= BANDED_CUTOVER`` and
    ``sum_{i <= d} ln(s_i / a_{i-1}) < ln(1e300)`` for every ``d``; the
    banded LU, which only ever underflows, takes the rest.  The paper's
    golden points use about 60% of that budget at most.
    """
    d = len(a) - 1
    if d > BANDED_CUTOVER:
        return False
    if d == 0:
        return True
    with np.errstate(divide="ignore", over="ignore"):
        growth = np.cumsum(np.log((a[1:] + b[1:] + c) / a[:-1]))
    return bool(np.max(growth) < _DENSE_LOG_LIMIT)


def _validate_solver(method: str) -> str:
    if method not in _SOLVERS:
        raise ParameterError(
            f"steady-state solver must be one of {_SOLVERS}, got {method!r}"
        )
    return method


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
    state-0 equation, which normalization replaces).  The dense
    triangular recursion instead anchors ``u_d = 1`` and works
    *backward*, so its unnormalized values grow like
    ``prod(s_i / a_i)`` -- at least ``2**d`` for the library's models --
    and overflow float64 near ``d ~ 760``.  The ``p_0 = 1`` anchor
    turns that growth into harmless underflow of the far tail, which is
    what makes very large ``d`` feasible at all (and the LU is O(d)
    time/memory instead of O(d^2) dense rows).
    """
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

    Unlike the batched solvers this needs no rate invariance -- the
    chain is built per ``d`` -- and it stays finite far past the
    ``d ~ 760`` overflow horizon of the backward recursion.  The
    state-0 balance check of the scalar solvers is applied to the
    result.
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


def batched_steady_states(
    model: MobilityModel, d_max: int, method: str = "auto"
) -> np.ndarray:
    """Steady-state vectors of *every* threshold ``0 .. d_max`` at once.

    Returns a read-only ``(d_max + 1, d_max + 1)`` row-triangular
    matrix ``P`` whose row ``d`` holds ``p_{0,d} .. p_{d,d}`` followed
    by zeros -- exactly what ``model.steady_state(d, method="recursive")``
    returns per row.

    ``method`` picks the solver: ``"dense"`` is the vectorized backward
    recursion below, ``"banded"`` solves each row with the O(d)
    tridiagonal LU of :func:`_banded_solve`, and ``"auto"`` (the
    default) uses the dense sweep while :func:`dense_recursion_fits`
    bounds its magnitudes inside float64 and the banded path otherwise
    -- the dense recursion's unnormalized values overflow for deep or
    call-dominated chains, which are *only* reachable banded.  Both
    methods agree to ~1e-14 (the conformance suite pins 1e-10).

    The last matrix solved is kept on ``model`` under its exact
    ``(resolved method, d_max)``; asking again returns that same array
    without a solve (and without an ``analytic.batched_steady_states``
    span).  A different ``d_max`` solves afresh rather than slicing a
    larger matrix: a leading square is not bitwise a fresh solve,
    because NumPy's pairwise row sums group the terms differently.
    ``analytic_steady_memo_total{method, outcome}`` counts hits and
    misses.

    The dense recursion (paper Section 4.1, uniform form): with
    unnormalized ``u_{d,d} = 1`` and ``u_{d,d+1} = 0``,

        u_{d,i-1} = (u_{d,i} (a_i + b_i + c) - u_{d,i+1} b_{i+1}) / a_{i-1}

    for ``i = d .. 1``.  Because the coefficients are shared by all
    thresholds, step ``i`` fills column ``i - 1`` of every row
    ``d >= i`` in one NumPy slice operation; normalization is a single
    row-sum.  O(D^2) arithmetic in O(D) vector steps, vs O(D^2) Python
    iterations plus O(D) chain rebuilds for the scalar loop.
    """
    d_max = validate_threshold(d_max)
    _require_invariant_rates(model)
    _validate_solver(method)
    memo = getattr(model, "_batched_steady", None)
    if memo is not None and memo.d_max == d_max:
        resolved = memo.auto_method if method == "auto" else method
        if resolved == memo.method:
            _count_memo(model, resolved, "hit")
            return memo.matrix
    a, b = model.transition_rates(d_max)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    auto_method = "dense" if dense_recursion_fits(a, b, model.c) else "banded"
    resolved = auto_method if method == "auto" else method
    _count_memo(model, resolved, "miss")
    pi = _solve_batched(a, b, model.c, resolved)
    pi.flags.writeable = False
    model._batched_steady = _SteadyMemo(d_max, resolved, auto_method, pi)
    return pi


class _SteadyMemo(NamedTuple):
    """The last batched solve of a model, with what ``"auto"`` resolves
    to at its ``d_max`` (a property of the chain, kept so a hit needs no
    rates)."""

    d_max: int
    method: str
    auto_method: str
    matrix: np.ndarray


def _count_memo(model: MobilityModel, method: str, outcome: str) -> None:
    _observability().registry.counter(
        "analytic_steady_memo_total", model=model.name, method=method, outcome=outcome
    ).inc()


@traced("analytic.batched_steady_states")
def _solve_batched(a: np.ndarray, b: np.ndarray, c: float, method: str) -> np.ndarray:
    """One batched solve of :func:`batched_steady_states` (no memo)."""
    n = a.size
    if method == "banded":
        pi = np.zeros((n, n))
        pi[0, 0] = 1.0
        for d in range(1, n):
            pi[d, : d + 1] = _banded_solve(a[: d + 1], b[: d + 1], c)
    else:
        s = a + b + c
        u = np.zeros((n, n + 1))
        diag = np.arange(n)
        u[diag, diag] = 1.0
        b_pad = np.append(b, 0.0)  # u_{d,d+1} is 0, so b_{d+1} never matters
        for i in range(n - 1, 0, -1):
            u[i:, i - 1] = (
                u[i:, i] * s[i] - u[i:, i + 1] * b_pad[i + 1]
            ) / a[i - 1]
        u = u[:, :n]
        if np.any(u < 0) or not np.all(np.isfinite(u)):
            raise SolverError(
                "batched solve produced an invalid unnormalized matrix; the "
                "chain parameters are numerically pathological -- for very "
                "large d_max use method='banded'"
            )
        pi = u / u.sum(axis=1, keepdims=True)
    _check_reset_balance_batch(a, b, c, pi)
    return pi


def _check_reset_balance_batch(
    a: np.ndarray, b: np.ndarray, c: float, pi: np.ndarray
) -> None:
    """Vectorized form of the scalar solver's state-0 balance check.

    For every threshold ``d >= 1`` (the ``d = 0`` chain is trivially
    ``[1]``), paper eqn (5) requires
    ``p_0 a_0 = p_1 b_1 + p_d a_d + c (1 - p_0)``.
    """
    n = pi.shape[0]
    if n < 2:
        return
    diag = pi[np.arange(1, n), np.arange(1, n)]
    lhs = pi[1:, 0] * a[0]
    rhs = pi[1:, 1] * b[1] + diag * a[1:] + c * (1.0 - pi[1:, 0])
    worst = float(np.max(np.abs(lhs - rhs)))
    if worst > _BALANCE_TOLERANCE:
        raise SolverError(
            f"state-0 balance violated by {worst:.3e} in the batched solve; "
            "steady-state matrix is inconsistent"
        )


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
    steady: np.ndarray = None,
) -> np.ndarray:
    """``C_u(d)`` (eqn (61)) for every ``d = 0 .. d_max`` as one vector.

    ``steady`` may pass a precomputed :func:`batched_steady_states`
    matrix to avoid re-solving.
    """
    d_max = validate_threshold(d_max)
    if steady is None:
        steady = batched_steady_states(model, d_max)
    diag = steady[np.arange(d_max + 1), np.arange(d_max + 1)]
    rates = batched_update_rates(model, d_max, convention=convention)
    return diag * rates * costs.update_cost


@dataclass(frozen=True, eq=False)
class CostSurfaceGrid:
    """The full analytic cost surface over ``d = 0..D`` x delay bounds.

    All arrays are read-only numpy; row ``k`` of the 2-D arrays
    corresponds to ``delays[k]``.  The argmin helpers replicate the
    exhaustive searcher's tie-breaking (ties go to the smaller
    threshold) so surface-based optimization is interchangeable with
    :func:`repro.core.optimizers.exhaustive_search` over the scalar
    evaluator.
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
    #: Row-triangular steady-state matrix -- shape ``(D+1, D+1)``.
    steady: np.ndarray

    def __post_init__(self) -> None:
        for array in (
            self.update, self.paging, self.total,
            self.expected_cells, self.expected_delay, self.steady,
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
        curve = self.curve(m)
        best = int(np.argmin(curve))
        # np.argmin already returns the first minimizer; widen by the
        # exhaustive searcher's tolerance so a value within 1e-15 of
        # the minimum earlier in the curve wins, exactly as the scalar
        # search would decide.
        earlier = np.nonzero(curve[:best] <= curve[best] + _TIE_TOLERANCE)[0]
        if earlier.size:
            return int(earlier[0])
        return best

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
    steady: np.ndarray = None,
    solver: str = "auto",
) -> CostSurfaceGrid:
    """Evaluate ``C_u``, ``C_v``, and ``C_T`` on the full ``(d, m)`` grid.

    One batched steady-state solve is shared by every delay bound; each
    delay adds only a cumulative-sum pass over the SDF partition
    weights.  Only the paper's SDF partition is supported -- custom
    plan factories need the scalar :class:`CostEvaluator` path.

    ``solver`` picks the steady-state method (``"auto"`` | ``"dense"``
    | ``"banded"``, default ``"auto"``); it is ignored when
    a precomputed ``steady`` matrix is passed.

    ``steady`` may pass a precomputed :func:`batched_steady_states`
    matrix (for this model, possibly larger than ``d_max + 1``) to
    skip the triangular solve -- row ``d`` of the batched solve is
    independent of the matrix size, so the leading square is reusable.
    This is how :class:`~repro.core.costs.CostEvaluator` shares one
    solve across the delay bounds it is queried with.
    """
    d_max = validate_threshold(d_max)
    delays = tuple(validate_delay(m) for m in delays)
    if len(set(delays)) != len(delays):
        raise ParameterError(f"duplicate delay bounds in {list(delays)}")
    if steady is None:
        steady = batched_steady_states(model, d_max, method=solver)
    else:
        steady = np.asarray(steady, dtype=float)
        if steady.ndim != 2 or steady.shape[0] != steady.shape[1]:
            raise ParameterError(
                f"steady must be a square matrix, got shape {steady.shape}"
            )
        if steady.shape[0] < d_max + 1:
            raise ParameterError(
                f"steady covers thresholds 0..{steady.shape[0] - 1}, "
                f"but d_max={d_max} was requested"
            )
        steady = steady[: d_max + 1, : d_max + 1]
    update = batched_update_costs(
        model, costs, d_max, convention=convention, steady=steady
    )
    coverage = np.array(
        [model.coverage(i) for i in range(d_max + 1)], dtype=float
    )
    cells_rows = []
    delay_rows = []
    for m in delays:
        cells, delay = sdf_weights_batch(steady, coverage, m)
        cells_rows.append(cells)
        delay_rows.append(delay)
    expected_cells = np.vstack(cells_rows)
    expected_delay = np.vstack(delay_rows)
    paging = model.c * costs.poll_cost * expected_cells
    total = update[np.newaxis, :] + paging
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
        expected_cells=expected_cells,
        expected_delay=expected_delay,
        steady=steady,
    )
