"""Jointly optimal paging + registration by alternating minimization.

Hajek, Mitzel & Yang (PAPERS.md, cs/0702102) prove that jointly optimal
paging and registration policies can be found by an iterative algorithm
that alternates two exactly-solvable subproblems: optimize the paging
policy against the registration policy's conditional location
distribution, then optimize the registration policy against the paging
policy.  This module realizes that algorithm on the paper's
ring-distance Markov chain, where a policy pair is

* a **registration set**: the distance threshold ``d`` (report when the
  ring distance exceeds ``d``), and
* a **paging order**: a contiguous partition of rings ``0..d`` into at
  most ``m`` polling groups (a :class:`~repro.paging.PagingPlan`).

The two coordinate steps are:

paging step
    Given ``d``, the conditional location law is the chain's steady
    state ``p_{0,d}..p_{d,d}``; the optimal order polls ring groups by
    the dynamic program of
    :func:`repro.paging.optimal.optimal_contiguous_partition` --
    exactly solvable, so the step never worsens the cost.

registration step
    Given the paging policy, scan every threshold ``d'`` in
    ``0..d_max`` with the incumbent plan *adapted* to ``d'`` (rings
    beyond ``d'`` dropped; new rings appended as extra polling groups
    while the delay bound allows, else merged into the last group).
    The incumbent ``(d, plan)`` is one of the candidates, so this step
    never worsens the cost either.  One array pass
    (:meth:`_JointEvaluator.registration_costs`) prices every adapted
    plan; the scan's comparisons are then replayed by
    :func:`~repro.core.optimizers.screened_scan`, which computes the
    scalar cost only for the thresholds whose float error could change
    a decision, so the result is exactly the full scalar scan's.

Convergence criterion (documented contract):

* the per-iteration total cost ``C_T`` is **monotone non-increasing**
  -- each step minimizes over a family containing the incumbent, and a
  belt-and-braces guard refuses any step that would raise the cost;
* iteration 0 is the paper's distance-optimal operating point
  ``(d*, SDF)``, so the converged cost can never exceed the
  distance-based ``C_T(d*, m)`` -- the dominance relation the
  conformance suite pins;
* the loop stops when one full sweep improves the cost by at most
  ``tol``, or after ``max_iterations`` sweeps (bounded iteration
  count).

Steady states come from the batched solver of :mod:`repro.core.batch`:
the matrix of every candidate threshold is built in one pass from the
prefix sums the distance search at the same ``d_max`` already solved.
Models without threshold-invariant rates stack per-threshold scalar
solves into the same matrix.  Nothing the evaluator holds depends on
the costs ``(U, V)`` or the delay bound, so it is built once per model
and kept there.  A caller that already knows the distance optimum -- a
grid sweep does -- passes it in, and no threshold search runs.

Each solve prices a ``(d, plan)`` once: the initial SDF plan, the
paging step's candidate (often the incumbent again), the registration
scan's confirmations and the returned policy share one memo of
breakdowns keyed by the threshold and the plan's group sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.models import (
    MobilityModel,
    OneDimensionalModel,
    SquareGridModel,
    TwoDimensionalModel,
)
from ..core.parameters import (
    CostParams,
    MobilityParams,
    validate_delay,
    validate_threshold,
)
from ..core.optimizers import screened_scan
from ..core.threshold import DEFAULT_MAX_THRESHOLD, find_optimal_threshold
from ..exceptions import ParameterError
from ..geometry import HexTopology, LineTopology, SquareTopology
from ..geometry.topology import Cell, CellTopology
from ..observability.context import current as _observability
from ..paging import PagingPlan, partition_from_sizes, sdf_partition, subarea_count
from ..paging.optimal import optimal_contiguous_partition
from .base import register_strategy
from .distance import DistanceStrategy

__all__ = [
    "JointIteration",
    "JointPolicy",
    "JointlyOptimalStrategy",
    "adapt_plan",
    "exact_model_for_topology",
    "optimize_joint_policy",
]

@dataclass(frozen=True)
class JointIteration:
    """One accepted sweep of the alternating minimization."""

    iteration: int
    threshold: int
    plan: PagingPlan
    total_cost: float


@dataclass(frozen=True)
class JointPolicy:
    """A converged jointly-optimized (registration, paging) policy pair."""

    threshold: int
    plan: PagingPlan
    max_delay: float
    update_cost: float
    paging_cost: float
    expected_polled_cells: float
    expected_delay: float
    #: Accepted operating points, starting with iteration 0 = the
    #: distance-optimal ``(d*, SDF)`` initialization.
    history: Tuple[JointIteration, ...]
    converged: bool
    #: The distance-based optimum the iteration started from.
    baseline_threshold: int
    baseline_cost: float

    @property
    def total_cost(self) -> float:
        """``C_T = C_u + C_v`` of the joint policy."""
        return self.update_cost + self.paging_cost

    @property
    def iterations(self) -> int:
        """Number of full alternation sweeps performed."""
        return len(self.history) - 1

    def cost_history(self) -> List[float]:
        """Per-iteration total costs (monotone non-increasing)."""
        return [step.total_cost for step in self.history]


def _plan_sizes(plan: PagingPlan) -> List[int]:
    """Group sizes of a contiguous plan, validating contiguity."""
    if not plan.contiguous:
        raise ParameterError(
            "joint optimization requires contiguous distance-ordered "
            f"paging plans, got {plan.describe()!r}"
        )
    return list(map(len, plan.subareas))


def adapt_plan(plan: PagingPlan, d_new: int, m) -> PagingPlan:
    """Re-fit a contiguous plan to a different threshold.

    Shrinking drops the rings beyond ``d_new`` (empty groups vanish);
    growing appends each new ring as its own polling group while the
    delay bound ``m`` allows more groups, then merges the remainder
    into the last group.  Used by the registration step to hold the
    paging *policy* fixed while the registration set varies.
    """
    d_new = validate_threshold(d_new)
    m = validate_delay(m)
    sizes = _plan_sizes(plan)
    if d_new == plan.threshold:
        return plan
    if d_new < plan.threshold:
        remaining = d_new + 1
        shrunk: List[int] = []
        for size in sizes:
            take = min(size, remaining)
            if take:
                shrunk.append(take)
            remaining -= take
            if remaining <= 0:
                break
        return partition_from_sizes(d_new, shrunk)
    max_groups = subarea_count(d_new, m)
    grown = list(sizes)
    for _ring in range(plan.threshold + 1, d_new + 1):
        if len(grown) < max_groups:
            grown.append(1)
        else:
            grown[-1] += 1
    return partition_from_sizes(d_new, grown)


class _JointEvaluator:
    """Analytic ``C_T(d, plan)`` for arbitrary contiguous plans.

    Holds one ``(d_max + 1)``-square steady-state matrix: the batched
    solve's (:func:`repro.core.batch.batched_steady_states`), with the
    coverage and update rates kept on that solve, when the model's
    rates are threshold-invariant, else the scalar per-threshold
    solves stacked row by row.  Update costs follow eqn
    (61) with the requested boundary convention, paging costs eqns
    (62)-(65) with the plan's own grouping.  Nothing it holds depends on
    the costs ``(U, V)``: every method applies them, so one evaluator
    serves every delay bound and cost point of a chain
    (:func:`_evaluator` keeps it on the model).
    """

    def __init__(self, model: MobilityModel, d_max: int, convention: str) -> None:
        self.model = model
        self.d_max = d_max
        self.convention = convention
        size = d_max + 1
        if getattr(model, "threshold_invariant_rates", False):
            from ..core.batch import _row_vectors  # deferred: heavy

            # The cost rows of the distance search read the same chain's
            # coverage and update rates; one copy of each serves both.
            chain, self._coverage, self._update_rates = _row_vectors(
                model, d_max, convention
            )
            self._steady = chain.matrix()
        else:
            self._steady = np.zeros((size, size))
            for d in range(size):
                self._steady[d, : d + 1] = model.steady_state(d)
            rates = np.array(
                [model.update_rate(d, convention=convention) for d in range(size)]
            )
            self._coverage = model.topology.coverage_curve(d_max)
            self._update_rates = np.diagonal(self._steady) * rates
        self._ring_sizes = np.diff(self._coverage, prepend=0.0)

    def steady_row(self, d: int) -> np.ndarray:
        return self._steady[d, : d + 1]

    def ring_sizes(self, d: int) -> np.ndarray:
        return self._ring_sizes[: d + 1]

    def breakdown(self, d: int, plan: PagingPlan, costs: CostParams):
        """``(C_u, C_v, E[cells], E[delay])`` at ``(d, plan)``."""
        p = self.steady_row(d)
        rate = self.model.update_rate(d, convention=self.convention)
        update = float(p[d]) * rate * costs.update_cost
        cells = plan.expected_polled_cells(self.model.topology, p)
        paging = self.model.c * costs.poll_cost * cells
        return update, paging, cells, plan.expected_delay(p)

    def registration_costs(
        self, plan: PagingPlan, m, costs: CostParams
    ) -> np.ndarray:
        """``C_T(d', adapt_plan(plan, d', m))`` for every ``d' <= d_max``.

        One ``(d_max + 1)``-square pass instead of ``d_max + 1`` plan
        rebuilds.  Under :func:`adapt_plan` ring ``r`` of threshold
        ``d'`` is polled with the group ending at

        * ``d'`` when ``r`` lies at or past the *tail start* -- the
          first ring of the group holding ``d'`` when shrinking, the
          first merged ring when growing past the singletons the delay
          bound still allows (the old last group's start if none);
        * its own group's end (``r`` itself for appended singletons)
          otherwise,

        so the expected polled cells are the steady-state-weighted
        gather of the cumulative coverage at those ends.  Agrees with
        :meth:`total_cost` to float rounding (the terms are summed in a
        different order), which is what
        :func:`~repro.core.optimizers.screened_scan` needs.
        """
        sizes = np.array(_plan_sizes(plan))
        d = plan.threshold
        thresholds = np.arange(self.d_max + 1)
        ends = np.cumsum(sizes) - 1
        starts = ends - sizes + 1
        limit = thresholds + 1 if m == math.inf else np.minimum(thresholds + 1, int(m))
        singletons = np.clip(np.minimum(thresholds - d, limit - sizes.size), 0, None)
        tail = np.where(singletons > 0, d + singletons, starts[-1])
        tail[: d + 1] = np.repeat(starts, sizes)
        group_end = np.concatenate((np.repeat(ends, sizes), thresholds[d + 1 :]))
        polled = np.where(
            thresholds >= tail[:, np.newaxis], thresholds[:, np.newaxis], group_end
        )
        cells = np.einsum("ij,ij->i", self._steady, self._coverage[polled])
        return (
            self._update_rates * costs.update_cost
            + self.model.c * costs.poll_cost * cells
        )


def _evaluator(model: MobilityModel, d_max: int, convention: str) -> _JointEvaluator:
    """The model's :class:`_JointEvaluator` over thresholds ``0 .. d_max``.

    Kept on the model like :func:`~repro.core.batch.steady_prefix` keeps
    its solve: the last one, under its exact ``d_max`` and convention.
    """
    evaluator = getattr(model, "_joint_evaluator", None)
    key = (d_max, convention)
    if evaluator is None or (evaluator.d_max, evaluator.convention) != key:
        evaluator = _JointEvaluator(model, d_max, convention)
        model._joint_evaluator = evaluator
    return evaluator


def _validate_optimum(optimum: Tuple[int, float], d_max: int) -> Tuple[int, float]:
    threshold, cost = optimum
    threshold = validate_threshold(threshold)
    if threshold > d_max:
        raise ParameterError(
            f"distance optimum d*={threshold} lies outside 0..d_max={d_max}"
        )
    if not math.isfinite(cost):
        raise ParameterError(f"distance optimum cost must be finite, got {cost!r}")
    return threshold, cost


def optimize_joint_policy(
    model: MobilityModel,
    costs: CostParams,
    max_delay=1,
    d_max: int = DEFAULT_MAX_THRESHOLD,
    convention: str = "paper",
    tol: float = 1e-12,
    max_iterations: int = 25,
    distance_optimum: Optional[Tuple[int, float]] = None,
) -> JointPolicy:
    """Alternating minimization for the jointly optimal policy pair.

    Parameters
    ----------
    model:
        The terminal's mobility model (fixes geometry and ``q, c``).
    costs:
        Update and polling costs ``(U, V)``.
    max_delay:
        Delay bound ``m`` in polling cycles (``math.inf`` = unbounded).
    d_max:
        Registration-step search bound ``D``.
    convention:
        Boundary-rate convention for ``C_u`` at ``d = 0`` (matches
        :class:`~repro.core.costs.CostEvaluator`).
    tol:
        Stop when one full sweep improves ``C_T`` by at most this much.
    max_iterations:
        Hard bound on the number of alternation sweeps.
    distance_optimum:
        The distance-based optimum ``(d*, C_T(d*, m))`` to start from,
        as :func:`~repro.core.threshold.find_optimal_threshold` returns
        it for the same model, costs, ``m``, ``d_max`` and
        ``convention`` (a grid sweep's ``(optimal_d, total_cost)``);
        the policy is then exactly the one a search would give.  None
        (default) searches for it.  ``d*`` outside ``0..d_max`` or a
        non-finite cost raises :class:`~repro.exceptions.ParameterError`.

    Returns a :class:`JointPolicy` whose cost history is monotone
    non-increasing from the distance-based optimum ``C_T(d*, m)``.
    """
    m = validate_delay(max_delay)
    d_max = validate_threshold(d_max)
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
    if not (tol >= 0.0):
        raise ParameterError(f"tol must be >= 0, got {tol}")

    if distance_optimum is None:
        baseline = find_optimal_threshold(
            model, costs, m, d_max=d_max, convention=convention
        )
        distance_optimum = (baseline.threshold, baseline.total_cost)
    baseline_threshold, baseline_cost = _validate_optimum(distance_optimum, d_max)
    evaluator = _evaluator(model, d_max, convention)
    confirmations = _observability().registry.counter(
        "joint_registration_confirmed_total", model=model.name
    )

    # One pricing per (d, plan) for the whole solve; plans here are
    # contiguous, so their group sizes identify them.
    priced = {}

    def price(d: int, plan: PagingPlan):
        key = (d, tuple(map(len, plan.subareas)))
        breakdown = priced.get(key)
        if breakdown is None:
            breakdown = priced[key] = evaluator.breakdown(d, plan, costs)
        return breakdown

    def total_cost(d: int, plan: PagingPlan) -> float:
        update, paging, _, _ = price(d, plan)
        return update + paging

    d = baseline_threshold
    plan = sdf_partition(d, m)
    cost = total_cost(d, plan)
    history = [JointIteration(0, d, plan, cost)]

    converged = False
    for sweep in range(1, max_iterations + 1):
        # Paging step: exactly optimal contiguous partition for this d.
        candidate = optimal_contiguous_partition(
            d, m, evaluator.steady_row(d), evaluator.ring_sizes(d)
        )
        candidate_cost = total_cost(d, candidate)
        if candidate_cost < cost:  # monotonicity guard
            plan, cost = candidate, candidate_cost

        # Registration step: scan thresholds with the plan held fixed
        # (adapted to each candidate's ring count).  Ascending scan with
        # a strict-improvement tie tolerance reproduces the distance
        # searcher's tie-breaking on degenerate instances.
        best_d, best_cost, confirmed = screened_scan(
            evaluator.registration_costs(plan, m, costs),
            lambda d_new: total_cost(d_new, adapt_plan(plan, d_new, m)),
            best=d,
            best_cost=cost,
            skip=d,
        )
        confirmations.inc(confirmed)
        if best_d != d:
            d, plan = best_d, adapt_plan(plan, best_d, m)
        improvement = cost - best_cost
        cost = min(cost, best_cost)  # guard: never record an increase
        history.append(JointIteration(sweep, d, plan, cost))
        if improvement <= tol:
            converged = True
            break

    update, paging, cells, delay = price(d, plan)
    return JointPolicy(
        threshold=d,
        plan=plan,
        max_delay=m,
        update_cost=update,
        paging_cost=paging,
        expected_polled_cells=cells,
        expected_delay=delay,
        history=tuple(history),
        converged=converged,
        baseline_threshold=baseline_threshold,
        baseline_cost=baseline_cost,
    )


def exact_model_for_topology(
    topology: CellTopology, mobility: MobilityParams
) -> MobilityModel:
    """The exact ring chain realized by a random walk on ``topology``."""
    if isinstance(topology, LineTopology):
        return OneDimensionalModel(mobility)
    if isinstance(topology, HexTopology):
        return TwoDimensionalModel(mobility)
    if isinstance(topology, SquareTopology):
        return SquareGridModel(mobility)
    raise ParameterError(
        "jointly-optimal strategy supports line, hex, and square "
        f"geometries, got {topology!r}"
    )


class JointlyOptimalStrategy(DistanceStrategy):
    """Distance registration + optimized paging order, solved jointly.

    At :meth:`attach` time the strategy maps the bound topology to its
    exact ring chain, runs :func:`optimize_joint_policy`, and then
    behaves as a distance-based scheme with the converged threshold and
    the converged (generally non-SDF) paging plan.

    Parameters
    ----------
    mobility:
        The terminal's ``(q, c)`` -- the joint optimization is offline,
        so the rates must be known up front (contrast
        :class:`~repro.strategies.dynamic.DynamicStrategy`).
    costs:
        The ``(U, V)`` cost weights.
    max_delay:
        Paging delay bound ``m``.
    d_max, tol, max_iterations:
        Forwarded to :func:`optimize_joint_policy`.
    convention:
        Boundary-rate convention; the default ``"physical"`` matches
        the simulated walk's actual update rate at ``d = 0``.
    """

    name = "jointly-optimal"

    def __init__(
        self,
        mobility: MobilityParams,
        costs: CostParams,
        max_delay=1,
        d_max: int = 50,
        convention: str = "physical",
        tol: float = 1e-12,
        max_iterations: int = 25,
    ) -> None:
        super().__init__(0, max_delay)  # placeholder until attach()
        self.mobility = mobility
        self.costs = costs
        self.d_max = d_max
        self.convention = convention
        self.tol = tol
        self.max_iterations = max_iterations
        self.policy: Optional[JointPolicy] = None

    def attach(self, topology: CellTopology, start: Cell) -> None:
        if self.policy is None:
            model = exact_model_for_topology(topology, self.mobility)
            self.policy = optimize_joint_policy(
                model,
                self.costs,
                self.max_delay,
                d_max=self.d_max,
                convention=self.convention,
                tol=self.tol,
                max_iterations=self.max_iterations,
            )
            self.threshold = self.policy.threshold
            self.plan = self.policy.plan
            self._groups_by_center.clear()
        super().attach(topology, start)

    def __repr__(self) -> str:
        delay = "inf" if self.max_delay == math.inf else self.max_delay
        if self.policy is None:
            return f"JointlyOptimalStrategy(unattached, max_delay={delay})"
        return (
            f"JointlyOptimalStrategy(threshold={self.threshold}, "
            f"plan={self.plan.describe()!r}, max_delay={delay})"
        )


register_strategy("jointly-optimal", JointlyOptimalStrategy)
