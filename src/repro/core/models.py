"""The paper's three analytical mobility models.

Each model class bundles, for a terminal with mobility parameters
``(q, c)`` on one of the paper's geometries:

* the ring-distance Markov chain (transition rate arrays, paper
  Sections 3.1 / 4.1);
* steady-state solvers (closed form where the paper gives one, plus the
  recursive and matrix solvers for cross-checking);
* the geometric coverage function ``g(d)`` (paper eqn (1));
* the boundary-crossing rate used in the update-cost formula
  ``C_u(d) = p_{d,d} * a_{d,d+1} * U`` (paper eqn (61)).

Boundary-rate convention
------------------------

At ``d = 0`` the chain rate out of state 0 is ``q`` (any move leaves
the single-cell residing area), but the paper's published tables only
reproduce if ``C_u(0)`` uses a *different* rate per model (see
DESIGN.md Section 2):

* 1-D (Table 1): ``C_u(0) = U q / 2`` -- the interior rate,
* 2-D exact (Table 2): ``C_u(0) = U q`` -- the physical rate,
* 2-D approximate (Table 2, ``d'`` column): ``C_u(0) = U q / 3`` --
  the interior rate (this is what makes ``d'`` stay at 0 up to
  ``U = 70`` and flip to 1 at ``U = 80``).

Each class implements its paper convention in :meth:`update_rate`; pass
``convention="physical"`` to use ``q`` at ``d = 0`` everywhere instead
(the defensible choice for new deployments; see the ablation bench).
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Tuple

import numpy as np

from ..exceptions import ParameterError
from ..geometry import HexTopology, LineTopology, SquareTopology
from ..geometry.topology import CellTopology
from . import closed_form
from .chains import ResetChain, solve_steady_state_matrix, solve_steady_state_recursive
from .parameters import MobilityParams, validate_threshold

__all__ = [
    "BANDED_CUTOVER",
    "MODEL_CLASSES",
    "MobilityModel",
    "OneDimensionalModel",
    "SquareGridApproximateModel",
    "SquareGridModel",
    "TwoDimensionalModel",
    "TwoDimensionalApproximateModel",
    "dense_recursion_fits",
]

_CONVENTIONS = ("paper", "physical")

#: The default solver never takes the backward recursion above this
#: ``d``: past it the O(d) banded LU is the faster path anyway.
BANDED_CUTOVER = 512

#: Below the cutover, the recursion's magnitude bound (see
#: :func:`dense_recursion_fits`) must also stay below ``1e300``.
_DENSE_LOG_LIMIT = math.log(1e300)


def dense_recursion_fits(a: np.ndarray, b: np.ndarray, c: float) -> bool:
    """Whether the backward recursion stays in float64 range for a chain.

    With ``u_d = 1`` the recursion ``u_{i-1} = (u_i s_i - u_{i+1}
    b_{i+1}) / a_{i-1}`` (``s_i = a_i + b_i + c``) never exceeds
    ``prod_{k >= i} s_k / a_{k-1}``, which grows far faster than the
    ``2**d`` of a fast walker when calls dominate moves: at ``q = 3e-4``,
    ``c = 0.2`` each ring multiplies it by ~1335 and ``d = 100``
    overflows.  :meth:`MobilityModel.steady_state`'s default solver
    takes the recursion for the chain ``a_0 .. a_d`` only when
    ``d <= BANDED_CUTOVER`` and ``sum_{i <= d} ln(s_i / a_{i-1}) <
    ln(1e300)``; the banded LU, which only ever underflows, takes the
    rest.  The paper's golden points use about 60% of that budget at
    most.
    """
    d = len(a) - 1
    if d > BANDED_CUTOVER:
        return False
    if d == 0:
        return True
    with np.errstate(divide="ignore", over="ignore"):
        growth = np.cumsum(np.log((a[1:] + b[1:] + c) / a[:-1]))
    return bool(np.max(growth) < _DENSE_LOG_LIMIT)


class MobilityModel(abc.ABC):
    """Base class for the ring-distance models of Sections 3 and 4."""

    #: Human-readable model name, used in reports.
    name: str = "abstract"

    #: True when ``transition_rates(d)[i]`` depends only on the ring
    #: index ``i``, never on the threshold ``d`` -- equivalently,
    #: ``transition_rates(D)`` restricted to ``0..d`` equals
    #: ``transition_rates(d)`` for every ``d <= D``.  This holds for
    #: every model in the library (the rates come from per-ring
    #: neighbor geometry) and is what lets
    #: :mod:`repro.core.batch` solve all thresholds from one set of
    #: prefix sums.  A subclass whose rates genuinely depend on ``d`` must
    #: set this to False; the batched solver then refuses it and the
    #: scalar path is used instead.
    threshold_invariant_rates: bool = True

    def __init__(self, mobility: MobilityParams) -> None:
        self.mobility = mobility
        self._steady_cache: dict = {}
        #: The last batched steady-state solve; see
        #: :func:`repro.core.batch.steady_prefix`.
        self._steady_prefix = None
        #: The last jointly-optimal evaluator; see
        #: :func:`repro.strategies.jointly_optimal.optimize_joint_policy`.
        self._joint_evaluator = None

    # -- construction conveniences ------------------------------------

    @classmethod
    def from_probabilities(cls, q: float, c: float) -> "MobilityModel":
        """Build a model directly from the paper's ``q`` and ``c``."""
        return cls(MobilityParams(move_probability=q, call_probability=c))

    @property
    def q(self) -> float:
        """Per-slot move probability."""
        return self.mobility.move_probability

    @property
    def c(self) -> float:
        """Per-slot call-arrival probability."""
        return self.mobility.call_probability

    # -- geometry -------------------------------------------------------

    @property
    @abc.abstractmethod
    def topology(self) -> CellTopology:
        """The cell geometry this model's chain aggregates."""

    def coverage(self, d: int) -> int:
        """``g(d)``: number of cells within distance ``d`` (eqn (1))."""
        return self.topology.coverage(validate_threshold(d))

    def ring_size(self, i: int) -> int:
        """Number of cells in ring ``r_i``."""
        return self.topology.ring_size(i)

    # -- chain ----------------------------------------------------------

    @abc.abstractmethod
    def transition_rates(self, d: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return the rate arrays ``(a_0..a_d, b_0..b_d)`` for threshold ``d``."""

    def chain(self, d: int) -> ResetChain:
        """Build the :class:`ResetChain` for threshold ``d``."""
        a, b = self.transition_rates(validate_threshold(d))
        return ResetChain(outward=a, inward=b, reset=self.c)

    def steady_state(self, d: int, method: str = "auto") -> np.ndarray:
        """Return ``p_{0,d} .. p_{d,d}``, the residence distribution.

        ``method`` selects the solver: ``"auto"`` (the model's preferred
        solver, cached), ``"closed_form"`` (where available),
        ``"recursive"`` (paper Section 4.1), ``"matrix"`` (reference
        linear solve), or ``"banded"`` (the scipy tridiagonal LU of
        :func:`repro.core.batch.banded_steady_state` -- the only solver
        that stays finite where the recursion overflows).  Results of
        ``"auto"`` are cached per threshold.
        """
        d = validate_threshold(d)
        if method == "auto":
            cached = self._steady_cache.get(d)
            if cached is None:
                cached = self._solve_default(d)
                cached.flags.writeable = False
                self._steady_cache[d] = cached
            return cached
        if method == "closed_form":
            return self._solve_closed_form(d)
        if method == "recursive":
            return solve_steady_state_recursive(self.chain(d))
        if method == "matrix":
            return solve_steady_state_matrix(self.chain(d))
        if method == "banded":
            return self._solve_banded(d)
        raise ParameterError(
            f"unknown method {method!r}; expected "
            "auto/closed_form/recursive/matrix/banded"
        )

    def _solve_default(self, d: int) -> np.ndarray:
        return self._solve_closed_form(d)

    def _solve_banded(self, d: int) -> np.ndarray:
        from .batch import banded_steady_state  # local: batch imports us

        return banded_steady_state(self, d)

    def _solve_recursive_or_banded(self, d: int) -> np.ndarray:
        """Default solver for recursion-based models.

        The backward recursion's unnormalized values can leave float64
        range -- near ``d ~ 760`` for fast walkers, far earlier when
        calls dominate moves; where :func:`dense_recursion_fits` cannot
        bound them the banded LU -- which anchors ``p_0 = 1`` and only
        ever *underflows* -- takes over, making such thresholds solvable
        through the same ``steady_state(d)`` call.
        """
        chain = self.chain(d)
        if dense_recursion_fits(chain.a, chain.b, chain.reset):
            return solve_steady_state_recursive(chain)
        return self._solve_banded(d)

    def _solve_closed_form(self, d: int) -> np.ndarray:
        raise ParameterError(f"{self.name} has no closed-form steady state")

    # -- update rate ------------------------------------------------------

    def update_rate(self, d: int, convention: str = "paper") -> float:
        """Rate ``a_{d,d+1}`` used in the update cost ``C_u`` (eqn (61)).

        See the module docstring for the per-model ``d = 0`` convention.
        """
        d = validate_threshold(d)
        if convention not in _CONVENTIONS:
            raise ParameterError(
                f"unknown convention {convention!r}; expected one of {_CONVENTIONS}"
            )
        if d == 0:
            if convention == "physical":
                return self.q
            return self._paper_boundary_rate()
        return self._interior_outward_rate(d)

    @abc.abstractmethod
    def _interior_outward_rate(self, d: int) -> float:
        """Outward rate from state ``d >= 1``."""

    @abc.abstractmethod
    def _paper_boundary_rate(self) -> float:
        """Rate the paper's tables use for ``C_u`` at ``d = 0``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(q={self.q}, c={self.c})"


class OneDimensionalModel(MobilityModel):
    """Section 3: random walk on the 1-D line of cells.

    Interior rates are ``a_i = b_i = q/2`` (each of the two neighbors
    equally likely); the rate out of state 0 is ``q``.  The steady state
    has the closed form of Section 3.2.
    """

    name = "1d"
    _topology = LineTopology()

    @property
    def topology(self) -> CellTopology:
        return self._topology

    def transition_rates(self, d: int) -> Tuple[np.ndarray, np.ndarray]:
        q = self.q
        a = np.full(d + 1, q / 2.0)
        a[0] = q
        b = np.full(d + 1, q / 2.0)
        b[0] = 0.0
        return a, b

    def _solve_closed_form(self, d: int) -> np.ndarray:
        return closed_form.solve_1d(self.q, self.c, d)

    def _interior_outward_rate(self, d: int) -> float:
        return self.q / 2.0

    def _paper_boundary_rate(self) -> float:
        # Table 1 rows U=1..10 show C_u(0) = U q / 2.
        return self.q / 2.0


class TwoDimensionalModel(MobilityModel):
    """Section 4.1: random walk on the hex grid, exact ring aggregation.

    Interior rates are state dependent (eqns (41)-(42)):

        a_i = q (1/3 + 1/(6 i)),     b_i = q (1/3 - 1/(6 i)),

    with ``a_0 = q``.  No simple closed form; the paper's recursive
    method is the default solver.
    """

    name = "2d-exact"
    _topology = HexTopology()

    @property
    def topology(self) -> CellTopology:
        return self._topology

    def transition_rates(self, d: int) -> Tuple[np.ndarray, np.ndarray]:
        q = self.q
        a = np.empty(d + 1)
        b = np.empty(d + 1)
        a[0] = q
        b[0] = 0.0
        if d >= 1:
            i = np.arange(1, d + 1, dtype=float)
            a[1:] = q * (1.0 / 3.0 + 1.0 / (6.0 * i))
            b[1:] = q * (1.0 / 3.0 - 1.0 / (6.0 * i))
        return a, b

    def _solve_default(self, d: int) -> np.ndarray:
        return self._solve_recursive_or_banded(d)

    def _interior_outward_rate(self, d: int) -> float:
        return self.q * (1.0 / 3.0 + 1.0 / (6.0 * d))

    def _paper_boundary_rate(self) -> float:
        # Table 2 rows U=1..8 show C_u(0) = U q (the physical rate; the
        # state-dependent formula is undefined at i = 0).
        return self.q


class TwoDimensionalApproximateModel(MobilityModel):
    """Section 4.2: hex-grid walk with the ``q/(6i)`` terms dropped.

    Interior rates are ``a_i = b_i = q/3`` (eqns (43)-(44)); state 0
    keeps rate ``q`` in the chain (its boundary equations (56)-(60)
    require it).  Has the closed form of Section 4.2 and is the engine
    of the *near-optimal* threshold ``d'``.
    """

    name = "2d-approx"
    _topology = HexTopology()

    @property
    def topology(self) -> CellTopology:
        return self._topology

    def transition_rates(self, d: int) -> Tuple[np.ndarray, np.ndarray]:
        q = self.q
        a = np.full(d + 1, q / 3.0)
        a[0] = q
        b = np.full(d + 1, q / 3.0)
        b[0] = 0.0
        return a, b

    def _solve_closed_form(self, d: int) -> np.ndarray:
        return closed_form.solve_2d_approx(self.q, self.c, d)

    def _interior_outward_rate(self, d: int) -> float:
        return self.q / 3.0

    def _paper_boundary_rate(self) -> float:
        # Required to reproduce the d' column of Table 2: the
        # approximate scheme applies the interior rate q/3 uniformly.
        return self.q / 3.0


class SquareGridModel(MobilityModel):
    """Extension: random walk on the square grid, exact ring aggregation.

    Not in the paper; included to show the framework generalizes to any
    geometry with a ring structure.  Derived exactly like Section 4.1:
    ring ``i`` of the Manhattan metric has 4 corner cells (3 outward /
    1 inward neighbors) and ``4 (i - 1)`` edge cells (2 / 2), giving

        a_i = q (1/2 + 1/(4 i)),     b_i = q (1/2 - 1/(4 i)),

    with ``a_0 = q`` and ``g(d) = 2 d (d + 1) + 1``.  Solved by the
    recursive method (state-dependent rates, like the hex model).
    """

    name = "square-exact"
    _topology = SquareTopology()

    @property
    def topology(self) -> CellTopology:
        return self._topology

    def transition_rates(self, d: int) -> Tuple[np.ndarray, np.ndarray]:
        q = self.q
        a = np.empty(d + 1)
        b = np.empty(d + 1)
        a[0] = q
        b[0] = 0.0
        if d >= 1:
            i = np.arange(1, d + 1, dtype=float)
            a[1:] = q * (0.5 + 1.0 / (4.0 * i))
            b[1:] = q * (0.5 - 1.0 / (4.0 * i))
        return a, b

    def _solve_default(self, d: int) -> np.ndarray:
        return self._solve_recursive_or_banded(d)

    def _interior_outward_rate(self, d: int) -> float:
        return self.q * (0.5 + 1.0 / (4.0 * d))

    def _paper_boundary_rate(self) -> float:
        # No paper convention exists for this extension; use the
        # physical rate (any move leaves a single-cell residing area).
        return self.q


class SquareGridApproximateModel(MobilityModel):
    """Extension: square grid with the ``q/(4i)`` terms dropped.

    The resulting chain -- ``a_0 = q``, interior rates ``q/2`` -- is
    *identical* to the 1-D chain of Section 3, so the Section 3.2
    closed form applies verbatim; only the geometry (``g(d)``, ring
    sizes) differs.  A pleasing corollary of the paper's framework.
    """

    name = "square-approx"
    _topology = SquareTopology()

    @property
    def topology(self) -> CellTopology:
        return self._topology

    def transition_rates(self, d: int) -> Tuple[np.ndarray, np.ndarray]:
        q = self.q
        a = np.full(d + 1, q / 2.0)
        a[0] = q
        b = np.full(d + 1, q / 2.0)
        b[0] = 0.0
        return a, b

    def _solve_closed_form(self, d: int) -> np.ndarray:
        return closed_form.solve_1d(self.q, self.c, d)

    def _interior_outward_rate(self, d: int) -> float:
        return self.q / 2.0

    def _paper_boundary_rate(self) -> float:
        # Mirror the 2-D approximate convention: interior rate
        # uniformly, so the near-optimal machinery behaves the same way.
        return self.q / 2.0


#: Every model class by its ``name``: the CLI's ``--model`` choices and
#: the model keys of sweeps, tournaments and conformance configs.
MODEL_CLASSES: Dict[str, type] = {
    model.name: model
    for model in (
        OneDimensionalModel,
        TwoDimensionalModel,
        TwoDimensionalApproximateModel,
        SquareGridModel,
        SquareGridApproximateModel,
    )
}
