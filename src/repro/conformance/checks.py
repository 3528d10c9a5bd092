"""Check registry and result types for the conformance subsystem.

A *check* is a named, registered piece of executable knowledge about
how the library's five analytic models and three simulation engines
must behave.  Two kinds exist:

* **oracles** pair two independent implementations of the same
  quantity (closed form vs recursion, scalar vs batched, per-cell
  engine vs vectorized engine, ...) and assert agreement at a declared
  tolerance;
* **invariants** encode paper-derived structural relations (probability
  normalization, eqn-(5) balance, cost monotonicities, the
  ``C_T(d, d+1) = C_T(d, infinity)`` saturation, ...) that must hold at
  *every* parameter point, not just the golden-pinned ones.

Every check maps a :class:`ConformanceConfig` -- one sampled
``(model, q, c, U, V, d, m)`` operating point -- to a *deviation*: a
non-negative float that is zero (or tiny) when the property holds and
grows with the size of the violation.  The registry turns deviations
into :class:`CheckResult` records carrying the tolerance margin, and on
failure a minimized repro snippet (parameters + check id) so a red
conformance run is immediately actionable.

Checks are registered declaratively::

    @REGISTRY.invariant(
        "steady-state-normalized",
        tolerance=1e-9,
        paper_ref="eqn (4)",
        description="steady-state probabilities sum to 1",
    )
    def _steady_normalized(config: ConformanceConfig) -> Deviation:
        ...

The module-level :data:`REGISTRY` is populated by importing the check
modules (done by :mod:`repro.conformance.runner`); tests build private
:class:`CheckRegistry` instances to exercise registration mechanics in
isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..core.models import MODEL_CLASSES
from ..core.parameters import (
    CostParams,
    MobilityParams,
    validate_delay,
    validate_threshold,
)
from ..exceptions import ParameterError

__all__ = [
    "CheckResult",
    "CheckSkipped",
    "ConformanceCheck",
    "ConformanceConfig",
    "CheckRegistry",
    "Deviation",
    "REGISTRY",
]


class CheckSkipped(Exception):
    """Raised by a check body to report it does not apply after all.

    Prefer the registration-time ``applies`` predicate; this exception
    covers conditions only discoverable mid-run (e.g. a model without a
    closed-form solver).
    """


@dataclass(frozen=True)
class Deviation:
    """How far a configuration is from satisfying a check.

    ``value`` is non-negative and compared against the check's declared
    tolerance; ``detail`` is a human-readable account of what was
    measured (worst pair, offending threshold, ...).
    """

    value: float
    detail: str = ""

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 or math.isnan(self.value)):
            raise ParameterError(
                f"deviation must be >= 0, got {self.value} ({self.detail!r})"
            )


@dataclass(frozen=True)
class ConformanceConfig:
    """One sampled operating point a check runs against.

    ``model_name`` keys :data:`repro.core.models.MODEL_CLASSES`.
    ``d_max`` bounds curve-shaped checks (monotonicity sweeps, batched
    surfaces); ``sim_slots``/``sim_replications`` size the
    simulation-backed checks, which skip themselves when
    ``sim_slots == 0``.

    ``model_factory``, ``plan_factory``, and ``walk_factory`` are
    test-only escape hatches: when set, they replace the registered
    model class, the paper's SDF partition, and the mobility checks'
    CTRW specifications respectively, letting the conformance
    test-suite feed deliberately-broken implementations through real
    checks to prove each one can fail.  None appears in reports or
    fingerprints.  ``walk_factory`` is called as
    ``walk_factory(kind, config) -> CTRWSpec`` with the kind strings
    documented in :mod:`repro.conformance.mobility`.
    """

    model_name: str
    q: float
    c: float
    update_cost: float
    poll_cost: float
    d: int
    m: float
    d_max: int = 12
    convention: str = "paper"
    sim_slots: int = 0
    sim_replications: int = 3
    seed: int = 0
    pool_workers: int = 0
    model_factory: Optional[Callable[[MobilityParams], object]] = field(
        default=None, repr=False, compare=False
    )
    plan_factory: Optional[Callable] = field(
        default=None, repr=False, compare=False
    )
    walk_factory: Optional[Callable] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        validate_threshold(self.d)
        validate_threshold(self.d_max)
        validate_delay(self.m)
        if self.d > self.d_max:
            raise ParameterError(
                f"config d={self.d} exceeds its own d_max={self.d_max}"
            )

    # -- construction ---------------------------------------------------

    def mobility(self) -> MobilityParams:
        return MobilityParams(move_probability=self.q, call_probability=self.c)

    def costs(self) -> CostParams:
        return CostParams(update_cost=self.update_cost, poll_cost=self.poll_cost)

    def build_model(self):
        """The mobility model this config describes."""
        if self.model_factory is not None:
            return self.model_factory(self.mobility())
        if self.model_name not in MODEL_CLASSES:
            raise ParameterError(
                f"unknown model {self.model_name!r}; "
                f"known: {sorted(MODEL_CLASSES)}"
            )
        return MODEL_CLASSES[self.model_name](self.mobility())

    def build_evaluator(self, plan_factory=None):
        from ..core.costs import CostEvaluator  # deferred: avoid cycle

        return CostEvaluator(
            self.build_model(),
            self.costs(),
            plan_factory=plan_factory or self.plan_factory,
            convention=self.convention,
        )

    # -- serialization --------------------------------------------------

    def as_params(self) -> Dict[str, object]:
        """JSON-safe parameter mapping (drives reports and repros)."""
        return {
            "model": self.model_name,
            "q": self.q,
            "c": self.c,
            "U": self.update_cost,
            "V": self.poll_cost,
            "d": self.d,
            "m": "inf" if self.m == math.inf else self.m,
            "d_max": self.d_max,
            "convention": self.convention,
            "sim_slots": self.sim_slots,
            "sim_replications": self.sim_replications,
            "seed": self.seed,
            "pool_workers": self.pool_workers,
        }

    @classmethod
    def from_params(cls, params: Dict[str, object]) -> "ConformanceConfig":
        """Inverse of :meth:`as_params` (reads report records back)."""
        required = ("model", "q", "c", "U", "V", "d", "m")
        missing = [key for key in required if key not in params]
        if missing:
            raise ParameterError(
                f"conformance params missing {missing}; expected the keys of "
                f"ConformanceConfig.as_params(): {required} "
                f"(plus optional d_max/convention/sim_slots/"
                f"sim_replications/seed/pool_workers)"
            )
        m = params["m"]
        m = math.inf if m in ("inf", math.inf) else int(m)
        return cls(
            model_name=str(params["model"]),
            q=float(params["q"]),
            c=float(params["c"]),
            update_cost=float(params["U"]),
            poll_cost=float(params["V"]),
            d=int(params["d"]),
            m=m,
            d_max=int(params.get("d_max", 12)),
            convention=str(params.get("convention", "paper")),
            sim_slots=int(params.get("sim_slots", 0)),
            sim_replications=int(params.get("sim_replications", 3)),
            seed=int(params.get("seed", 0)),
            pool_workers=int(params.get("pool_workers", 0)),
        )

    def repro_snippet(self, check_id: str) -> str:
        """A copy-pasteable one-check reproduction of this config."""
        pairs = ", ".join(
            f"{key}={value!r}" for key, value in self.as_params().items()
        )
        return (
            f"# reproduce conformance check {check_id!r}\n"
            f"from repro.conformance import run_single\n"
            f"result = run_single({check_id!r}, {pairs})\n"
            f"print(result.status, result.deviation, result.detail)\n"
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check at one configuration."""

    check_id: str
    kind: str
    status: str  # "pass" | "fail" | "skip"
    tolerance: float
    deviation: float
    detail: str
    params: Dict[str, object]
    paper_ref: str = ""
    repro: Optional[str] = None

    @property
    def margin(self) -> float:
        """Headroom below the tolerance (negative when failing)."""
        if math.isnan(self.deviation):
            return -math.inf
        return self.tolerance - self.deviation

    def to_dict(self) -> Dict[str, object]:
        # "check_kind", not "kind": the observability artifact writer
        # uses the top-level "kind" key as its record discriminator
        # (these records are stored with kind="check").
        return {
            "check_id": self.check_id,
            "check_kind": self.kind,
            "status": self.status,
            "tolerance": self.tolerance,
            "deviation": None if math.isnan(self.deviation) else self.deviation,
            "margin": None if math.isnan(self.deviation) else self.margin,
            "detail": self.detail,
            "params": self.params,
            "paper_ref": self.paper_ref,
            "repro": self.repro,
        }


@dataclass(frozen=True)
class ConformanceCheck:
    """One registered check: identity, tolerance, applicability, body."""

    check_id: str
    kind: str  # "oracle" | "invariant"
    description: str
    paper_ref: str
    tolerance: float
    body: Callable[[ConformanceConfig], Deviation]
    applies: Callable[[ConformanceConfig], bool]

    def run(self, config: ConformanceConfig) -> CheckResult:
        """Execute the body and fold the deviation into a result."""
        params = config.as_params()
        if not self.applies(config):
            return CheckResult(
                check_id=self.check_id,
                kind=self.kind,
                status="skip",
                tolerance=self.tolerance,
                deviation=0.0,
                detail="not applicable to this configuration",
                params=params,
                paper_ref=self.paper_ref,
            )
        try:
            deviation = self.body(config)
        except CheckSkipped as skip:
            return CheckResult(
                check_id=self.check_id,
                kind=self.kind,
                status="skip",
                tolerance=self.tolerance,
                deviation=0.0,
                detail=str(skip) or "skipped by check body",
                params=params,
                paper_ref=self.paper_ref,
            )
        failed = math.isnan(deviation.value) or deviation.value > self.tolerance
        return CheckResult(
            check_id=self.check_id,
            kind=self.kind,
            status="fail" if failed else "pass",
            tolerance=self.tolerance,
            deviation=deviation.value,
            detail=deviation.detail,
            params=params,
            paper_ref=self.paper_ref,
            repro=config.repro_snippet(self.check_id) if failed else None,
        )


def _always(config: ConformanceConfig) -> bool:
    return True


class CheckRegistry:
    """Ordered registry of conformance checks, keyed by id."""

    def __init__(self) -> None:
        self._checks: Dict[str, ConformanceCheck] = {}

    # -- registration ---------------------------------------------------

    def register(
        self,
        check_id: str,
        kind: str,
        tolerance: float,
        description: str = "",
        paper_ref: str = "",
        applies: Optional[Callable[[ConformanceConfig], bool]] = None,
    ) -> Callable:
        """Decorator registering ``body`` under ``check_id``."""
        if kind not in ("oracle", "invariant"):
            raise ParameterError(
                f"check kind must be 'oracle' or 'invariant', got {kind!r}"
            )
        if tolerance < 0:
            raise ParameterError(f"tolerance must be >= 0, got {tolerance}")
        if check_id in self._checks:
            raise ParameterError(f"check {check_id!r} registered twice")

        def decorate(body: Callable[[ConformanceConfig], Deviation]):
            self._checks[check_id] = ConformanceCheck(
                check_id=check_id,
                kind=kind,
                description=description or (body.__doc__ or "").strip(),
                paper_ref=paper_ref,
                tolerance=tolerance,
                body=body,
                applies=applies or _always,
            )
            return body

        return decorate

    def oracle(self, check_id: str, tolerance: float, **kwargs) -> Callable:
        return self.register(check_id, "oracle", tolerance, **kwargs)

    def invariant(self, check_id: str, tolerance: float, **kwargs) -> Callable:
        return self.register(check_id, "invariant", tolerance, **kwargs)

    # -- lookup ---------------------------------------------------------

    def __contains__(self, check_id: str) -> bool:
        return check_id in self._checks

    def __len__(self) -> int:
        return len(self._checks)

    def __repr__(self) -> str:
        # Stable (address-free): this repr appears in generated API
        # docs as the default of run_conformance/run_single.
        return (
            f"CheckRegistry({len(self.oracles())} oracles, "
            f"{len(self.invariants())} invariants)"
        )

    def get(self, check_id: str) -> ConformanceCheck:
        try:
            return self._checks[check_id]
        except KeyError:
            raise ParameterError(
                f"unknown conformance check {check_id!r}; "
                f"known: {sorted(self._checks)}"
            ) from None

    def all(self) -> List[ConformanceCheck]:
        return list(self._checks.values())

    def oracles(self) -> List[ConformanceCheck]:
        return [c for c in self._checks.values() if c.kind == "oracle"]

    def invariants(self) -> List[ConformanceCheck]:
        return [c for c in self._checks.values() if c.kind == "invariant"]

    def ids(self) -> List[str]:
        return list(self._checks)

    # -- execution ------------------------------------------------------

    def run_check(
        self, check_id: str, config: ConformanceConfig, minimize: bool = True
    ) -> CheckResult:
        """Run one check; on failure, attach a *minimized* repro.

        Minimization greedily shrinks the failing configuration --
        smaller ``d``/``d_max``, then ``m`` collapsed toward 1, then the
        simulation budget -- re-running the check at each candidate and
        keeping the smallest configuration that still fails, so the
        repro snippet names the simplest known-bad point rather than
        whatever the sampler happened to draw.
        """
        check = self.get(check_id)
        result = check.run(config)
        if result.status != "fail" or not minimize:
            return result
        minimal = self._minimize(check, config)
        if minimal is not config:
            shrunk = check.run(minimal)
            if shrunk.status == "fail":  # pragma: no branch
                return replace(
                    result,
                    repro=minimal.repro_snippet(check.check_id),
                    detail=result.detail
                    + f" [minimized from d={config.d}, d_max={config.d_max}]",
                )
        return result

    @staticmethod
    def _shrink_candidates(config: ConformanceConfig):
        """Candidate reductions, most aggressive first."""
        for d in sorted({0, 1, config.d // 2}):
            if d < config.d:
                yield replace(config, d=d, d_max=max(d, min(config.d_max, 4)))
        if config.d_max > config.d:
            yield replace(config, d_max=config.d)
        if config.m not in (1, math.inf) and config.m > 1:
            yield replace(config, m=1)
        if config.sim_slots > 10_000:
            yield replace(config, sim_slots=10_000)

    def _minimize(
        self, check: ConformanceCheck, config: ConformanceConfig
    ) -> ConformanceConfig:
        current = config
        for _ in range(8):  # bounded: each round strictly shrinks
            for candidate in self._shrink_candidates(current):
                try:
                    still_failing = check.run(candidate).status == "fail"
                except Exception:  # candidate out of a helper's domain
                    continue
                if still_failing:
                    current = candidate
                    break
            else:
                break
        return current


#: The default registry every shipped oracle and invariant registers
#: into (populated by :mod:`~repro.conformance.runner` importing the
#: check modules).
REGISTRY = CheckRegistry()
