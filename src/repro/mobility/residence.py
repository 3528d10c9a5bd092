"""Cell residence-time distributions for general (CTRW) mobility.

The paper's random walk is memoryless: every slot is an independent
move-with-probability-``q`` trial, i.e. the time spent in a cell is
geometric with mean ``1/q``.  Real PCS traffic is not -- Zhao & Liew
(arXiv 0808.1062) model location management under a continuous-time
random walk with general residence times, and Koukoutsidis et al.
(arXiv 0904.0771) show the residence-time *variance* alone changes
paging performance.  This module provides the pluggable residence
distributions :class:`~repro.mobility.ctrw.CTRWWalk` draws from:

:class:`GeometricResidence`
    the discrete-time analogue of exponential residence; plugging it
    into a CTRW walker reproduces the paper's walk distributionally
    (the degeneracy the conformance oracle ``ctrw-exp-matches-uniform-
    walk`` guards).
:class:`DeterministicResidence`
    the zero-variance limit (clockwork movement).
:class:`HyperexponentialResidence`
    a mixture of geometrics -- squared coefficient of variation above
    1, the classic high-variance phase-type family.
:class:`TruncatedParetoResidence`
    heavy-tailed residence, truncated so every moment exists.

Distributions are *discrete* (whole slots, minimum one slot) and carry
exact moments: :meth:`ResidenceDistribution.mean` and ``variance`` are
computed from the actual probability mass function the sampler
realizes, never from a continuous approximation -- the property suite
asserts sample moments against them directly.

Sampling is uniform-driven: :meth:`ResidenceDistribution.from_uniforms`
maps ``U(0,1)`` variates to residence slots by inverse CDF, so the
vectorized engine can feed it counter-RNG streams (see
:mod:`repro.simulation.kernels`) and stay stateless and layout-free,
while the per-cell walker feeds it draws from its own generator.  Each
distribution names the arguments its inverse CDF reads in
:attr:`ResidenceDistribution.uniforms`; the vectorized engine hashes
only those streams, while :meth:`ResidenceDistribution.sample` and the
per-cell walker draw both uniforms every time.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "DeterministicResidence",
    "GeometricResidence",
    "HyperexponentialResidence",
    "ResidenceDistribution",
    "TruncatedParetoResidence",
    "residence_from_spec",
]

#: Largest representable residence (slots); caps inverse-CDF outputs so
#: a pathological float never produces an absurd countdown.
_MAX_RESIDENCE = 10**6


def _clamp_slots(raw: np.ndarray) -> np.ndarray:
    """Whole slots in ``[1, _MAX_RESIDENCE]`` as int64: ``np.clip``'s
    values for NaN, infinite and finite input, without its Python
    wrapper (a few microseconds per call, and the block step inverts
    once per round of its expiry chains)."""
    return np.minimum(np.maximum(raw, 1.0), float(_MAX_RESIDENCE)).astype(np.int64)


def _geometric_slots(u: np.ndarray, expiry: float) -> np.ndarray:
    """Inverse CDF of the geometric distribution on {1, 2, ...}.

    ``P(T = k) = p (1-p)^(k-1)`` with ``p = expiry``; ``u = 0`` maps to
    1 and ``u -> 1`` to the tail.
    """
    if expiry >= 1.0:
        return np.ones_like(np.asarray(u, dtype=np.float64), dtype=np.int64)
    raw = np.ceil(np.log1p(-np.asarray(u, dtype=np.float64)) / math.log1p(-expiry))
    return _clamp_slots(raw)


class ResidenceDistribution:
    """Base class: a distribution over whole residence slots (>= 1)."""

    #: Short kind tag used by :meth:`spec` / :func:`residence_from_spec`.
    kind = "abstract"

    #: The :meth:`from_uniforms` arguments the inverse CDF reads, in
    #: argument order.  The array engines hash only these streams; the
    #: others are passed arrays of the right shape that are never read.
    uniforms: Tuple[str, ...] = ("u_branch", "u_value")

    def from_uniforms(self, u_branch: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        """Map two U(0,1) arrays to int64 residence slots (>= 1).

        ``u_branch`` selects a mixture component; ``u_value`` drives the
        inverse CDF.  A distribution reads only the arguments named in
        :attr:`uniforms`, so an argument it does not read may hold any
        values of the right shape.  Both engines share this exact
        transform, which is what makes the per-cell and vectorized CTRW
        walkers distributionally identical.
        """
        raise NotImplementedError

    def mean(self) -> float:
        """Exact mean of the realized (discrete) distribution."""
        raise NotImplementedError

    def variance(self) -> float:
        """Exact variance of the realized (discrete) distribution."""
        raise NotImplementedError

    def cv2(self) -> float:
        """Squared coefficient of variation ``Var[T] / E[T]^2``."""
        m = self.mean()
        return self.variance() / (m * m)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one residence time using ``rng`` (two uniforms)."""
        u_branch = np.asarray(rng.random())
        u_value = np.asarray(rng.random())
        return int(self.from_uniforms(u_branch, u_value))

    def spec(self) -> Dict[str, object]:
        """JSON-ready description; inverse of :func:`residence_from_spec`."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{k}={v!r}" for k, v in self.spec().items() if k != "kind"
        )
        return f"{type(self).__name__}({params})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ResidenceDistribution) and self.spec() == other.spec()
        )

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, repr(v)) for k, v in self.spec().items())))


class GeometricResidence(ResidenceDistribution):
    """Memoryless residence: ``P(T = k) = p (1-p)^(k-1)``.

    The discrete-slot analogue of exponential residence.  A CTRW walker
    with ``GeometricResidence(q)`` moves with probability ``q`` in
    every slot independently -- exactly the paper's uniform walk.
    """

    kind = "geometric"
    uniforms = ("u_value",)

    def __init__(self, expiry_probability: float) -> None:
        if not 0.0 < expiry_probability <= 1.0:
            raise ParameterError(
                f"expiry_probability must be in (0, 1], got {expiry_probability}"
            )
        self.expiry_probability = float(expiry_probability)

    def from_uniforms(self, u_branch: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        return _geometric_slots(u_value, self.expiry_probability)

    def mean(self) -> float:
        return 1.0 / self.expiry_probability

    def variance(self) -> float:
        p = self.expiry_probability
        return (1.0 - p) / (p * p)

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "expiry_probability": self.expiry_probability}


class DeterministicResidence(ResidenceDistribution):
    """Fixed residence: exactly ``period`` slots in every cell."""

    kind = "deterministic"
    uniforms = ()

    def __init__(self, period: int) -> None:
        if not isinstance(period, (int, np.integer)) or isinstance(period, bool):
            raise ParameterError(f"period must be an int, got {period!r}")
        if not 1 <= period <= _MAX_RESIDENCE:
            raise ParameterError(
                f"period must be in [1, {_MAX_RESIDENCE}], got {period}"
            )
        self.period = int(period)

    def from_uniforms(self, u_branch: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u_value), self.period, dtype=np.int64)

    def mean(self) -> float:
        return float(self.period)

    def variance(self) -> float:
        return 0.0

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "period": self.period}


class HyperexponentialResidence(ResidenceDistribution):
    """A weighted mixture of geometric residences (``CV^2 >= 1``).

    Each move first picks component ``i`` with probability
    ``weights[i]``, then draws a geometric residence with expiry
    probability ``rates[i]`` -- the standard phase-type construction
    for high-variance holding times, in discrete slots.
    """

    kind = "hyperexponential"
    uniforms = ("u_branch", "u_value")

    def __init__(self, rates: Tuple[float, ...], weights: Tuple[float, ...]) -> None:
        rates = tuple(float(r) for r in rates)
        weights = tuple(float(w) for w in weights)
        if len(rates) < 1 or len(rates) != len(weights):
            raise ParameterError(
                f"rates and weights must be equal-length non-empty tuples, "
                f"got {rates!r} / {weights!r}"
            )
        for r in rates:
            if not 0.0 < r <= 1.0:
                raise ParameterError(f"every rate must be in (0, 1], got {r}")
        for w in weights:
            if w <= 0.0:
                raise ParameterError(f"every weight must be > 0, got {w}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"weights must sum to 1, got {total}")
        self.rates = rates
        self.weights = weights
        self._cum_weights = np.cumsum(np.asarray(weights, dtype=np.float64))
        # Guard the final bin against float round-off: u_branch < 1 always.
        self._cum_weights[-1] = 1.0
        # Each component's geometric log(1 - rate); -inf for rate 1,
        # whose inverse CDF is 1 for every uniform.
        self._log_keep = np.array(
            [math.log1p(-r) if r < 1.0 else -math.inf for r in rates]
        )

    @classmethod
    def fit(cls, mean: float, cv2: float) -> "HyperexponentialResidence":
        """Two-component fit with balanced means for a target mean/CV^2.

        The classic balanced-means H2 fit: component ``i`` contributes
        ``mean/2`` to the total mean, and the mixing probability is set
        from the target squared coefficient of variation ``cv2 > 1``.
        The *geometric* mixture hits ``mean`` exactly; the realized
        ``cv2`` (see :meth:`cv2`) differs from the continuous target by
        the discretization and is what tests should assert against.
        Requires ``mean >= 2`` so both expiry probabilities stay <= 1.
        """
        if cv2 <= 1.0:
            raise ParameterError(f"hyperexponential fit needs cv2 > 1, got {cv2}")
        if mean < 2.0:
            raise ParameterError(
                f"hyperexponential fit needs mean >= 2 slots, got {mean}"
            )
        p = 0.5 * (1.0 + math.sqrt((cv2 - 1.0) / (cv2 + 1.0)))
        rates = (2.0 * p / mean, 2.0 * (1.0 - p) / mean)
        return cls(rates=rates, weights=(p, 1.0 - p))

    def from_uniforms(self, u_branch: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        component = self._cum_weights.searchsorted(u_branch, side="right")
        log_keep = self._log_keep[np.minimum(component, len(self.rates) - 1)]
        # The geometric inverse CDF of _geometric_slots, per component.
        raw = np.ceil(np.log1p(-np.asarray(u_value, dtype=np.float64)) / log_keep)
        return _clamp_slots(raw)

    def mean(self) -> float:
        return sum(w / r for w, r in zip(self.weights, self.rates))

    def variance(self) -> float:
        # E[T^2] of a geometric with expiry p is (2 - p) / p^2.
        second = sum(w * (2.0 - r) / (r * r) for w, r in zip(self.weights, self.rates))
        m = self.mean()
        return second - m * m

    def spec(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "rates": list(self.rates),
            "weights": list(self.weights),
        }


class TruncatedParetoResidence(ResidenceDistribution):
    """Heavy-tailed residence: ceil of a truncated Pareto variate.

    A continuous Pareto with shape ``alpha`` on ``[minimum, maximum]``
    is sampled by inverse CDF and rounded up to whole slots.  The
    truncation keeps every moment finite (so sample-moment tests are
    meaningful) while preserving the power-law body that makes the
    movement process bursty.  Moments are computed exactly from the
    discretized pmf ``P(T = k) = F(k) - F(k-1)``.
    """

    kind = "pareto"
    uniforms = ("u_value",)

    def __init__(self, alpha: float, minimum: float, maximum: float) -> None:
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise ParameterError(f"alpha must be finite and > 0, got {alpha}")
        if not 1.0 <= minimum < maximum:
            raise ParameterError(
                f"need 1 <= minimum < maximum, got minimum={minimum}, "
                f"maximum={maximum}"
            )
        if maximum > _MAX_RESIDENCE:
            raise ParameterError(
                f"maximum must be <= {_MAX_RESIDENCE} slots, got {maximum}"
            )
        self.alpha = float(alpha)
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self._tail = (self.minimum / self.maximum) ** self.alpha
        self._moments: Optional[Tuple[float, float]] = None

    def _cdf(self, t: np.ndarray) -> np.ndarray:
        """Continuous truncated-Pareto CDF, clamped to [0, 1]."""
        t = np.clip(np.asarray(t, dtype=np.float64), self.minimum, self.maximum)
        return ((1.0 - (self.minimum / t) ** self.alpha) / (1.0 - self._tail))

    def from_uniforms(self, u_branch: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        u_value = np.asarray(u_value, dtype=np.float64)
        x = self.minimum / (1.0 - u_value * (1.0 - self._tail)) ** (1.0 / self.alpha)
        return _clamp_slots(np.ceil(np.minimum(x, self.maximum)))

    def _pmf_moments(self) -> Tuple[float, float]:
        if self._moments is None:
            ks = np.arange(math.floor(self.minimum), math.ceil(self.maximum) + 1)
            pmf = self._cdf(ks) - self._cdf(ks - 1)
            mean = float(pmf @ ks)
            second = float(pmf @ (ks.astype(np.float64) ** 2))
            self._moments = (mean, second - mean * mean)
        return self._moments

    def mean(self) -> float:
        return self._pmf_moments()[0]

    def variance(self) -> float:
        return self._pmf_moments()[1]

    def spec(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "minimum": self.minimum,
            "maximum": self.maximum,
        }


_KINDS = {
    cls.kind: cls
    for cls in (
        GeometricResidence,
        DeterministicResidence,
        HyperexponentialResidence,
        TruncatedParetoResidence,
    )
}


def residence_from_spec(payload: Dict[str, object]) -> ResidenceDistribution:
    """Rebuild a distribution from its :meth:`~ResidenceDistribution.spec`."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParameterError(f"residence spec must be a dict with a 'kind': {payload!r}")
    kind = payload["kind"]
    cls = _KINDS.get(kind)
    if cls is None:
        raise ParameterError(
            f"unknown residence kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    params = {k: v for k, v in payload.items() if k != "kind"}
    if cls is HyperexponentialResidence:
        return cls(
            rates=tuple(params.get("rates", ())),
            weights=tuple(params.get("weights", ())),
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"bad residence spec {payload!r}: {exc}") from exc
