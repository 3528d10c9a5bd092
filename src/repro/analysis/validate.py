"""Analytic-model-vs-simulation validation campaign.

Not an experiment from the paper -- the paper is purely analytical --
but the experiment a reviewer would ask for: does the Markov model
predict what actually happens to a terminal random-walking on the real
cell grid?

Two distinct questions are answered:

1. **1-D fidelity.**  On the line the ring-index process *is* the
   walk's distance process, so the model is exact and simulation must
   agree within confidence intervals.
2. **2-D aggregation error.**  On the hex grid the chain on the ring
   index aggregates corner and edge cells (the paper's
   ``p+(i) = 1/3 + 1/(6i)`` is a ring average), so small systematic
   deviations are expected; the campaign measures them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..conformance.agreement import comparison_ok
from ..core.models import MobilityModel, OneDimensionalModel, TwoDimensionalModel
from ..core.parameters import CostParams, MobilityParams

if TYPE_CHECKING:
    from ..simulation.runner import ModelComparison

__all__ = [
    "CAMPAIGN_REPLICATIONS",
    "CAMPAIGN_SEED",
    "CAMPAIGN_SLOTS",
    "DEFAULT_CASES",
    "ValidationCase",
    "ValidationOutcome",
    "run_validation_campaign",
]

#: The campaign EXPERIMENTS.md quotes and ``results/validation.txt``
#: holds: slots per replication, replications per case, master seed.
CAMPAIGN_SLOTS = 120_000
CAMPAIGN_REPLICATIONS = 4
CAMPAIGN_SEED = 21


@dataclass(frozen=True)
class ValidationCase:
    """One (model, parameters, operating point) to validate."""

    label: str
    dimensions: int
    q: float
    c: float
    update_cost: float
    poll_cost: float
    d: int
    m: float


@dataclass(frozen=True)
class ValidationOutcome:
    """A case together with its comparison result."""

    case: ValidationCase
    comparison: ModelComparison

    @property
    def ok(self) -> bool:
        """Dimension-aware agreement criterion.

        Delegates to :func:`repro.conformance.agreement.comparison_ok`,
        the same reusable check the conformance harness registers as
        ``simulation-within-ci``: within the replication CI, or within
        2% (1-D, where the ring chain is exact) / 5% (2-D, where ring
        aggregation biases fast walkers by up to ~4%) relative error.
        """
        return comparison_ok(self.comparison, self.case.dimensions)


#: A spread of operating points: both geometries, slow and fast
#: mobility, light and heavy traffic, delay-constrained and not.
DEFAULT_CASES: Tuple[ValidationCase, ...] = (
    ValidationCase("1d-baseline", 1, 0.05, 0.01, 50.0, 10.0, d=2, m=1),
    ValidationCase("1d-fast-walker", 1, 0.30, 0.01, 50.0, 10.0, d=4, m=2),
    ValidationCase("1d-heavy-traffic", 1, 0.05, 0.08, 20.0, 10.0, d=1, m=math.inf),
    ValidationCase("1d-zero-threshold", 1, 0.10, 0.02, 10.0, 10.0, d=0, m=1),
    ValidationCase("2d-baseline", 2, 0.05, 0.01, 50.0, 10.0, d=2, m=1),
    ValidationCase("2d-fast-walker", 2, 0.30, 0.01, 100.0, 10.0, d=4, m=3),
    ValidationCase("2d-heavy-traffic", 2, 0.05, 0.08, 20.0, 10.0, d=1, m=math.inf),
    ValidationCase("2d-wide-area", 2, 0.20, 0.005, 200.0, 5.0, d=5, m=2),
)


def run_validation_campaign(
    cases: Sequence[ValidationCase] = DEFAULT_CASES,
    slots: int = CAMPAIGN_SLOTS,
    replications: int = CAMPAIGN_REPLICATIONS,
    seed: int = CAMPAIGN_SEED,
    workers=None,
) -> List[ValidationOutcome]:
    """Run every case and return the outcomes in order.

    ``workers`` is forwarded to :func:`run_replicated` via
    :func:`validate_against_model`; results are bit-identical for any
    worker count.
    """
    from ..simulation.runner import validate_against_model

    outcomes: List[ValidationOutcome] = []
    for index, case in enumerate(cases):
        mobility = MobilityParams(move_probability=case.q, call_probability=case.c)
        model: MobilityModel
        if case.dimensions == 1:
            model = OneDimensionalModel(mobility)
        else:
            model = TwoDimensionalModel(mobility)
        comparison = validate_against_model(
            model,
            CostParams(update_cost=case.update_cost, poll_cost=case.poll_cost),
            d=case.d,
            m=case.m,
            slots=slots,
            replications=replications,
            seed=seed + index,
            workers=workers,
        )
        outcomes.append(ValidationOutcome(case=case, comparison=comparison))
    return outcomes
