"""Parameter-grid sampling for conformance suites.

A suite is a list of :class:`ConformanceConfig` operating points.  Both
suites cover **all five models** (1-D exact, 2-D exact/approx on the
hex grid, exact/approx on the square grid); they differ in breadth and
in how much simulation they buy:

* ``quick`` -- per model: the paper's baseline anchor plus two seeded
  random draws (one per boundary convention).  Simulation-backed checks
  run on one small-budget config per *exact* geometry (line, hex,
  square), keeping the whole suite in CI-PR territory.
* ``full`` -- per model: the anchor plus six random draws, simulation
  on every exact geometry with a larger slot budget, and a
  process-pool configuration so the ``serial-vs-pooled`` bit-identity
  oracle actually runs.

Sampling is deterministic in ``seed`` (``random.Random``; no global
state), so a nightly run seeded from the date is reproducible by
anyone passing the same ``--seed``.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from .checks import ConformanceConfig
from ..exceptions import ParameterError

__all__ = ["ALL_MODELS", "SUITES", "sample_suite"]

#: Every registered analytic model, in report order.
ALL_MODELS = ("1d", "2d-exact", "2d-approx", "square-exact", "square-approx")

#: Models whose ring chain is the exact law of the simulated distance
#: process -- the only ones a simulation CI check can hold for.
EXACT_CHAIN_MODELS = ("1d", "2d-exact", "square-exact")

#: Suite names accepted by :func:`sample_suite` and the CLI.
SUITES = ("quick", "full")

#: The paper's Section-5 baseline operating point, used as the anchor
#: configuration for every model.
_ANCHOR = dict(q=0.2, c=0.02, update_cost=50.0, poll_cost=10.0, d=3, m=2)

_DELAY_CHOICES = (1, 2, 3, 5, math.inf)


def _random_config(
    rng: random.Random, model_name: str, convention: str, seed: int
) -> ConformanceConfig:
    d = rng.randint(0, 6)
    return ConformanceConfig(
        model_name=model_name,
        q=round(rng.uniform(0.05, 0.4), 4),
        c=round(rng.uniform(0.002, 0.1), 4),
        update_cost=round(rng.uniform(5.0, 200.0), 2),
        poll_cost=round(rng.uniform(1.0, 20.0), 2),
        d=d,
        m=rng.choice(_DELAY_CHOICES),
        d_max=10,
        convention=convention,
        seed=seed,
    )


def _sim_config(
    model_name: str, seed: int, slots: int, replications: int, pool_workers: int = 0
) -> ConformanceConfig:
    return ConformanceConfig(
        model_name=model_name,
        d=2,
        m=2,
        d_max=6,
        sim_slots=slots,
        sim_replications=replications,
        seed=seed,
        pool_workers=pool_workers,
        **{k: _ANCHOR[k] for k in ("q", "c", "update_cost", "poll_cost")},
    )


def sample_suite(
    suite: str = "quick",
    seed: int = 0,
    models: Optional[Sequence[str]] = None,
) -> List[ConformanceConfig]:
    """Materialize the configurations of a named suite.

    ``models`` restricts the sweep (default: all five); restricting to
    approximate-only models silently yields no simulation configs, as
    the simulators realise the exact chains.
    """
    if suite not in SUITES:
        raise ParameterError(f"unknown suite {suite!r}; expected one of {SUITES}")
    selected = tuple(models) if models else ALL_MODELS
    unknown = [name for name in selected if name not in ALL_MODELS]
    if unknown:
        raise ParameterError(
            f"unknown model(s) {unknown}; expected a subset of {ALL_MODELS}"
        )
    rng = random.Random(seed)
    draws = 2 if suite == "quick" else 6
    configs: List[ConformanceConfig] = []
    for model_name in selected:
        configs.append(
            ConformanceConfig(model_name=model_name, d_max=10, seed=seed, **_ANCHOR)
        )
        for index in range(draws):
            convention = "paper" if index % 2 == 0 else "physical"
            configs.append(_random_config(rng, model_name, convention, seed))
    sim_models = [name for name in selected if name in EXACT_CHAIN_MODELS]
    if suite == "quick":
        for name in sim_models[:3]:
            configs.append(_sim_config(name, seed, slots=40_000, replications=4))
    else:
        for name in sim_models:
            configs.append(_sim_config(name, seed, slots=80_000, replications=5))
        if sim_models:
            configs.append(
                _sim_config(
                    sim_models[0],
                    seed,
                    slots=20_000,
                    replications=3,
                    pool_workers=2,
                )
            )
    return configs
