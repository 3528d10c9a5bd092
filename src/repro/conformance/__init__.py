"""Differential conformance harness: oracles + metamorphic invariants.

The library computes the paper's quantities through many independent
routes -- closed forms, recursions, matrix solves, a batched prefix-sum
solver, and three simulation engines.  This package makes their mutual
agreement, and the paper's structural laws, continuously checkable:

* :mod:`repro.conformance.checks` -- registry core: configs,
  deviations, results, failure minimization;
* :mod:`repro.conformance.oracles` -- cross-backend agreement checks;
* :mod:`repro.conformance.invariants` -- paper-derived metamorphic
  relations (eqn references on each registration);
* :mod:`repro.conformance.joint` -- cross-scheme invariants pinning
  the jointly optimal policy against the distance-based scheme;
* :mod:`repro.conformance.mobility` -- simulation-as-oracle checks
  for the CTRW mobility extension (degeneracy to the uniform walk,
  variance ordering, empirical paging-order optimality);
* :mod:`repro.conformance.agreement` -- the reusable
  simulation-vs-analysis agreement criterion;
* :mod:`repro.conformance.sampling` -- the ``quick``/``full`` suite
  grids;
* :mod:`repro.conformance.runner` -- suite execution and the JSONL
  report (also ``repro-lm conformance``).

Importing this package populates :data:`REGISTRY` with every shipped
check.
"""

from .checks import (
    REGISTRY,
    CheckRegistry,
    CheckResult,
    CheckSkipped,
    ConformanceCheck,
    ConformanceConfig,
    Deviation,
)
from . import invariants as _invariants  # noqa: F401  (registers checks)
from . import joint as _joint  # noqa: F401  (registers checks)
from . import mobility as _mobility  # noqa: F401  (registers checks)
from . import oracles as _oracles  # noqa: F401  (registers checks)
from .agreement import (
    REL_LIMIT_1D,
    REL_LIMIT_2D,
    agreement_deviation,
    comparison_deviation,
    comparison_ok,
    rel_limit_for_dimensions,
    values_agree,
)
from .invariants import APPROX_TO_EXACT, EXACT_CHAIN_MODELS
from .mobility import MOBILITY_CHECK_IDS, default_walk_spec
from .oracles import bitwise_agreement, replicated_agreement
from .runner import (
    ConformanceReport,
    read_report,
    run_conformance,
    run_single,
    write_report,
)
from .sampling import ALL_MODELS, SUITES, sample_suite

__all__ = [
    "ALL_MODELS",
    "APPROX_TO_EXACT",
    "CheckRegistry",
    "CheckResult",
    "CheckSkipped",
    "ConformanceCheck",
    "ConformanceConfig",
    "ConformanceReport",
    "Deviation",
    "EXACT_CHAIN_MODELS",
    "MOBILITY_CHECK_IDS",
    "REGISTRY",
    "REL_LIMIT_1D",
    "REL_LIMIT_2D",
    "SUITES",
    "agreement_deviation",
    "bitwise_agreement",
    "comparison_deviation",
    "comparison_ok",
    "default_walk_spec",
    "read_report",
    "rel_limit_for_dimensions",
    "replicated_agreement",
    "run_conformance",
    "run_single",
    "sample_suite",
    "values_agree",
    "write_report",
]
