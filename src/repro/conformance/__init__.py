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

The first access to any name exported here imports
:mod:`~repro.conformance.runner`, which imports every check module and
so populates :data:`REGISTRY` with every shipped check; until then
``import repro.conformance.sampling`` (the suite names the CLI parser
reads) loads no check and no simulator.
"""

from .. import _lazy

_lazy.lazy_exports(globals(), {
    "checks": (
        "REGISTRY", "CheckRegistry", "CheckResult", "CheckSkipped",
        "ConformanceCheck", "ConformanceConfig", "Deviation",
    ),
    "agreement": (
        "REL_LIMIT_1D", "REL_LIMIT_2D", "agreement_deviation",
        "comparison_deviation", "comparison_ok", "rel_limit_for_dimensions",
        "values_agree",
    ),
    "invariants": ("APPROX_TO_EXACT", "EXACT_CHAIN_MODELS"),
    "mobility": ("MOBILITY_CHECK_IDS", "default_walk_spec"),
    "oracles": ("bitwise_agreement", "replicated_agreement"),
    "runner": (
        "ConformanceReport", "read_report", "run_conformance", "run_single",
        "write_report",
    ),
    "sampling": ("ALL_MODELS", "SUITES", "sample_suite"),
}, load_first="runner")  # the runner imports, so registers, every check

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
