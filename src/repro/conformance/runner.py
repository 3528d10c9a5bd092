"""Suite execution and JSONL reporting for the conformance harness.

:func:`run_conformance` samples a suite of operating points, runs every
applicable registered check at each of them, and folds the outcomes
into a :class:`ConformanceReport`; :func:`write_report` stamps it with
run provenance and stores it in the observability JSONL artifact format
(``kind="check"`` records next to the usual metrics and spans), so the
same ``repro-lm metrics``-family tooling can read nightly conformance
artifacts.

:func:`run_single` is the entry point the minimized repro snippets
call: one check at one parameter point, by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import invariants, joint, mobility, oracles  # noqa: F401  (register checks)
from .checks import REGISTRY, CheckRegistry, CheckResult, ConformanceConfig
from .sampling import sample_suite
from ..exceptions import ParameterError
from ..observability import context as obs_context
from ..observability.export import build_provenance, read_artifact, write_artifact

__all__ = [
    "ConformanceReport",
    "run_conformance",
    "run_single",
    "write_report",
    "read_report",
]


@dataclass(frozen=True)
class ConformanceReport:
    """All check results of one conformance run."""

    suite: str
    seed: int
    models: Tuple[str, ...]
    results: Tuple[CheckResult, ...] = field(default_factory=tuple)

    # -- aggregates -----------------------------------------------------

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == "skip")

    @property
    def ok(self) -> bool:
        """True when no check failed anywhere in the suite."""
        return self.failed == 0

    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    def by_check(self) -> Dict[str, Dict[str, object]]:
        """Per-check aggregate: runs, failures, worst (smallest) margin."""
        stats: Dict[str, Dict[str, object]] = {}
        for result in self.results:
            entry = stats.setdefault(
                result.check_id,
                {
                    "kind": result.kind,
                    "runs": 0,
                    "passed": 0,
                    "failed": 0,
                    "skipped": 0,
                    "min_margin": None,
                },
            )
            entry["runs"] += 1
            entry[
                {"pass": "passed", "fail": "failed", "skip": "skipped"}[result.status]
            ] += 1
            if result.status != "skip":
                margin = result.margin
                if entry["min_margin"] is None or margin < entry["min_margin"]:
                    entry["min_margin"] = margin
        return stats

    def to_records(self) -> List[dict]:
        """One JSON-safe dict per result (the artifact ``check`` lines)."""
        return [result.to_dict() for result in self.results]

    def render(self) -> str:
        """Human summary: one row per check plus the failure repros."""
        from ..analysis.report import render_table  # deferred: avoid cycle

        rows = []
        for check_id, entry in sorted(self.by_check().items()):
            margin = entry["min_margin"]
            rows.append(
                [
                    check_id,
                    entry["kind"],
                    entry["runs"],
                    entry["passed"],
                    entry["failed"],
                    entry["skipped"],
                    "-" if margin is None else f"{margin:.3g}",
                ]
            )
        blocks = [
            render_table(
                ["check", "kind", "runs", "pass", "fail", "skip", "min margin"],
                rows,
                title=(
                    f"Conformance suite {self.suite!r} (seed {self.seed}): "
                    f"{self.passed} passed, {self.failed} failed, "
                    f"{self.skipped} skipped"
                ),
            )
        ]
        for failure in self.failures():
            blocks.append(
                f"FAIL {failure.check_id} {failure.params}\n"
                f"  deviation {failure.deviation:.6g} > tolerance "
                f"{failure.tolerance:.6g}: {failure.detail}\n"
                f"{failure.repro or ''}"
            )
        return "\n\n".join(blocks)


def run_conformance(
    suite: str = "quick",
    seed: int = 0,
    models: Optional[Sequence[str]] = None,
    registry: CheckRegistry = REGISTRY,
    configs: Optional[Sequence[ConformanceConfig]] = None,
) -> ConformanceReport:
    """Run every registered check over a sampled (or explicit) suite.

    Check outcomes are counted into the active observability context
    (``conformance_checks_total{status=...}``), so ``--metrics-out``
    runs see the harness's own instrumentation alongside the report.
    """
    if configs is None:
        configs = sample_suite(suite=suite, seed=seed, models=models)
    obs = obs_context.current()
    results: List[CheckResult] = []
    for config in configs:
        for check in registry.all():
            result = registry.run_check(check.check_id, config)
            results.append(result)
            obs.registry.counter(
                "conformance_checks_total",
                check=check.check_id,
                status=result.status,
            ).inc()
    model_names = tuple(models) if models else tuple(
        dict.fromkeys(config.model_name for config in configs)
    )
    return ConformanceReport(
        suite=suite, seed=seed, models=model_names, results=tuple(results)
    )


def run_single(
    check_id: str, registry: CheckRegistry = REGISTRY, **params
) -> CheckResult:
    """Run one check at one parameter point (the repro-snippet entry).

    ``params`` are the keys of :meth:`ConformanceConfig.as_params`
    (``model``, ``q``, ``c``, ``U``, ``V``, ``d``, ``m``, ...).
    """
    config = ConformanceConfig.from_params(params)
    return registry.run_check(check_id, config, minimize=False)


def write_report(
    report: ConformanceReport, path: Union[str, Path], command: str = "conformance"
) -> Path:
    """Persist a report as a provenance-stamped observability artifact."""
    provenance = build_provenance(
        command=command,
        params={
            "suite": report.suite,
            "models": ",".join(report.models),
            "checks": len(report.results),
            "failed": report.failed,
        },
        seed=report.seed,
    )
    return write_artifact(
        path, obs_context.current(), provenance, checks=report.to_records()
    )


def read_report(path: Union[str, Path]) -> dict:
    """Load a stored conformance artifact; raises if it holds no checks."""
    artifact = read_artifact(path)
    if not artifact["checks"]:
        raise ParameterError(
            f"artifact {path} contains no conformance check records"
        )
    return artifact
