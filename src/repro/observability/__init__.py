"""Unified observability: metrics registry, tracing spans, profiling hooks.

The cross-cutting measurement layer for the whole library.  One
process-wide context (:func:`current`) holds a
:class:`MetricsRegistry` and a :class:`Tracer`; instrumentation sites
in the simulation engines, the fault-injection layer, the analytic
solvers, and the sweep cache all report into it.  By default the
context is disabled and every site is a no-op (the overhead guard in
``benchmarks/bench_throughput.py`` holds it under 2%); installing a
:func:`session` turns collection on for a block::

    from repro.observability import session
    from repro.observability.export import build_provenance, write_artifact

    with session() as obs:
        result = run_replicated(...)
        write_artifact("m.json", obs, build_provenance("my-run", params, seed=0))

Collected data exports as JSON lines, Prometheus text, or a human
summary (:mod:`repro.observability.export`); benchmarks can attach
:class:`ProfileHook` sinks (cProfile, wall-clock timers) without
touching instrumented code.  The CLI front door is
``repro-lm simulate/sweep/speed --metrics-out PATH --trace`` plus
``repro-lm metrics summarize PATH``.

Instrumentation never draws randomness and never feeds back into the
computation, so enabling it is guaranteed not to change any simulated
or analytic number -- the bit-identity tests in
``tests/observability/`` pin this down.
"""

from .. import _lazy
from .context import DISABLED, Observability, current, noop_session, session
from .registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .tracing import NULL_TRACER, NullTracer, SpanRecord, Tracer, traced

# The exporters and profiling hooks, which instrumented code never
# needs, load on first access.
_lazy.lazy_exports(globals(), {
    "export": (
        "ARTIFACT_SCHEMA_VERSION", "build_provenance", "git_revision",
        "params_fingerprint", "prometheus_text", "read_artifact",
        "summarize_artifact", "write_artifact",
    ),
    "profiling": ("CProfileHook", "ProfileHook", "TimerHook"),
})

__all__ = [
    "Observability",
    "current",
    "session",
    "noop_session",
    "DISABLED",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "traced",
    "ProfileHook",
    "TimerHook",
    "CProfileHook",
    "ARTIFACT_SCHEMA_VERSION",
    "build_provenance",
    "params_fingerprint",
    "git_revision",
    "write_artifact",
    "read_artifact",
    "prometheus_text",
    "summarize_artifact",
]
