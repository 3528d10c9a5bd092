"""The process-wide observability context: one registry + one tracer.

The library's instrumentation sites all read the *current* context via
:func:`current`; by default it is :data:`DISABLED` (a null registry and
a null tracer), which makes every instrumentation site either skip its
work entirely (hot engines check ``current().enabled`` once at
construction) or call shared no-op instruments.

A measurement is taken by installing a session::

    from repro.observability import session

    with session() as obs:
        run_replicated(...)
        print(obs.registry.total("updates_total"))

Sessions nest: ``run_replicated``'s worker path opens a fresh session
inside each (possibly remote) replication and ships the collected
records back to the parent, which merges them.  The context is a plain
module global -- the library is single-threaded per process by design
(parallelism is process-based), so no thread-local indirection is paid
on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Union

from .registry import NULL_REGISTRY, MetricsRegistry, NullRegistry
from .tracing import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "Observability",
    "current",
    "session",
    "noop_session",
    "DISABLED",
]


@dataclass
class Observability:
    """One observability context: a metrics registry plus a tracer."""

    registry: Union[MetricsRegistry, NullRegistry] = field(
        default_factory=lambda: NULL_REGISTRY
    )
    tracer: Union[Tracer, NullTracer] = field(default_factory=lambda: NULL_TRACER)

    @property
    def enabled(self) -> bool:
        """True when any instrumentation sink is live (or no-op-armed)."""
        return self.registry.enabled or self.tracer.enabled

    def collect_payload(self) -> dict:
        """Picklable snapshot of everything this context collected.

        The shape pooled workers ship back to their parent: metric
        records plus span record dicts.
        """
        return {
            "metrics": self.registry.collect(),
            "spans": [record.to_dict() for record in self.tracer.records],
        }

    def merge_payload(self, payload: dict, **root_metadata) -> None:
        """Fold a worker's collected payload into this context."""
        self.registry.merge(payload.get("metrics", ()))
        spans: List[SpanRecord] = [
            SpanRecord.from_dict(entry) for entry in payload.get("spans", ())
        ]
        if spans:
            self.tracer.adopt(spans, **root_metadata)

    def merge(self, other: "Observability", **root_metadata) -> None:
        """Fold another in-process context into this one, as
        :meth:`merge_payload` folds its collected payload."""
        self.registry.absorb(other.registry)
        if other.tracer.records:
            self.tracer.adopt(other.tracer.records, **root_metadata)


#: The default context: all sinks off, all instruments no-ops.
DISABLED = Observability()

_current: Observability = DISABLED


def current() -> Observability:
    """The active observability context (:data:`DISABLED` by default)."""
    return _current


class session:
    """Install a fresh collecting context for the duration of the block.

    ``metrics``/``trace`` select which sinks collect; profile hooks
    attach to the tracer (forcing it on -- hooks see span boundaries).
    The previous context is restored on exit, also when the block
    raises, so sessions nest safely.
    """

    __slots__ = ("obs", "previous")

    def __init__(
        self, metrics: bool = True, trace: bool = True, profile_hooks: Iterable = ()
    ) -> None:
        hooks = list(profile_hooks)
        self.obs = Observability(
            registry=MetricsRegistry() if metrics else NULL_REGISTRY,
            tracer=Tracer(hooks=hooks) if (trace or hooks) else NULL_TRACER,
        )

    def __enter__(self) -> Observability:
        global _current
        self.previous = _current
        _current = self.obs
        return self.obs

    def __exit__(self, *exc) -> bool:
        global _current
        _current = self.previous
        return False


class noop_session(session):
    """Install an *armed* null context: instrumentation sites run their
    full handle-resolution and increment calls against no-op sinks.

    This exists for the overhead bench: it measures the worst-case cost
    of the instrumentation itself (every call made, nothing recorded),
    which is the bound the <2%-overhead guard asserts.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.obs = Observability(
            registry=NullRegistry(enabled=True), tracer=NULL_TRACER
        )
