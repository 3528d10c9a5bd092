"""Lightweight tracing spans with monotonic timings.

A span is one timed region of work -- a replication, a batched solve, a
grid sweep -- with a name, optional metadata, and a parent (spans nest
through a context-manager stack).  Records are plain picklable
dataclasses so pooled workers can ship their spans back to the parent
process, where :meth:`Tracer.adopt` re-roots them under the caller's
active span (the mechanism ``run_replicated(workers=N)`` uses to show
one coherent trace for a fan-out campaign).

Two entry points::

    with tracer.span("solve", d_max=100):        # context manager
        ...

    @traced("analysis.grid_sweep")               # decorator
    def grid_sweep(...): ...

The decorator resolves the *current* tracer at call time, so decorated
library functions are no-ops until a session is installed (see
:mod:`repro.observability.context`).

Profiling hooks (:class:`~repro.observability.profiling.ProfileHook`)
attach to a tracer and get span start/finish callbacks, which is how
benchmarks bolt cProfile or timer sinks onto instrumented code without
touching it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanRecord", "Tracer", "NullTracer", "NULL_TRACER", "traced"]


@dataclass
class SpanRecord:
    """One finished (or in-flight) span; picklable across processes."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    duration: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=payload["name"],
            span_id=int(payload["span_id"]),
            parent_id=(
                None if payload.get("parent_id") is None
                else int(payload["parent_id"])
            ),
            start=float(payload["start"]),
            duration=(
                None if payload.get("duration") is None
                else float(payload["duration"])
            ),
            metadata=dict(payload.get("metadata", {})),
        )


class Tracer:
    """Collects nested spans with ``time.perf_counter`` timings."""

    enabled = True

    def __init__(self, hooks: Iterable = ()) -> None:
        self.records: List[SpanRecord] = []
        self._stack: List[int] = []
        self._next_id = 1
        self.hooks = list(hooks)

    def span(self, name: str, **metadata) -> "_Span":
        """Open a nested span; yields its mutable :class:`SpanRecord`."""
        return _Span(self, name, metadata)

    def adopt(self, records: Iterable[SpanRecord], **extra_metadata) -> None:
        """Graft foreign spans (e.g. a pooled worker's) into this trace.

        Span ids are re-assigned to stay unique; the foreign roots are
        re-parented under the currently open span so a fan-out campaign
        reads as one tree.  ``extra_metadata`` is stamped onto the
        adopted roots (typically the replication index).
        """
        records = list(records)
        id_map: Dict[int, int] = {}
        for record in records:
            id_map[record.span_id] = self._next_id
            self._next_id += 1
        current_parent = self._stack[-1] if self._stack else None
        for record in records:
            is_root = record.parent_id not in id_map
            self.records.append(
                SpanRecord(
                    name=record.name,
                    span_id=id_map[record.span_id],
                    parent_id=(
                        current_parent if is_root else id_map[record.parent_id]
                    ),
                    start=record.start,
                    duration=record.duration,
                    metadata=(
                        {**record.metadata, **extra_metadata}
                        if is_root
                        else dict(record.metadata)
                    ),
                )
            )

    def add_hook(self, hook) -> None:
        self.hooks.append(hook)

    def summary(self) -> List[Tuple[str, int, float, float]]:
        """Aggregated ``(name, count, total_s, mean_s)`` rows by span name."""
        totals: Dict[str, Tuple[int, float]] = {}
        for record in self.records:
            if record.duration is None:
                continue
            count, total = totals.get(record.name, (0, 0.0))
            totals[record.name] = (count + 1, total + record.duration)
        return [
            (name, count, total, total / count)
            for name, (count, total) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]
            )
        ]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"Tracer({len(self.records)} spans)"


class _Span:
    """The context manager of one :meth:`Tracer.span`.

    Entering records the span and pushes it; leaving -- on an exception
    too -- pops it, stamps its duration and runs the finish hooks.
    """

    __slots__ = ("tracer", "name", "metadata", "record")

    def __init__(self, tracer: Tracer, name: str, metadata: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.metadata = metadata

    def __enter__(self) -> SpanRecord:
        tracer = self.tracer
        record = SpanRecord(
            name=self.name,
            span_id=tracer._next_id,
            parent_id=tracer._stack[-1] if tracer._stack else None,
            start=time.perf_counter(),
            metadata=self.metadata,
        )
        tracer._next_id += 1
        tracer.records.append(record)
        tracer._stack.append(record.span_id)
        for hook in tracer.hooks:
            hook.on_span_start(record)
        self.record = record
        return record

    def __exit__(self, *exc) -> bool:
        tracer, record = self.tracer, self.record
        tracer._stack.pop()
        record.duration = time.perf_counter() - record.start
        for hook in tracer.hooks:
            hook.on_span_finish(record)
        return False


class _NullSpan:
    """Reusable no-op context manager with a writable metadata dict."""

    __slots__ = ("metadata",)

    def __init__(self) -> None:
        self.metadata: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default tracer: spans are shared no-ops."""

    enabled = False

    records: List[SpanRecord] = []
    hooks: List = []

    def span(self, name: str, **metadata) -> _NullSpan:
        return _NULL_SPAN

    def adopt(self, records: Iterable[SpanRecord], **extra_metadata) -> None:
        pass

    def add_hook(self, hook) -> None:
        pass

    def summary(self) -> List[Tuple[str, int, float, float]]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide disabled default.
NULL_TRACER = NullTracer()


def traced(name: Optional[str] = None, **metadata):
    """Decorator: run the wrapped function inside a span.

    The span is opened on the tracer active *at call time* -- with no
    session installed this costs one global read and a no-op context
    manager, nothing else.
    """

    def decorate(func):
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            from .context import current  # deferred: avoid import cycle

            tracer = current().tracer
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(span_name, **metadata):
                return func(*args, **kwargs)

        return wrapper

    return decorate
