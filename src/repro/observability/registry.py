"""Process-wide metrics registry: counters, gauges, and histograms.

The registry is the accounting half of the observability layer (the
tracing half lives in :mod:`repro.observability.tracing`).  Metrics are
*labeled series*: one logical name plus a frozen set of key/value
labels identifies one instrument, e.g.::

    registry.counter("updates_total", strategy="distance", d=3).inc()
    registry.histogram("paging_delay_cycles").observe(cycles)

Design constraints, in priority order:

1. **Zero cost when disabled.**  The default process-wide registry is
   a :class:`NullRegistry` whose instruments are shared no-op
   singletons; instrumented code either skips instrument creation
   entirely (the hot simulation engines check
   ``observability.current().enabled`` once at construction) or calls
   no-op methods that do nothing.
2. **Exact accounting.**  Counters accumulate plain Python floats in
   call order, so a metric fed once per replication in index order is
   bit-for-bit equal to the same sum taken over the snapshots -- the
   invariant the metrics property test asserts against
   :class:`~repro.simulation.metrics.CostMeter`.
3. **Picklable snapshots.**  :meth:`MetricsRegistry.collect` returns
   plain dicts so pooled workers can ship their registries back to the
   parent, which merges them deterministically (see
   :meth:`MetricsRegistry.merge`).
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

#: A labeled-series key: (name, ((label, value), ...)) with labels sorted.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str, labels: Dict[str, object]) -> SeriesKey:
    if not name or not isinstance(name, str):
        raise ParameterError(f"metric name must be a non-empty string, got {name!r}")
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum (event counts, accumulated cost)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(f"counters only go up; got inc({amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (last-write-wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """An integer-bucketed distribution (e.g. paging delay in cycles).

    Buckets are exact observed values, not ranges -- the quantities this
    library histograms (polling cycles, ring distances, retry counts)
    are small integers, so exact buckets lose nothing and merge
    losslessly across processes.
    """

    __slots__ = ("counts", "sum")
    kind = "histogram"

    def __init__(self) -> None:
        self.counts: _TallyCounter = _TallyCounter()
        self.sum = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        self.counts[int(value)] += count
        self.sum += value * count

    @property
    def count(self) -> int:
        return sum(self.counts.values())

    @property
    def mean(self) -> float:
        n = self.count
        return self.sum / n if n else 0.0


class NullCounter:
    """Shared no-op stand-in for every instrument type."""

    __slots__ = ()
    kind = "null"

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass


_NULL_INSTRUMENT = NullCounter()


class MetricsRegistry:
    """A collection of labeled instruments, created on first use.

    Instruments are held per ``(name, labels)`` series; asking twice for
    the same series returns the same object, so hot paths can resolve a
    handle once and increment it thereafter without any lookup cost.
    """

    enabled = True

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, object] = {}

    # -- instrument accessors ------------------------------------------

    def _get(self, factory, name: str, labels: Dict[str, object]):
        return self._instrument(factory, _series_key(name, labels))

    def _instrument(self, factory, key: SeriesKey):
        instrument = self._series.get(key)
        if instrument is None:
            instrument = factory()
            self._series[key] = instrument
        elif not isinstance(instrument, (NullCounter,)) and type(
            instrument
        ) is not factory:
            raise ParameterError(
                f"metric {key[0]!r} with labels {dict(key[1])} already registered "
                f"as a {instrument.kind}, not a {factory.kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- snapshot / merge ----------------------------------------------

    def collect(self) -> List[dict]:
        """All series as plain picklable dicts, sorted by (name, labels)."""
        records = []
        for (name, labels), instrument in sorted(self._series.items()):
            record = {"name": name, "labels": dict(labels), "type": instrument.kind}
            if isinstance(instrument, Histogram):
                record["counts"] = {
                    str(k): int(v) for k, v in sorted(instrument.counts.items())
                }
                record["sum"] = instrument.sum
                record["count"] = instrument.count
            else:
                record["value"] = instrument.value
            records.append(record)
        return records

    def merge(self, records: Iterable[dict]) -> None:
        """Fold collected records (e.g. from a pooled worker) into this
        registry.

        Counters and histograms add; gauges take the incoming value
        (last write wins).  Merging is sequential and therefore
        deterministic for a deterministic record order -- callers that
        need exact float reproducibility (serial vs pooled runs) must
        merge worker payloads in a canonical order, which
        :func:`repro.simulation.runner.run_replicated` does by
        replication index.
        """
        for record in records:
            name = record["name"]
            labels = record.get("labels", {})
            kind = record.get("type", "counter")
            if kind == "counter":
                self.counter(name, **labels).inc(record["value"])
            elif kind == "gauge":
                self.gauge(name, **labels).set(record["value"])
            elif kind == "histogram":
                histogram = self.histogram(name, **labels)
                for bucket, count in record.get("counts", {}).items():
                    histogram.counts[int(bucket)] += int(count)
                histogram.sum += record.get("sum", 0.0)
            else:
                raise ParameterError(f"unknown metric record type {kind!r}")

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, exactly as
        ``merge(other.collect())`` does, without building the records
        (an in-process job's registry)."""
        for key, instrument in sorted(other._series.items()):
            target = self._instrument(type(instrument), key)
            if isinstance(instrument, Histogram):
                for bucket, count in sorted(instrument.counts.items()):
                    target.counts[int(bucket)] += int(count)
                target.sum += instrument.sum
            elif isinstance(instrument, Gauge):
                target.set(instrument.value)
            else:
                target.inc(instrument.value)

    def value(self, name: str, **labels) -> Optional[float]:
        """The current value of one series, or None if never touched."""
        instrument = self._series.get(_series_key(name, labels))
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value

    def total(self, name: str) -> float:
        """Sum of one metric name across all label series."""
        total = 0.0
        for (series_name, _), instrument in self._series.items():
            if series_name != name:
                continue
            if isinstance(instrument, Histogram):
                total += instrument.count
            else:
                total += instrument.value
        return total

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._series)} series)"


class NullRegistry:
    """The zero-cost default: every accessor returns a shared no-op.

    ``enabled`` distinguishes the two uses: the process default is
    ``NullRegistry(enabled=False)`` (instrumented code skips handle
    creation entirely), while the overhead bench installs
    ``NullRegistry(enabled=True)`` to exercise every instrument call
    against no-op sinks.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled

    def counter(self, name: str, **labels) -> NullCounter:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> NullCounter:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> NullCounter:
        return _NULL_INSTRUMENT

    def collect(self) -> List[dict]:
        return []

    def merge(self, records: Iterable[dict]) -> None:
        pass

    def absorb(self, other: "MetricsRegistry") -> None:
        pass

    def value(self, name: str, **labels) -> None:
        return None

    def total(self, name: str) -> float:
        return 0.0

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"NullRegistry(enabled={self.enabled})"


#: The process-wide disabled default.
NULL_REGISTRY = NullRegistry(enabled=False)
