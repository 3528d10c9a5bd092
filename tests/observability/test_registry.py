"""Unit tests for the labeled-series metrics registry."""

import pickle

import pytest

from repro.exceptions import ParameterError
from repro.observability import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ParameterError):
            Counter().inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge()
        g.set(7)
        g.inc(-2)
        assert g.value == 5.0

    def test_histogram_exact_integer_buckets(self):
        h = Histogram()
        h.observe(1)
        h.observe(1)
        h.observe(3, count=4)
        assert h.counts == {1: 2, 3: 4}
        assert h.count == 6
        assert h.sum == 1 + 1 + 3 * 4
        assert h.mean == pytest.approx(14 / 6)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0


class TestSeriesIdentity:
    def test_same_name_and_labels_share_the_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("updates_total", strategy="distance", d=3)
        b = registry.counter("updates_total", d=3, strategy="distance")
        assert a is b
        a.inc()
        assert registry.value("updates_total", strategy="distance", d=3) == 1.0

    def test_label_values_are_stringified(self):
        registry = MetricsRegistry()
        assert registry.counter("x", d=3) is registry.counter("x", d="3")

    def test_different_labels_are_different_series(self):
        registry = MetricsRegistry()
        registry.counter("x", d=1).inc()
        registry.counter("x", d=2).inc(2)
        assert registry.value("x", d=1) == 1.0
        assert registry.value("x", d=2) == 2.0
        assert registry.total("x") == 3.0
        assert len(registry) == 2

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ParameterError, match="already registered"):
            registry.histogram("x")

    def test_bad_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError):
            registry.counter("")
        with pytest.raises(ParameterError):
            registry.counter(None)

    def test_untouched_series_has_no_value(self):
        assert MetricsRegistry().value("never", d=1) is None


class TestCollectAndMerge:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("updates_total", strategy="distance", d=3).inc(5)
        registry.gauge("queue_depth").set(2)
        registry.histogram("paging_delay_cycles", d=3).observe(1, count=3)
        registry.histogram("paging_delay_cycles", d=3).observe(2)
        return registry

    def test_collect_is_sorted_and_picklable(self):
        records = self.build().collect()
        assert [r["name"] for r in records] == sorted(r["name"] for r in records)
        assert pickle.loads(pickle.dumps(records)) == records
        histogram = next(r for r in records if r["type"] == "histogram")
        assert histogram["counts"] == {"1": 3, "2": 1}
        assert histogram["count"] == 4
        assert histogram["sum"] == 5.0

    def test_merge_adds_counters_and_histograms(self):
        source = self.build()
        target = self.build()
        target.merge(source.collect())
        assert target.value("updates_total", strategy="distance", d=3) == 10.0
        assert target.value("paging_delay_cycles", d=3) == 8.0  # count doubles
        # gauges take the incoming value rather than adding
        assert target.value("queue_depth") == 2.0

    def test_merge_into_empty_reproduces_collect(self):
        source = self.build()
        target = MetricsRegistry()
        target.merge(source.collect())
        assert target.collect() == source.collect()

    def test_absorb_equals_merging_the_collected_records(self):
        source = self.build()
        merged, absorbed = self.build(), self.build()
        merged.merge(source.collect())
        absorbed.absorb(source)
        assert absorbed.collect() == merged.collect()
        NullRegistry(enabled=True).absorb(source)  # a no-op sink

    def test_merge_rejects_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown metric record type"):
            MetricsRegistry().merge([{"name": "x", "type": "mystery", "value": 1}])

    def test_total_counts_histogram_observations(self):
        registry = self.build()
        assert registry.total("paging_delay_cycles") == 4.0


class TestNullRegistry:
    def test_disabled_by_default(self):
        assert NULL_REGISTRY.enabled is False
        assert NullRegistry(enabled=True).enabled is True

    def test_all_accessors_share_one_noop(self):
        registry = NullRegistry()
        c = registry.counter("x", d=1)
        assert registry.gauge("y") is c
        assert registry.histogram("z") is c
        # every instrument method is callable and does nothing
        c.inc()
        c.set(3)
        c.observe(1)
        assert registry.collect() == []
        assert registry.value("x", d=1) is None
        assert registry.total("x") == 0.0
        assert len(registry) == 0
