"""Unit tests for tracing spans, adoption, and profiling hooks."""

import pickle

from repro.observability import (
    NULL_TRACER,
    CProfileHook,
    ProfileHook,
    SpanRecord,
    TimerHook,
    Tracer,
    current,
    session,
    traced,
)


class TestSpans:
    def test_nesting_sets_parent_and_duration(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.metadata == {"kind": "test"}
        assert inner.duration is not None and inner.duration >= 0.0
        assert outer.duration >= inner.duration
        assert [r.name for r in tracer.records] == ["outer", "inner"]

    def test_duration_set_even_when_body_raises(self):
        tracer = Tracer()
        try:
            with tracer.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.records[0].duration is not None

    def test_exception_pops_the_span_and_fires_hooks_in_order(self):
        events = []

        class Recorder:
            def on_span_start(self, record):
                events.append(("start", record.name, record.duration))

            def on_span_finish(self, record):
                events.append(("finish", record.name, record.duration is not None))

        tracer = Tracer(hooks=[Recorder()])
        with tracer.span("outer") as outer:
            try:
                with tracer.span("failing"):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            with tracer.span("after") as after:
                pass
        assert after.parent_id == outer.span_id
        assert events == [
            ("start", "outer", None),
            ("start", "failing", None),
            ("finish", "failing", True),
            ("start", "after", None),
            ("finish", "after", True),
            ("finish", "outer", True),
        ]

    def test_session_restores_the_previous_context_on_an_exception(self):
        before = current()
        with session() as outer:
            try:
                with session() as inner:
                    assert current() is inner
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            assert current() is outer
        assert current() is before

    def test_span_ids_are_unique(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [r.span_id for r in tracer.records]
        assert len(set(ids)) == len(ids)

    def test_record_round_trips_through_dict_and_pickle(self):
        record = SpanRecord(
            name="s", span_id=3, parent_id=1, start=0.5, duration=0.25,
            metadata={"d": 3},
        )
        assert SpanRecord.from_dict(record.to_dict()) == record
        assert pickle.loads(pickle.dumps(record)) == record

    def test_summary_aggregates_by_name_sorted_by_total(self):
        tracer = Tracer()
        tracer.records = [
            SpanRecord("a", 1, None, 0.0, duration=1.0),
            SpanRecord("a", 2, None, 0.0, duration=3.0),
            SpanRecord("b", 3, None, 0.0, duration=5.0),
            SpanRecord("open", 4, None, 0.0, duration=None),  # skipped
        ]
        assert tracer.summary() == [("b", 1, 5.0, 5.0), ("a", 2, 4.0, 2.0)]


class TestAdopt:
    def test_adopted_roots_reparent_under_open_span(self):
        worker = Tracer()
        with worker.span("replication"):
            with worker.span("inner"):
                pass
        parent = Tracer()
        with parent.span("campaign") as campaign:
            parent.adopt(worker.records, replication=4)
        spans = {r.name: r for r in parent.records}
        assert spans["replication"].parent_id == campaign.span_id
        assert spans["replication"].metadata == {"replication": 4}
        # non-root children keep their (remapped) parent and metadata
        assert spans["inner"].parent_id == spans["replication"].span_id
        assert spans["inner"].metadata == {}

    def test_adopted_ids_do_not_collide(self):
        worker = Tracer()
        with worker.span("w"):
            pass
        parent = Tracer()
        with parent.span("p"):
            pass
        parent.adopt(worker.records)
        ids = [r.span_id for r in parent.records]
        assert len(set(ids)) == len(ids)


class TestTracedDecorator:
    def test_noop_without_session(self):
        @traced("my.span")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert current().tracer is NULL_TRACER

    def test_records_span_inside_session(self):
        @traced("my.span", flavor="test")
        def f(x):
            return x * 2

        with session() as obs:
            assert f(3) == 6
        assert [r.name for r in obs.tracer.records] == ["my.span"]
        assert obs.tracer.records[0].metadata == {"flavor": "test"}

    def test_default_name_is_qualname(self):
        @traced()
        def helper():
            return None

        with session() as obs:
            helper()
        assert helper.__qualname__ in obs.tracer.records[0].name


class TestNullTracer:
    def test_shared_noop_span(self):
        a = NULL_TRACER.span("x", d=1)
        b = NULL_TRACER.span("y")
        assert a is b
        with a:
            pass
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.summary() == []
        assert len(NULL_TRACER) == 0


class TestProfileHooks:
    def test_timer_hook_accumulates_per_name(self):
        hook = TimerHook()
        tracer = Tracer(hooks=[hook])
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        count, total = hook.totals["a"]
        assert count == 2
        assert total >= 0.0

    def test_cprofile_hook_only_toggles_on_outermost_span(self):
        hook = CProfileHook()
        tracer = Tracer(hooks=[hook])
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(100))
        assert hook._depth == 0
        assert "function calls" in hook.stats_text(top=5)

    def test_hooks_satisfy_the_protocol(self):
        assert isinstance(TimerHook(), ProfileHook)
        assert isinstance(CProfileHook(), ProfileHook)

    def test_session_with_hooks_forces_tracing_on(self):
        hook = TimerHook()
        with session(trace=False, profile_hooks=[hook]) as obs:
            with obs.tracer.span("work"):
                pass
        assert "work" in hook.totals
