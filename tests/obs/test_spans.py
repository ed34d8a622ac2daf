"""Tests for the causal span tracer (repro.obs.spans)."""

import json

import pytest

from repro.obs import (
    PHASES,
    SpanContext,
    SpanTracer,
    phase_of,
    redact_attrs,
)
from repro.obs.spans import HOP_KEYS, INITIATOR_KEYS, RESPONDER_KEYS


class TestIds:
    def test_span_ids_monotone_across_traces(self):
        tr = SpanTracer()
        a = tr.start_trace("a")
        b = tr.start_trace("b")
        c = tr.start_span("c", parent=b)
        assert [a.span_id, b.span_id, c.span_id] == [0, 1, 2]
        assert a.trace_id != b.trace_id
        assert c.trace_id == b.trace_id and c.parent_id == b.span_id

    def test_ids_stay_monotone_after_clear(self):
        tr = SpanTracer()
        tr.finish(tr.start_trace("a"))
        tr.clear()
        assert tr.completed == 0 and len(tr) == 0
        s = tr.start_trace("b")
        assert s.span_id == 1 and s.trace_id == 1

    def test_empty_tracer_is_truthy(self):
        """Regression: ``__len__`` made an empty tracer falsy, so every
        ``if tracer:`` guard skipped the first spans of a run."""
        tr = SpanTracer()
        assert len(tr) == 0
        assert bool(tr)


class TestContextPropagation:
    def test_cm_nests_on_stack(self):
        tr = SpanTracer()
        with tr.span("outer") as outer:
            assert tr.current() is outer
            with tr.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert tr.current() is None
        assert len(tr) == 2

    def test_start_span_attaches_to_stack_top(self):
        tr = SpanTracer()
        with tr.span("outer") as outer:
            child = tr.start_span("child")
            assert child.parent_id == outer.span_id
            tr.finish(child)

    def test_explicit_parent_beats_stack(self):
        tr = SpanTracer()
        root = tr.start_trace("root")
        with tr.span("other"):
            child = tr.start_span("child", parent=root)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_parent_accepts_context_tuple(self):
        tr = SpanTracer()
        child = tr.start_span("c", parent=SpanContext(7, 3))
        assert child.trace_id == 7 and child.parent_id == 3

    def test_start_trace_ignores_stack(self):
        tr = SpanTracer()
        with tr.span("outer") as outer:
            root = tr.start_trace("fresh")
            assert root.parent_id is None
            assert root.trace_id != outer.trace_id


class TestTiming:
    def test_wall_duration_from_clock(self):
        ticks = iter([1.0, 3.5])
        tr = SpanTracer(clock=lambda: next(ticks))
        s = tr.start_trace("x")
        tr.finish(s)
        assert s.wall_duration == pytest.approx(2.5)
        assert s.duration == pytest.approx(2.5)

    def test_sim_duration_preferred(self):
        tr = SpanTracer()
        s = tr.start_trace("x").set_sim(10.0, 12.0)
        tr.finish(s)
        assert s.sim_duration == pytest.approx(2.0)
        assert s.duration == pytest.approx(2.0)

    def test_add_span_records_elapsed(self):
        tr = SpanTracer()
        root = tr.start_trace("r")
        leg = tr.add_span("dht.route", parent=root, sim_start=0.0, sim_end=1.5)
        assert leg in list(tr)
        assert leg.duration == pytest.approx(1.5)

    def test_unfinished_span_has_no_wall_duration(self):
        tr = SpanTracer()
        s = tr.start_trace("x")
        with pytest.raises(ValueError):
            _ = s.wall_duration


class TestRingBound:
    def test_capacity_bounds_finished(self):
        tr = SpanTracer(capacity=4)
        for i in range(10):
            tr.finish(tr.start_trace(f"s{i}"))
        assert len(tr) == 4
        assert tr.completed == 10
        assert tr.dropped == 6

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)


class TestChromeExport:
    def _tracer(self):
        tr = SpanTracer()
        root = tr.start_trace(
            "tap.forward", observer="initiator", initiator=1, destination=9
        ).set_sim(0.0, 2.0)
        tr.add_span(
            "dht.route", parent=root, sim_start=0.0, sim_end=2.0,
            observer="hop", src=1, dst=9, links=3,
        )
        tr.finish(root)
        return tr

    def test_event_structure(self):
        events = self._tracer().chrome_events()
        assert len(events) == 2
        for ev in events:
            assert ev["ph"] == "X"
            assert set(ev) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
            assert {"trace_id", "span_id", "parent_id", "clock"} <= set(ev["args"])
        route = next(e for e in events if e["name"] == "dht.route")
        assert route["cat"] == "routing"
        assert route["dur"] == pytest.approx(2.0 * 1e6)
        assert route["args"]["clock"] == "sim"

    def test_export_document_round_trips(self):
        doc = json.loads(self._tracer().to_json())
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["dropped_spans"] == 0

    def test_dump_writes_file(self, tmp_path):
        path = tmp_path / "t.json"
        assert self._tracer().dump(path) == 2
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2


class TestRedaction:
    def test_initiator_loses_responder_and_hops(self):
        attrs = {"initiator": 1, "destination": 9, "hop_node": 5, "links": 2}
        kept = redact_attrs("initiator", attrs)
        assert kept == {"initiator": 1, "links": 2}

    def test_exit_loses_initiator(self):
        attrs = {"initiator": 1, "responder": 9, "delivered": True, "links": 2}
        kept = redact_attrs("exit", attrs)
        assert kept == {"responder": 9, "links": 2}

    def test_hop_loses_both_endpoints_and_termination_markers(self):
        attrs = {
            "initiator": 1, "responder": 9, "hop_node": 5,
            "delivered": True, "matched_bid": 77, "links": 2,
        }
        kept = redact_attrs("hop", attrs)
        assert kept == {"hop_node": 5, "links": 2}

    def test_untagged_treated_as_hop(self):
        assert redact_attrs(None, {"initiator": 1, "x": 2}) == {"x": 2}

    def test_no_record_links_initiator_to_responder(self):
        """The anonymity invariant: over a full redacted export, no
        single span record carries both an initiator and responder key."""
        tr = SpanTracer()
        with tr.span("tap.forward", observer="initiator",
                     initiator=1, tunnel_length=3):
            with tr.span("tap.hop", observer="hop", hop_node=5):
                tr.finish(tr.start_span(
                    "onion.peel", observer="hop", hop_node=5,
                    delivered=True,
                ))
        root = tr.start_span("tap.reply", observer="exit",
                             responder=9, bid=1234)
        tr.finish(root)
        for ev in tr.chrome_events(redact=True):
            keys = set(ev["args"])
            assert not (keys & INITIATOR_KEYS and keys & RESPONDER_KEYS), ev
        # and hop records name no endpoint at all
        hop_events = [
            e for e in tr.chrome_events(redact=True)
            if e["args"].get("observer") == "hop"
        ]
        assert hop_events
        for ev in hop_events:
            assert not set(ev["args"]) & (INITIATOR_KEYS | RESPONDER_KEYS)

    def test_unredacted_export_keeps_everything(self):
        tr = SpanTracer()
        tr.finish(tr.start_trace("x", observer="hop", initiator=1, bid=2))
        (ev,) = tr.chrome_events(redact=False)
        assert ev["args"]["initiator"] == 1 and ev["args"]["bid"] == 2

    def test_key_sets_disjoint(self):
        assert not INITIATOR_KEYS & RESPONDER_KEYS
        assert not INITIATOR_KEYS & HOP_KEYS
        assert not RESPONDER_KEYS & HOP_KEYS


class TestPhases:
    def test_known_prefixes(self):
        assert phase_of("onion.peel") == "crypto"
        assert phase_of("dht.route") == "routing"
        assert phase_of("exit.direct") == "routing"
        assert phase_of("hint.probe") == "hint-probe"
        assert phase_of("hint.direct") == "hint-probe"
        assert phase_of("failover.repair") == "repair"
        assert phase_of("session.reform") == "repair"
        assert phase_of("tap.forward") == "other"

    def test_all_phases_enumerated(self):
        assert set(PHASES) == {"crypto", "routing", "hint-probe", "repair", "other"}
