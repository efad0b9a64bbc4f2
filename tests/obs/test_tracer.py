"""Tracer: nesting, the span schema of metrics.json, and Chrome-trace export."""

import json

import pytest

from repro.obs import SimClock, Tracer


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5

    def test_time_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestNesting:
    def test_live_spans_nest_via_stack(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("epoch", node=1) as epoch:
            clock.advance(1.0)
            with tracer.span("merge") as merge:
                clock.advance(0.25)
            clock.advance(0.75)
        assert merge.parent == epoch.id
        assert epoch.parent is None
        assert epoch.ts == 0.0 and epoch.dur == 2.0
        assert merge.ts == 1.0 and merge.dur == 0.25

    def test_record_defaults_to_innermost_live_span(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("epoch") as epoch:
            child = tracer.record("train", 0.0, 0.5)
        orphan = tracer.record("other", 1.0, 0.1)
        by_id = {s.id: s for s in tracer.spans}
        assert by_id[child].parent == epoch.id
        assert by_id[orphan].parent is None

    def test_record_with_explicit_parent(self):
        tracer = Tracer()
        epoch = tracer.record("epoch", 0.0, 2.0, epoch=0)
        stage = tracer.record("stage.merge", 0.0, 0.5, parent=epoch, stage="merge")
        merge = tracer.find("stage.merge")[0]
        assert merge.id == stage and merge.parent == epoch
        assert merge.attrs == {"stage": "merge"}

    def test_record_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().record("x", 0.0, -1.0)


class TestExport:
    def _tracer(self) -> Tracer:
        tracer = Tracer()
        epoch = tracer.record("epoch", 0.0, 2.0, epoch=0, node=3)
        tracer.record("stage.merge", 0.0, 0.5, parent=epoch, stage="merge")
        return tracer

    def test_span_schema(self):
        objs = [span.to_dict() for span in self._tracer().spans]
        assert len(objs) == 2
        for obj in objs:
            assert set(obj) == {"id", "parent", "name", "ts", "dur", "attrs"}
        assert objs[0]["name"] == "epoch"
        assert objs[1]["parent"] == objs[0]["id"]
        assert objs[1]["attrs"]["stage"] == "merge"

    def test_chrome_trace(self, tmp_path):
        tracer = self._tracer()
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        epoch = events[0]
        assert epoch["ts"] == 0.0
        assert epoch["dur"] == 2_000_000.0  # 2 s in microseconds
        assert epoch["tid"] == 3  # node attr becomes the lane
