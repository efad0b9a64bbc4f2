"""Tracer: recorded nesting, the span schema of metrics.json, and Chrome-trace export."""

import json

import pytest

from repro.obs import Tracer


class TestNesting:
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
