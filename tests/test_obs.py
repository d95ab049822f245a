"""Tests for the observability layer: the span/counter API, disabled
mode, metrics dataclasses, and the Chrome trace_event exporter."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.core import NULL_TELEMETRY, Telemetry
from repro.obs.metrics import (
    CellMetrics,
    QueueTimes,
    queue_metrics,
)


class TestSpans:
    def test_spans_nest(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("sibling"):
                pass
        outer, inner, sibling = telemetry.spans
        assert outer.depth == 0 and outer.parent == -1
        assert inner.depth == 1 and inner.parent == 0
        assert sibling.depth == 1 and sibling.parent == 0
        assert inner.start >= outer.start
        assert sibling.start >= inner.end
        assert outer.end >= sibling.end

    def test_span_closed_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("failing"):
                raise ValueError("boom")
        (span,) = telemetry.spans
        assert span.end >= span.start
        # The open-span stack unwound: new spans are roots again.
        with telemetry.span("after"):
            pass
        assert telemetry.spans[-1].depth == 0

    def test_total_seconds_sums_roots_only(self):
        clock = iter([0.0, 1.0, 2.0, 3.0, 10.0, 14.0]).__next__
        telemetry = Telemetry(clock=clock)
        with telemetry.span("a"):      # 0 .. 3
            with telemetry.span("b"):  # 1 .. 2 (nested, not re-counted)
                pass
        with telemetry.span("c"):      # 10 .. 14
            pass
        assert telemetry.total_seconds == pytest.approx(3.0 + 4.0)

    def test_find(self):
        telemetry = Telemetry()
        with telemetry.span("parse"):
            pass
        with telemetry.span("parse"):
            pass
        assert len(telemetry.find("parse")) == 2
        assert telemetry.find("nope") == []


class TestCounters:
    def test_counters_accumulate(self):
        telemetry = Telemetry()
        telemetry.counter("hits")
        telemetry.counter("hits", 4)
        telemetry.counter("misses", 2)
        assert telemetry.counters == {"hits": 5, "misses": 2}

    def test_counters_attributed_to_open_span(self):
        telemetry = Telemetry()
        with telemetry.span("phase"):
            telemetry.counter("nodes", 7)
            telemetry.counter("nodes", 3)
        telemetry.counter("nodes", 100)  # outside any span
        (span,) = telemetry.spans
        assert span.counters == {"nodes": 10}
        assert telemetry.counters["nodes"] == 110


class TestDisabledMode:
    def test_null_telemetry_is_a_noop(self):
        with NULL_TELEMETRY.span("anything"):
            NULL_TELEMETRY.counter("anything", 5)
        assert NULL_TELEMETRY.spans == []
        assert NULL_TELEMETRY.counters == {}
        assert not NULL_TELEMETRY.enabled

    def test_default_active_telemetry_is_null(self):
        assert obs.get_telemetry() is NULL_TELEMETRY

    def test_collecting_restores_previous(self):
        before = obs.get_telemetry()
        with obs.collecting() as telemetry:
            assert obs.get_telemetry() is telemetry
            assert telemetry.enabled
        assert obs.get_telemetry() is before

    def test_enable_disable(self):
        telemetry = obs.enable()
        try:
            assert obs.get_telemetry() is telemetry
        finally:
            obs.disable()
        assert obs.get_telemetry() is NULL_TELEMETRY

    def test_compile_records_nothing_when_disabled(self):
        from repro.compiler import compile_w2
        from repro.programs import passthrough

        assert obs.get_telemetry() is NULL_TELEMETRY
        compile_w2(passthrough(4, 2))
        assert NULL_TELEMETRY.spans == []
        assert NULL_TELEMETRY.counters == {}


class TestMetricsDataclasses:
    def test_cell_breakdown_partitions_run(self):
        cell = CellMetrics(
            cell=1,
            start_cycle=10,
            end_cycle=110,
            busy_cycles=60,
            alu_ops=30,
            mpy_ops=20,
            mem_reads=0,
            mem_writes=0,
            receives=5,
            sends=5,
            array_cycles=150,
        )
        assert cell.busy_cycles == 60
        assert cell.stall_cycles == 40
        assert cell.idle_cycles == 50
        assert cell.busy_cycles + cell.stall_cycles + cell.idle_cycles == 150
        assert cell.utilization == pytest.approx(60 / 150)
        assert cell.fp_ops == 50
        assert cell.flop_utilization == pytest.approx(50 / 200)

    def test_queue_metrics_residency(self):
        [queue], _passed = queue_metrics(
            [QueueTimes("q", 8, [0, 1, 2, 3], [2, 3, 4])]
        )
        assert queue.items_sent == 4
        assert queue.items_received == 3
        assert queue.total_wait_cycles == (2 - 0) + (3 - 1) + (4 - 2)
        assert queue.mean_residency == pytest.approx(2.0)

    def test_occupancy_series_and_histogram(self):
        [queue], _passed = queue_metrics([QueueTimes("q", None, [0, 1], [1, 4])])
        times, occupancy = queue.occupancy_series()
        # t=0: 1 in flight; t=1: second send + first receive -> 2, then
        # drops to 1 at t=2; empties after t=4.
        series = dict(zip(times.tolist(), occupancy.tolist()))
        assert series[0] == 1
        assert series[2] == 1
        assert series[5] == 0
        assert max(occupancy.tolist()) == 2
        histogram = queue.occupancy_histogram()
        assert sum(histogram.values()) == times.max() - times.min() + 1


def _spans_fixture() -> Telemetry:
    clock = iter([0.0, 0.1, 0.2, 0.3, 0.4, 0.5]).__next__
    telemetry = Telemetry(clock=clock)
    with telemetry.span("compile"):
        with telemetry.span("parse"):
            telemetry.counter("tokens", 42)
        with telemetry.span("codegen"):
            pass
    return telemetry


class TestChromeTraceExport:
    def test_compile_events_validate(self):
        events = obs.compile_trace_events(_spans_fixture())
        payload = [e for e in events if e["ph"] != "M"]
        assert {e["ph"] for e in payload} == {"B", "E"}
        # Timestamps are monotonic along the stream and B/E balance.
        timestamps = [e["ts"] for e in payload]
        assert timestamps == sorted(timestamps)
        stack = []
        for event in payload:
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack.pop() == event["name"]
        assert stack == []

    def test_compile_counters_on_begin_event(self):
        events = obs.compile_trace_events(_spans_fixture())
        parse = [
            e for e in events if e["ph"] == "B" and e["name"] == "parse"
        ]
        assert parse[0]["args"] == {"tokens": 42}

    def test_machine_events_validate(self, rng):
        from repro.compiler import compile_w2
        from repro.machine import simulate
        from repro.programs import polynomial

        program = compile_w2(polynomial(12, 3))
        result = simulate(
            program,
            {"z": rng.uniform(-1, 1, 12), "c": rng.standard_normal(3)},
            record=True,
        )
        events = obs.machine_trace_events(
            result.machine_metrics, result.record
        )
        for event in events:
            assert event["ph"] in {"X", "B", "E", "C", "M"}
            assert "pid" in event and "name" in event
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 1
        # One lane (thread_name metadata) per cell.
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for cell in range(program.n_cells):
            assert f"cell {cell}" in lanes
        assert "IU address path" in lanes and "host" in lanes
        # Cell lanes carry the per-block execution spans.
        assert any(
            e["ph"] == "X" and e["name"].startswith("block b")
            for e in events
        )

    def test_cell_lanes_share_the_span_cap(self, rng, monkeypatch):
        """Each cell lane keeps its first MAX_BLOCK_SPANS // cells spans;
        a lane cut short ends with a marker counting the rest."""
        from repro.compiler import compile_w2
        from repro.machine import simulate
        from repro.obs import chrome_trace
        from repro.programs import polynomial

        program = compile_w2(polynomial(12, 3))
        inputs = {"z": rng.uniform(-1, 1, 12), "c": rng.standard_normal(3)}

        def cell_lanes():
            result = simulate(program, inputs, record=True)
            events = obs.machine_trace_events(
                result.machine_metrics, result.record
            )
            names = {
                e["tid"]: e["args"]["name"]
                for e in events
                if e["ph"] == "M" and e.get("tid") is not None
            }
            lanes: dict[str, list] = {}
            for event in events:
                if event["ph"] == "X" and names[event["tid"]].startswith("cell"):
                    lanes.setdefault(names[event["tid"]], []).append(event)
            return lanes

        whole = cell_lanes()
        runs = len(whole["cell 0"])
        assert runs > 3
        assert all(len(lane) == runs for lane in whole.values())
        assert not any(
            e["name"] == "…truncated" for lane in whole.values() for e in lane
        )

        # 3 cells share 10 spans: 3 each, and the 1 left over is unused.
        monkeypatch.setattr(chrome_trace, "MAX_BLOCK_SPANS", 10)
        cut = cell_lanes()
        assert sorted(cut) == [f"cell {c}" for c in range(program.n_cells)]
        for name, lane in cut.items():
            *spans, marker = lane
            assert spans == whole[name][:3]
            assert marker["name"] == "…truncated"
            assert marker["args"] == {"omitted_spans": runs - 3}

    def test_span_arrays_are_read_only_and_unaliased(self, rng):
        """A lane's block ids, lengths and issued ops are the plan's,
        shared by every lane and run, so no array of a lane can be
        written, nor is it a view of anything writable; each lane's
        start cycles are its own."""
        from repro.compiler import compile_w2
        from repro.machine import simulate
        from repro.programs import polynomial

        program = compile_w2(polynomial(12, 3))
        inputs = {"z": rng.uniform(-1, 1, 12), "c": rng.standard_normal(3)}
        first, second = (
            simulate(program, inputs, record=True).record for _ in range(2)
        )
        lanes = first + second
        for lane in lanes:
            for array in (
                lane.block_ids, lane.starts, lane.lengths, lane.issued_ops
            ):
                while array is not None:
                    assert not array.flags.writeable
                    array = array.base
            with pytest.raises(ValueError):
                lane.starts[0] = -1
        starts = [lane.starts for lane in lanes]
        assert not any(
            np.shares_memory(a, b)
            for k, a in enumerate(starts) for b in starts[k + 1:]
        )
        for a, b in zip(first, second):
            assert np.array_equal(a.starts, b.starts)
            assert a.block_ids is b.block_ids

    def test_trace_document_roundtrips(self, rng, tmp_path):
        from repro.compiler import compile_w2
        from repro.machine import simulate
        from repro.programs import passthrough

        program = compile_w2(passthrough(6, 2))
        result = simulate(program, {"din": rng.standard_normal(6)})
        events = obs.simulation_trace_events(result)
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, events)
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert isinstance(document["traceEvents"], list)

    def test_fallback_without_record(self, rng):
        """Without record=True the cell lanes carry one execute span."""
        from repro.compiler import compile_w2
        from repro.machine import simulate
        from repro.programs import passthrough

        program = compile_w2(passthrough(6, 2))
        result = simulate(program, {"din": rng.standard_normal(6)})
        events = obs.machine_trace_events(result.machine_metrics, None)
        executes = [e for e in events if e.get("name") == "execute"]
        assert len(executes) == program.n_cells


class TestReportFormatting:
    def test_phase_table(self):
        text = obs.format_phase_table(_spans_fixture())
        assert "compile" in text and "  parse" in text
        assert "100.0%" in text
        assert "tokens=42" in text

    def test_counters_table(self):
        telemetry = _spans_fixture()
        assert "tokens" in obs.format_counters(telemetry)
        assert obs.format_counters(Telemetry()) == "(no counters)"

    def test_telemetry_json(self):
        document = obs.telemetry_to_json(_spans_fixture())
        assert len(document["spans"]) == 3
        assert document["counters"] == {"tokens": 42}
        json.dumps(document)  # serialisable
