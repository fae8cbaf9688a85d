"""Trace export formats: JSONL round-trips losslessly, Chrome trace_event
output is valid and flow-balanced, and a TraceSink streams the full
history even when the in-memory trace is a bounded ring."""

import io
import json

from repro.apps.arithmetic import eval_arith_node, paper_example_tree
from repro.core.api import reduce_tree
from repro.machine import Machine, Trace, TraceSink, read_jsonl, to_chrome, write_chrome, write_jsonl
from repro.machine.trace import TraceEvent
from repro.machine.tracefile import event_from_dict, event_to_dict


def traced_run(seed=0):
    machine = Machine(4, seed=seed, trace=True)
    reduce_tree(paper_example_tree(), eval_arith_node,
                machine=machine, strategy="tr1")
    return machine


class TestEventCodec:
    def test_round_trip_preserves_every_field(self):
        event = TraceEvent(12.5, 3, "reduce", "go", eid=7, cause=2,
                           motif="server[ports]", dur=1.0)
        assert event_from_dict(event_to_dict(event)) == event

    def test_defaults_are_omitted_for_compactness(self):
        event = TraceEvent(1.0, 1, "spawn", "go", eid=1)
        data = event_to_dict(event)
        assert "cause" not in data
        assert "motif" not in data
        assert "dur" not in data
        assert event_from_dict(data) == event


class TestJsonl:
    def test_round_trip_is_lossless(self, tmp_path):
        machine = traced_run()
        path = tmp_path / "run.jsonl"
        count = write_jsonl(machine.trace, path, processors=4, seed=0,
                            query="go")
        assert count == len(machine.trace)
        loaded, meta = read_jsonl(path)
        assert list(loaded) == list(machine.trace)
        assert loaded.format() == machine.trace.format()
        assert meta["processors"] == 4
        assert meta["query"] == "go"
        assert meta["format"] == "repro-trace"

    def test_dropped_count_survives_the_round_trip(self, tmp_path):
        machine = Machine(4, seed=0)
        machine.trace = Trace(enabled=True, limit=32)
        reduce_tree(paper_example_tree(), eval_arith_node,
                    machine=machine, strategy="tr1")
        assert machine.trace.dropped > 0
        path = tmp_path / "truncated.jsonl"
        write_jsonl(machine.trace, path)
        loaded, meta = read_jsonl(path)
        assert loaded.dropped == machine.trace.dropped
        assert loaded.truncated

    def test_header_is_first_line_and_events_are_one_per_line(self, tmp_path):
        machine = traced_run()
        path = tmp_path / "run.jsonl"
        write_jsonl(machine.trace, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "repro-trace"
        assert len(lines) == 1 + len(machine.trace)
        for line in lines[1:]:
            json.loads(line)


class TestChrome:
    def test_output_is_valid_and_complete(self, tmp_path):
        machine = traced_run()
        path = tmp_path / "run.chrome.json"
        write_chrome(list(machine.trace), path, processors=4)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        # Process + per-thread metadata rows.
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert sum(e["name"] == "thread_name" for e in meta) == 4
        # Every reduce is a complete slice carrying its virtual duration.
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(machine.trace.of_kind("reduce"))
        assert all("dur" in e for e in slices)
        # Non-reduce machine events are instants.
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(machine.trace) - len(slices)

    def test_flow_arrows_come_in_balanced_pairs(self):
        machine = traced_run()
        doc = to_chrome(list(machine.trace), processors=4)
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert starts, "expected causal flow arrows on a traced run"
        assert sorted(e["id"] for e in starts) == \
            sorted(e["id"] for e in finishes)

    def test_motif_tags_become_categories(self):
        machine = traced_run()
        doc = to_chrome(list(machine.trace), processors=4)
        cats = {e.get("cat") for e in doc["traceEvents"] if "cat" in e}
        assert "server[ports]" in cats
        assert "user" in cats


class TestSink:
    def test_sink_streams_full_history_past_a_ring_window(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        machine = Machine(4, seed=0)
        machine.trace = Trace(enabled=True, limit=64, ring=True)
        sink = TraceSink.open(path, processors=4)
        machine.trace.attach_sink(sink)
        reduce_tree(paper_example_tree(), eval_arith_node,
                    machine=machine, strategy="tr1")
        sink.close()
        assert len(machine.trace) == 64  # memory holds only the suffix
        loaded, _ = read_jsonl(path)
        assert len(loaded) == sink.count
        assert len(loaded) == 64 + machine.trace.dropped
        # The streamed file is the complete, gap-free history.
        assert [e.eid for e in loaded] == list(range(1, sink.count + 1))

    def test_sink_lines_are_byte_identical_to_json_dumps(self):
        events = [
            TraceEvent(0.0, 1, "spawn", "go", eid=1),
            TraceEvent(3, 2, "reduce", 'say("hi")', eid=2, cause=1, motif="server[ports]",
                       dur=1.0),
            TraceEvent(12.5, 4, "bind", "Ünïcode \\ \u2603 \t", eid=3, cause=0, motif="",
                       dur=0.25),
            TraceEvent(1e-7, 3, "fault", "drop:msg->p2", eid=40, cause=39, dur=2),
            TraceEvent(1e300, 1, "wake", "", eid=5, motif="rand\u00e9"),
            TraceEvent(float("inf"), 1, "timeout", "t", eid=6, dur=float("nan")),
        ]
        stream = io.StringIO()
        sink = TraceSink(stream)
        for event in events:
            sink.write(event)
        lines = stream.getvalue().splitlines()[1:]
        assert lines == [json.dumps(event_to_dict(e)) for e in events]
        assert sink.count == len(events)

    def test_sink_context_manager_closes_the_stream(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        with TraceSink.open(path, processors=1) as sink:
            sink.write(TraceEvent(0.0, 1, "spawn", "go", eid=1))
        assert sink.stream.closed
        loaded, meta = read_jsonl(path)
        assert len(loaded) == 1
        assert meta["processors"] == 1
