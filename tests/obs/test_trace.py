"""obs-trace: Chrome-trace export, flamegraph lines, and the golden records."""

import glob
import io
import json

import pytest

from repro.obs.recorder import RunRecorder
from repro.obs.trace import (
    chrome_trace,
    flame_name,
    flamegraph_lines,
    main,
    trace_name,
    validate_trace,
)

COMMITTED_RECORDS = sorted(glob.glob("results/runs/*.jsonl"))


def record_events(build) -> list:
    """Run ``build(recorder)`` against an in-memory recorder; return events."""
    buffer = io.StringIO()
    recorder = RunRecorder(run_id="t", path=buffer)
    build(recorder)
    return [json.loads(line) for line in buffer.getvalue().strip().split("\n")]


class TestChromeTrace:
    def test_empty_record_raises(self):
        with pytest.raises(ValueError):
            chrome_trace([])

    def test_phases_and_spans_become_duration_events(self):
        def build(rec):
            rec.run_start(dataset="d")
            with rec.phase("explainable"):
                with rec.span("epoch0"):
                    pass
            rec.run_end(test_accuracy=0.5)

        trace = chrome_trace(record_events(build), source="t.jsonl")
        assert validate_trace(trace) == []
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"explainable", "epoch0"} <= names
        # The span is clamped inside its phase.
        phase = next(e for e in complete if e["name"] == "explainable")
        span = next(e for e in complete if e["name"] == "epoch0")
        assert span["ts"] >= phase["ts"]
        assert span["ts"] + span["dur"] <= phase["ts"] + phase["dur"]

    @pytest.mark.parametrize(
        "phase_start_us, span_start_us, end_us",
        [(0.4, 0.6, 1.8), (0.5, 1.5, 2.5), (1.5, 2.5, 3.5), (2.5, 2.5, 4.5)],
    )
    def test_span_stays_inside_phase_at_half_microsecond_edges(
        self, phase_start_us, span_start_us, end_us
    ):
        # Rounding ts and dur separately could end a span 1 us after its
        # phase; dur must be the difference of the rounded end points.
        end = end_us * 1e-6
        events = [
            {"event": "run_start", "seq": 0, "ts": 0.0, "run_id": "r"},
            {"event": "span", "seq": 1, "ts": end, "path": "explainable/epoch0",
             "depth": 1, "seconds": end - span_start_us * 1e-6},
            {"event": "phase_end", "seq": 2, "ts": end, "phase": "explainable",
             "seconds": end - phase_start_us * 1e-6},
        ]
        trace = chrome_trace(events)
        assert validate_trace(trace) == []
        complete = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        phase, span = complete["explainable"], complete["epoch0"]
        assert span["ts"] >= phase["ts"]
        assert span["ts"] + span["dur"] <= phase["ts"] + phase["dur"]

    def test_span_starting_before_its_phase_is_clamped(self):
        # Wall-clock ts and perf_counter seconds drift apart: a span may
        # appear to start before the phase that encloses it.
        events = [
            {"event": "run_start", "seq": 0, "ts": 0.0, "run_id": "r"},
            {"event": "span", "seq": 1, "ts": 0.010, "path": "explainable/epoch0",
             "depth": 1, "seconds": 0.009},
            {"event": "phase_end", "seq": 2, "ts": 0.011, "phase": "explainable",
             "seconds": 0.009},
        ]
        complete = {e["name"]: e for e in chrome_trace(events)["traceEvents"]
                    if e["ph"] == "X"}
        assert complete["epoch0"]["ts"] == complete["explainable"]["ts"] == 2000
        assert complete["epoch0"]["dur"] == 8000

    def test_epoch_events_become_counter_tracks(self):
        def build(rec):
            rec.run_start()
            rec.epoch("explainable", 0, 1.5, val_accuracy=0.7,
                      feature_mask_sparsity=0.4)

        trace = chrome_trace(record_events(build))
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        assert {"loss", "val_accuracy", "mask_sparsity/feature"} <= counters

    def test_recovery_and_snapshot_events_become_instants(self):
        def build(rec):
            rec.run_start()
            rec.emit("recovery_event", action="rollback", phase="p", epoch=1,
                     reason="nan", retries=1, total_rollbacks=1, lr_scale=0.5)
            rec.emit("snapshot_event", phase="p", path="x.npz")

        trace = chrome_trace(record_events(build))
        instants = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
        assert {"run_start", "recovery_event", "snapshot_event"} <= instants

    def test_timestamps_are_relative_microsecond_ints(self):
        def build(rec):
            rec.run_start()
            with rec.phase("p"):
                pass

        trace = chrome_trace(record_events(build))
        for event in trace["traceEvents"]:
            if event["ph"] != "M":
                assert isinstance(event["ts"], int) and event["ts"] >= 0


class TestFlamegraph:
    def test_lines_are_collapsed_stacks_with_self_time(self):
        def build(rec):
            with rec.phase("explainable"):
                with rec.span("epoch0"):
                    pass
                with rec.span("epoch1"):
                    pass

        lines = flamegraph_lines(record_events(build))
        parsed = dict(line.rsplit(" ", 1) for line in lines)
        # Numeric suffixes fold: both epochs share one frame.
        assert "explainable;epoch*" in parsed
        for value in parsed.values():
            assert int(value) >= 0

    def test_phase_only_records_fall_back_to_phase_frames(self):
        def build(rec):
            with rec.phase("predictive"):
                pass

        lines = flamegraph_lines(record_events(build))
        assert any(line.startswith("predictive ") for line in lines)


class TestValidateTrace:
    def test_flags_schema_violations(self):
        assert validate_trace([]) == ["trace must be a dict, got list"]
        assert validate_trace({}) == ["traceEvents must be a list"]
        bad = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "tid": 1, "ts": -1}]}
        problems = validate_trace(bad)
        assert any("phase code" in p for p in problems)
        assert any("ts" in p for p in problems)
        counter = {"traceEvents": [
            {"name": "c", "ph": "C", "pid": 1, "tid": 0, "ts": 0, "args": {"v": "s"}}
        ]}
        assert any("numeric" in p for p in validate_trace(counter))


class TestGoldenRecords:
    """Every committed run record must convert into a valid Chrome trace."""

    def test_committed_records_exist(self):
        assert COMMITTED_RECORDS, "no committed run records under results/runs/"

    @pytest.mark.parametrize("record", COMMITTED_RECORDS)
    def test_record_converts_to_valid_trace(self, record):
        from repro.obs.report import load_events

        events = load_events(record)
        trace = chrome_trace(events, source=record)
        assert validate_trace(trace) == []
        # Round-trips through JSON unchanged.
        assert json.loads(json.dumps(trace)) == trace
        assert len(trace["traceEvents"]) > 2

    @pytest.mark.parametrize("record", COMMITTED_RECORDS)
    def test_record_produces_flamegraph_lines(self, record):
        from repro.obs.report import load_events

        for line in flamegraph_lines(load_events(record)):
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0


class TestCLI:
    def test_names(self):
        assert trace_name("a/b.jsonl") == "a/b.trace.json"
        assert flame_name("a/b.jsonl") == "a/b.flame.txt"

    def test_writes_trace_and_flame(self, tmp_path, capsys):
        record = COMMITTED_RECORDS[0]
        out = tmp_path / "out.trace.json"
        flame = tmp_path / "out.flame.txt"
        assert main([record, "-o", str(out), "--flame", str(flame)]) == 0
        trace = json.loads(out.read_text())
        assert validate_trace(trace) == []
        assert flame.read_text().strip()
        assert "obs-trace: wrote" in capsys.readouterr().out

    def test_stdout_mode(self, capsys):
        assert main([COMMITTED_RECORDS[0], "--stdout"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert validate_trace(trace) == []

    def test_missing_record_fails_with_one_line(self, capsys):
        assert main(["nope/missing.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obs-trace:") and "Traceback" not in err

    def test_empty_record_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([str(empty)]) == 1
        assert "no events" in capsys.readouterr().err

    def test_out_with_multiple_records_rejected(self, tmp_path, capsys):
        assert main(["a.jsonl", "b.jsonl", "-o", str(tmp_path / "x.json")]) == 2
