"""FlightRecorder: ordering, eviction, tail cursors, dumps, and the null twin."""

import json
import threading
import time

from repro.telemetry import FlightRecorder
from repro.telemetry.recorder import flight_dump_dir


class TestRecording:
    def test_sequence_numbers_are_monotonic_from_one(self):
        recorder = FlightRecorder()
        seqs = [recorder.record("drop", stream="s", msg_id=f"m{i}") for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert recorder.last_seq == 5
        assert [event["seq"] for event in recorder.events()] == seqs

    def test_event_shape(self):
        recorder = FlightRecorder()
        recorder.record("dead_letter", stream="s", msg_id="m1", reason="boom")
        event = recorder.events()[0]
        assert event["seq"] == 1
        assert isinstance(event["t"], float)
        assert event["category"] == "dead_letter"
        assert event["stream"] == "s"
        assert event["msg_id"] == "m1"
        assert event["reason"] == "boom"

    def test_capacity_evicts_oldest_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record("tick", n=i)
        assert len(recorder) == 3
        assert recorder.recorded == 5
        assert recorder.dropped == 2
        assert [event["seq"] for event in recorder.events()] == [3, 4, 5]

    def test_concurrent_writers_never_lose_sequence_numbers(self):
        recorder = FlightRecorder(capacity=10_000)
        n_threads, per_thread = 8, 500

        def hammer():
            for _ in range(per_thread):
                recorder.record("tick")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = sorted(event["seq"] for event in recorder.events())
        assert len(seqs) == n_threads * per_thread
        assert len(set(seqs)) == len(seqs)
        assert recorder.recorded == n_threads * per_thread


class TestTail:
    def test_tail_resumes_from_cursor(self):
        recorder = FlightRecorder()
        for i in range(4):
            recorder.record("tick", n=i)
        first = recorder.tail(0, limit=2)
        assert [e["seq"] for e in first["events"]] == [1, 2]
        assert first["cursor"] == 2
        rest = recorder.tail(first["cursor"])
        assert [e["seq"] for e in rest["events"]] == [3, 4]
        assert rest["cursor"] == 4
        assert recorder.tail(rest["cursor"])["events"] == []

    def test_tail_reports_eviction_gap(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(5):
            recorder.record("tick", n=i)
        tail = recorder.tail(1)
        # seqs 2-3 were evicted before this reader caught up
        assert tail["gap"] == 2
        assert [e["seq"] for e in tail["events"]] == [4, 5]

    def test_tail_without_gap_when_cursor_is_current(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(5):
            recorder.record("tick", n=i)
        assert recorder.tail(3)["gap"] == 0


class TestDump:
    def test_dump_writes_json_artifact(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("fault_injected", stream="s", instance="b")
        path = recorder.dump("s", reason="test escalation", directory=tmp_path)
        data = json.loads((tmp_path / "FLIGHT_s.json").read_text())
        assert path.endswith("FLIGHT_s.json")
        assert data["reason"] == "test escalation"
        assert data["events"][0]["category"] == "fault_injected"
        assert recorder.dumps["s"] == path

    def test_dump_anchors_both_clock_domains(self, tmp_path):
        """Event times are convertible to wall clock via the dual anchor.

        Ring events carry ``perf_counter`` timestamps while ``dumped_at``
        is wall clock; the payload pairs the two clocks sampled at the
        same instant (``dumped_at_monotonic``) so any event's wall time
        is ``dumped_at - (dumped_at_monotonic - event.t)``.
        """
        recorder = FlightRecorder()
        before_wall, before_mono = time.time(), time.perf_counter()
        recorder.record("tick")
        recorder.dump("anchor", reason="r", directory=tmp_path)
        after_wall, after_mono = time.time(), time.perf_counter()
        data = json.loads((tmp_path / "FLIGHT_anchor.json").read_text())
        assert before_mono <= data["dumped_at_monotonic"] <= after_mono
        assert before_wall <= data["dumped_at"] <= after_wall
        event = data["events"][0]
        wall = data["dumped_at"] - (data["dumped_at_monotonic"] - event["t"])
        assert before_wall <= wall <= after_wall

    def test_dump_label_is_sanitized(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("tick")
        path = recorder.dump("a/b c~g1", reason="r", directory=tmp_path)
        assert "/" not in path.rsplit("FLIGHT_", 1)[1]

    def test_dump_dir_comes_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        assert flight_dump_dir() == tmp_path
        recorder = FlightRecorder()
        recorder.record("tick")
        recorder.dump("envtest", reason="r")
        assert (tmp_path / "FLIGHT_envtest.json").exists()

