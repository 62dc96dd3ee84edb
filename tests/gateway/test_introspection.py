"""The live introspection plane: introspect / attribution / events / metrics.

The concurrency test is the satellite's acceptance check: the verbs must
return consistent snapshots while a fleet of loopback clients streams
frames, without exceptions and with monotonic event cursors.
"""

import socket
import threading

from repro.gateway import GatewayServer
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry

from tests.gateway.test_data_plane import WORKER_MCL, offer_worker_redirector

MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""


def observed_gateway() -> GatewayServer:
    return offer_worker_redirector(
        GatewayServer(telemetry=Telemetry(registry=MetricsRegistry()))
    )


def deploy(handle, *, scheduler="threaded", mcl=MCL) -> str:
    reply = handle.control({"op": "deploy", "mcl": mcl, "scheduler": scheduler})
    assert reply["ok"], reply
    return reply["session"]


def echo_loop(address, key, n_messages, failures):
    """One blocking client: n closed-loop round-trips."""
    try:
        with socket.create_connection(address, timeout=30.0) as sock:
            assembler = FrameAssembler()
            for i in range(n_messages):
                message = MimeMessage("application/octet-stream", b"x%d" % i)
                message.headers.session = key
                sock.sendall(serialize_message(message))
                frames = []
                while not frames:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("gateway closed mid-run")
                    frames = assembler.feed(chunk)
    except Exception as exc:  # surfaced by the main thread
        failures.append(exc)


class TestVerbs:
    def test_introspect_reports_queues_workers_and_recorder(self):
        with observed_gateway().run_in_thread() as handle:
            key = deploy(handle, mcl=WORKER_MCL)
            state = handle.control({"op": "introspect"})
            assert state["ok"]
            session = state["sessions"][key]
            assert session["snapshot_version"] >= 1
            assert isinstance(session["queues"], list) and session["queues"]
            for row in session["queues"]:
                assert {"channel", "depth", "watermark", "capacity_bytes"} <= set(row)
            assert session["stepped_by"] == "workers"
            assert session["workers"], "threaded scheduler must expose workers"
            assert all(w["alive"] for w in session["workers"].values())
            assert "pump" not in session
            recorder = state["recorder"]
            assert recorder["enabled"] is True
            assert recorder["recorded"] >= 0

    def test_introspect_gives_a_pump_stepped_session_the_pumps_figures(self):
        with observed_gateway().run_in_thread() as handle:
            key = deploy(handle)
            failures = []
            echo_loop(handle.data_address, key, 20, failures)
            assert not failures
            state = handle.control({"op": "introspect"})
            session = state["sessions"][key]
            assert session["scheduler"] == "threaded"  # what was asked for
            assert session["stepped_by"] == "pump"
            assert "workers" not in session
            pump = session["pump"]
            assert pump["cycles"] >= pump["delivering_cycles"] >= 1
            assert pump["sessions_per_cycle"] == 1.0
            assert pump["frames_per_cycle"] >= 1.0
            assert 0.0 < pump["busy_share"] <= 1.0
            assert pump["egress_faults"] == state["egress_faults"] == 0

    def test_introspect_on_unobserved_gateway_still_answers(self):
        gateway = GatewayServer(telemetry=NULL_TELEMETRY)
        assert gateway.telemetry is None
        with gateway.run_in_thread() as handle:
            key = deploy(handle)
            state = handle.control({"op": "introspect"})
            assert state["ok"]
            assert state["recorder"] == {
                "enabled": False, "recorded": 0, "dropped": 0, "retained": 0, "dumps": {},
            }
            assert handle.control({"op": "telemetry"}) == {
                "ok": True, "enabled": False, "snapshot": {},
            }
            assert handle.control({"op": "attribution", "session": key}) == {
                "ok": True, "enabled": False, "components": {}, "decomposition": {},
            }
            # an empty tail that keeps the caller's cursor
            assert handle.control({"op": "events", "cursor": 7, "limit": 2}) == {
                "ok": True, "enabled": False, "events": [], "cursor": 7,
                "gap": 0, "recorded": 0, "dropped": 0,
            }

    def test_worker_utilization_appears_after_traffic(self):
        with observed_gateway().run_in_thread() as handle:
            key = deploy(handle, mcl=WORKER_MCL)
            failures = []
            echo_loop(handle.data_address, key, 20, failures)
            assert not failures
            state = handle.control({"op": "introspect"})
            workers = state["sessions"][key]["workers"]
            stepped = [w for w in workers.values() if w.get("steps", 0) > 0]
            assert stepped, workers
            for worker in stepped:
                assert worker["busy_seconds"] > 0.0
                assert 0.0 <= worker["utilization"] <= 1.0

    def test_attribution_verb_decomposes_latency(self):
        with observed_gateway().run_in_thread() as handle:
            key = deploy(handle)
            failures = []
            echo_loop(handle.data_address, key, 10, failures)
            assert not failures
            reply = handle.control({"op": "attribution", "session": key})
            assert reply["ok"] and reply["enabled"]
            d = reply["decomposition"]
            assert d["messages"] >= 10
            assert d["component_sum_seconds"] > 0.0
            assert d["e2e_mean_seconds"] > 0.0
            assert d["coverage"] > 0.0
            assert reply["components"]["service"]["rows"]
            # the socket side: first byte of a frame read -> frame complete
            (assembly,) = reply["components"]["frame_assembly"]["rows"]
            assert assembly["count"] >= 10 and assembly["sum_seconds"] > 0.0

    def test_attribution_disabled_and_unknown_session(self):
        with GatewayServer(telemetry=NULL_TELEMETRY).run_in_thread() as handle:
            reply = handle.control({"op": "attribution"})
            assert reply["ok"] and reply["enabled"] is False
        with observed_gateway().run_in_thread() as handle:
            reply = handle.control({"op": "attribution", "session": "nope"})
            assert reply["ok"] is False

    def test_events_verb_pages_with_cursor(self):
        with observed_gateway().run_in_thread() as handle:
            recorder = handle.gateway.telemetry.recorder
            for i in range(5):
                recorder.record("tick", n=i)
            first = handle.control({"op": "events", "limit": 3})
            assert first["ok"] and first["enabled"]
            assert len(first["events"]) == 3
            rest = handle.control({"op": "events", "cursor": first["cursor"]})
            seqs = [e["seq"] for e in first["events"] + rest["events"]]
            assert seqs == sorted(seqs)
            assert handle.control({"op": "events", "cursor": -1})["ok"] is False
            assert handle.control({"op": "events", "limit": "x"})["ok"] is False

    def test_metrics_verb_serves_prometheus_text(self):
        with observed_gateway().run_in_thread() as handle:
            key = deploy(handle)
            failures = []
            echo_loop(handle.data_address, key, 5, failures)
            assert not failures
            reply = handle.control({"op": "metrics"})
            assert reply["ok"] and reply["enabled"]
            assert "mobigate_hop_seconds" in reply["metrics"]
            assert "mobigate_queue_depth" in reply["metrics"]
        with GatewayServer(telemetry=NULL_TELEMETRY).run_in_thread() as handle:
            reply = handle.control({"op": "metrics"})
            assert reply["ok"] and reply["enabled"] is False
            assert reply["metrics"] == ""


class TestConcurrency:
    def test_introspection_under_streaming_load(self):
        """100 clients stream while the control plane is interrogated."""
        n_clients, per_client = 100, 5
        with observed_gateway().run_in_thread() as handle:
            key = deploy(handle)
            failures: list = []
            threads = [
                threading.Thread(
                    target=echo_loop,
                    args=(handle.data_address, key, per_client, failures),
                )
                for _ in range(n_clients)
            ]
            for t in threads:
                t.start()

            cursors = [0]
            try:
                while any(t.is_alive() for t in threads):
                    state = handle.control({"op": "introspect"}, timeout=30.0)
                    assert state["ok"], state
                    session = state["sessions"][key]
                    assert session["queues"] is not None
                    attrib = handle.control(
                        {"op": "attribution", "session": key}, timeout=30.0
                    )
                    assert attrib["ok"], attrib
                    events = handle.control(
                        {"op": "events", "cursor": cursors[-1]}, timeout=30.0
                    )
                    assert events["ok"], events
                    assert events["cursor"] >= cursors[-1]
                    cursors.append(events["cursor"])
                    metrics = handle.control({"op": "metrics"}, timeout=30.0)
                    assert metrics["ok"], metrics
            finally:
                for t in threads:
                    t.join(timeout=60.0)
            assert not failures, failures[:3]
            assert cursors == sorted(cursors)

            # the fleet is done: queues drained, ledger balanced
            stats = handle.control({"op": "stats", "session": key}, timeout=30.0)
            assert stats["conservation"]["balanced"], stats
            final = handle.control({"op": "introspect"})
            assert final["sessions"][key]["resident"] == 0
            assert all(
                row["depth"] == 0 for row in final["sessions"][key]["queues"]
            )
