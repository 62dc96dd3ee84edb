"""The management API: deploy, reconfigure, stats, telemetry, error paths."""

import json
import socket

from repro.gateway import GatewayServer, control_request
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""

RECONFIGURABLE_MCL = """main stream adaptive{
  streamlet a, b = new-streamlet (redirector);
  connect (a.po, b.pi);
  when (LOW_BANDWIDTH) {
    streamlet f = new-streamlet (redirector);
    insert (a.po, b.pi, f);
  }
}"""


def echo_once(address, key, body):
    message = MimeMessage("text/plain", body)
    message.headers.session = key
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(serialize_message(message))
        assembler = FrameAssembler()
        frames = []
        while not frames:
            chunk = sock.recv(65536)
            assert chunk, "gateway closed the connection"
            frames = assembler.feed(chunk)
    return frames[0]


class TestVerbs:
    def test_health_reports_both_planes(self):
        with GatewayServer().run_in_thread() as handle:
            health = handle.control({"op": "health"})
            assert health["ok"]
            assert health["sessions"] == 0
            assert tuple(health["data_address"]) == handle.data_address

    def test_deploy_sessions_stats_undeploy_cycle(self):
        with GatewayServer().run_in_thread() as handle:
            deployed = handle.control({"op": "deploy", "mcl": MCL})
            assert deployed["ok"]
            key = deployed["session"]

            listing = handle.control({"op": "sessions"})
            assert [s["session"] for s in listing["sessions"]] == [key]
            assert listing["sessions"][0]["scheduler"] == "threaded"
            assert listing["sessions"][0]["stepped_by"] == "pump"

            stats = handle.control({"op": "stats", "session": key})
            assert stats["ok"]
            assert stats["conservation"]["balanced"]
            assert "stream_stats" in stats

            removed = handle.control({"op": "undeploy", "session": key})
            assert removed["ok"]
            assert handle.control({"op": "sessions"})["sessions"] == []
            again = handle.control({"op": "undeploy", "session": key})
            assert not again["ok"]

    def test_deploy_inline_scheduler(self):
        with GatewayServer().run_in_thread() as handle:
            deployed = handle.control(
                {"op": "deploy", "mcl": MCL, "scheduler": "inline"}
            )
            assert deployed["ok"]
            listing = handle.control({"op": "sessions"})
            assert listing["sessions"][0]["scheduler"] == "inline"
            assert listing["sessions"][0]["stepped_by"] == "pump"

    def test_explicit_session_key_and_duplicate_rejection(self):
        with GatewayServer().run_in_thread() as handle:
            first = handle.control({"op": "deploy", "mcl": MCL, "session": "alpha"})
            assert first["ok"] and first["session"] == "alpha"
            duplicate = handle.control({"op": "deploy", "mcl": MCL, "session": "alpha"})
            assert not duplicate["ok"]
            assert "alpha" in duplicate["error"]

    def test_same_script_deploys_many_sessions(self):
        with GatewayServer().run_in_thread() as handle:
            keys = {handle.control({"op": "deploy", "mcl": MCL})["session"] for _ in range(3)}
            assert len(keys) == 3

    def test_reconfigure_drives_an_epoch_commit(self):
        with GatewayServer().run_in_thread() as handle:
            deployed = handle.control({"op": "deploy", "mcl": RECONFIGURABLE_MCL})
            assert deployed["ok"] and deployed["epoch"] == 0
            key = deployed["session"]
            assert echo_once(handle.data_address, key, b"before").body == b"before"

            adapted = handle.control(
                {"op": "reconfigure", "event": "LOW_BANDWIDTH", "session": key}
            )
            assert adapted["ok"], adapted
            assert adapted["delivered"] == 1
            assert adapted["epoch"] == 1  # the when-handler committed a txn

            # traffic still flows through the lengthened chain
            assert echo_once(handle.data_address, key, b"after").body == b"after"
            stats = handle.control({"op": "stats", "session": key})
            assert stats["epoch"] == 1

    def test_telemetry_scrape(self):
        with GatewayServer().run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL})
            scraped = handle.control({"op": "telemetry"})
            assert scraped["ok"] and scraped["enabled"]
            names = {f["name"] for f in scraped["snapshot"]["families"]}
            assert any(n.startswith("mobigate_gateway_") for n in names)


class TestErrorPaths:
    def test_unknown_op(self):
        with GatewayServer().run_in_thread() as handle:
            reply = handle.control({"op": "frobnicate"})
            assert not reply["ok"] and "unknown op" in reply["error"]

    def test_bad_json_line(self):
        with GatewayServer().run_in_thread() as handle:
            with socket.create_connection(handle.control_address, timeout=10) as sock:
                sock.sendall(b"{not json\n")
                reply = json.loads(sock.makefile().readline())
            assert not reply["ok"] and "bad JSON" in reply["error"]

    def test_non_object_request(self):
        with GatewayServer().run_in_thread() as handle:
            reply = control_request(handle.control_address, ["not", "an", "object"])
            assert not reply["ok"]

    def test_missing_required_field(self):
        with GatewayServer().run_in_thread() as handle:
            reply = handle.control({"op": "stats"})  # no "session"
            assert not reply["ok"]

    def test_stats_for_unknown_session(self):
        with GatewayServer().run_in_thread() as handle:
            reply = handle.control({"op": "stats", "session": "ghost"})
            assert not reply["ok"] and "ghost" in reply["error"]

    def test_uncompilable_mcl_is_a_clean_error(self):
        with GatewayServer().run_in_thread() as handle:
            reply = handle.control({"op": "deploy", "mcl": "main stream broken{"})
            assert not reply["ok"]
            # the gateway survives the failure
            assert handle.control({"op": "health"})["ok"]

    def test_unknown_scheduler_rejected(self):
        with GatewayServer().run_in_thread() as handle:
            reply = handle.control({"op": "deploy", "mcl": MCL, "scheduler": "quantum"})
            assert not reply["ok"] and "quantum" in reply["error"]

    def test_the_removed_process_engine_is_an_unknown_scheduler(self):
        with GatewayServer().run_in_thread() as handle:
            reply = handle.control({"op": "deploy", "mcl": MCL, "scheduler": "process"})
            assert reply == {"ok": False, "error": "unknown scheduler 'process'"}
            assert handle.control({"op": "sessions"})["sessions"] == []

    def test_unknown_event_rejected(self):
        with GatewayServer().run_in_thread() as handle:
            key = handle.control({"op": "deploy", "mcl": MCL})["session"]
            reply = handle.control(
                {"op": "reconfigure", "event": "MARTIAN_INVASION", "session": key}
            )
            assert not reply["ok"]
