"""RecoveryManager: restart restoration, re-parking, re-injection, reconcile."""

import socket
import time

from repro.gateway import GatewayConfig, GatewayServer
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message
from repro.store import Ledger, open_store
from repro.telemetry import MetricsRegistry, Telemetry

MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""


def durable_config(tmp_path, **overrides):
    defaults = dict(
        store_backend="file",
        store_path=str(tmp_path / "ledger.wal"),
        supervise=True,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def echo_once(address, key, body=b"payload"):
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


def await_balanced(handle, timeout=5.0):
    deadline = time.monotonic() + timeout
    reply = {}
    while time.monotonic() < deadline:
        reply = handle.control({"op": "recovery", "reconcile": True})
        if (reply.get("reconcile") or {}).get("balanced"):
            return reply
        time.sleep(0.02)
    return reply


class TestRestartRestoration:
    def test_restart_restores_the_session_from_the_ledger(self, tmp_path):
        config = durable_config(tmp_path)
        with GatewayServer(config=config).run_in_thread() as handle:
            deployed = handle.control({"op": "deploy", "mcl": MCL, "session": "s-1"})
            assert deployed["ok"]
            frame = echo_once(handle.data_address, "s-1")
            assert frame.body == b"payload"
        # clean stop does NOT undeploy: the session must come back
        restarted = GatewayServer(config=durable_config(tmp_path))
        with restarted.run_in_thread() as handle:
            report = restarted.recovery.last_report
            assert report is not None and report.restored == 1
            [outcome] = report.sessions
            assert outcome.session == "s-1" and outcome.restored
            # and it still moves traffic
            frame = echo_once(handle.data_address, "s-1", b"after restart")
            assert frame.body == b"after restart"
            reply = await_balanced(handle)
            reconcile = reply["reconcile"]
            assert reconcile["balanced"] and reconcile["missing"] == 0
            [row] = reconcile["sessions"]
            assert row["delivered"] >= 2  # both generations' deliveries folded

    def test_operator_undeploy_retires_the_session(self, tmp_path):
        with GatewayServer(config=durable_config(tmp_path)).run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "s-1"})
            gone = handle.control({"op": "undeploy", "session": "s-1"})
            assert gone["ok"]
        restarted = GatewayServer(config=durable_config(tmp_path))
        with restarted.run_in_thread():
            report = restarted.recovery.last_report
            assert report is not None and report.restored == 0
            assert "s-1" not in restarted.sessions

    def test_recover_is_idempotent_for_live_sessions(self, tmp_path):
        restarted = GatewayServer(config=durable_config(tmp_path))
        with GatewayServer(config=durable_config(tmp_path)).run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "s-1"})
        with restarted.run_in_thread():
            second = restarted.recovery.recover()
            [outcome] = second.sessions
            assert not outcome.restored and outcome.reason == "already deployed"


class TestRecoveryAcrossTheEngineRemoval:
    def test_a_ledger_naming_the_removed_engine_recovers_as_threaded(self, tmp_path):
        # what a build that still had the sharded engine left behind
        store = open_store("file", str(tmp_path / "ledger.wal"))
        store.append(
            {"ev": "deployed", "session": "s-1", "mcl": MCL, "scheduler": "process"}
        )
        store.close()
        telemetry = Telemetry(registry=MetricsRegistry())
        gateway = GatewayServer(config=durable_config(tmp_path), telemetry=telemetry)
        with gateway.run_in_thread() as handle:
            [outcome] = gateway.recovery.last_report.sessions
            assert outcome.restored, outcome.reason
            assert gateway.sessions["s-1"].scheduler_kind == "threaded"
            frame = echo_once(handle.data_address, "s-1")
            assert frame.body == b"payload"
            assert await_balanced(handle)["reconcile"]["balanced"]
            [event] = [
                e for e in telemetry.recorder.events()
                if e["category"] == "scheduler_substituted"
            ]
            assert (event["stream"], event["recorded"], event["engine"]) == (
                "s-1", "process", "threaded",
            )
        # the new generation recorded what it runs: the next restart needs
        # no substitution
        store = open_store("file", str(tmp_path / "ledger.wal"))
        deployed = [r for r in store.replay() if r.get("ev") == "deployed"]
        store.close()
        assert [r["scheduler"] for r in deployed] == ["process", "threaded"]


class TestFaultStateRestoration:
    def _seed_ledger(self, tmp_path, records):
        ledger = Ledger(open_store("file", str(tmp_path / "ledger.wal")))
        ledger.deployed("s-1", mcl=MCL, scheduler="threaded")
        records(ledger)
        ledger.close()

    def test_parked_dead_letters_are_reparked(self, tmp_path):
        frame = serialize_message(MimeMessage("text/plain", b"parked"))
        self._seed_ledger(
            tmp_path,
            lambda ledger: (
                ledger.counters("s-1", admitted=1, dead_letters=1),
                ledger.dead_letter(
                    "s-1", "msg-1", stream="chain", reason="exhausted", frame=frame
                ),
            ),
        )
        gateway = GatewayServer(config=durable_config(tmp_path))
        with gateway.run_in_thread() as handle:
            [outcome] = gateway.recovery.last_report.sessions
            assert outcome.restored and outcome.reparked == 1
            supervisor = gateway.sessions["s-1"].supervisor
            assert "msg-1" in supervisor.dead_letters
            [entry] = list(supervisor.dead_letters)
            assert entry.reason.startswith("recovered")
            assert entry.message is not None and entry.message.body == b"parked"
            reply = await_balanced(handle)
            assert reply["reconcile"]["balanced"]

    def test_pending_retries_are_reinjected_as_fresh_admissions(self, tmp_path):
        frame = serialize_message(MimeMessage("text/plain", b"retry me"))
        self._seed_ledger(
            tmp_path,
            lambda ledger: (
                ledger.counters("s-1", admitted=1),  # in flight at the kill
                ledger.retry_scheduled(
                    "s-1", "msg-1", instance="r1", port="pi", attempt=1, frame=frame
                ),
            ),
        )
        gateway = GatewayServer(config=durable_config(tmp_path))
        with gateway.run_in_thread() as handle:
            [outcome] = gateway.recovery.last_report.sessions
            assert outcome.restored
            assert outcome.in_flight == 1  # the dead generation's tally, frozen
            assert outcome.reinjected == 1 and outcome.reinject_failures == 0
            reply = await_balanced(handle)
            reconcile = reply["reconcile"]
            assert reconcile["balanced"] and reconcile["missing"] == 0
            [row] = reconcile["sessions"]
            assert row["recovered_in_flight"] == 1
            assert row["admitted"] == 2  # original + the re-injection


class TestLedgerlessGateway:
    def test_gateway_without_a_backend_skips_recovery(self):
        gateway = GatewayServer()
        with gateway.run_in_thread() as handle:
            assert gateway.ledger is None
            reply = handle.control({"op": "recovery"})
            assert reply["ok"] and reply["enabled"] is False
