"""The durability verbs: dead_letters, requeue, recovery, drain."""

import asyncio
import signal
import socket
import threading
import time

from repro.faults.supervisor import DeadLetter
from repro.gateway import GatewayConfig, GatewayServer
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""


def supervised_config(tmp_path, **overrides):
    defaults = dict(
        store_backend="file",
        store_path=str(tmp_path / "ledger.wal"),
        supervise=True,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def park(gateway, key, msg_id, body=b"parked"):
    entry = DeadLetter(
        msg_id=msg_id,
        message=MimeMessage("text/plain", body),
        instance="r1",
        port="pi",
        attempts=3,
        reason="retries exhausted: test",
    )
    gateway.sessions[key].supervisor.dead_letters.add(entry)
    return entry


class TestSupervisedDeploy:
    def test_supervise_flag_attaches_a_supervisor(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path, dead_letter_capacity=7))
        with gateway.run_in_thread() as handle:
            deployed = handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            assert deployed["ok"]
            supervisor = gateway.sessions["k"].supervisor
            assert supervisor is not None
            assert supervisor.dead_letters.capacity == 7
            assert supervisor.scope == "k"  # ledger records carry the session key

    def test_default_deploy_is_unsupervised(self):
        gateway = GatewayServer()
        with gateway.run_in_thread() as handle:
            key = handle.control({"op": "deploy", "mcl": MCL})["session"]
            assert gateway.sessions[key].supervisor is None
            reply = handle.control({"op": "dead_letters", "session": key})
            assert reply["ok"] and reply["supervised"] is False
            assert reply["dead_letters"] == []


class TestDeadLettersVerb:
    def test_lists_parked_messages(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            park(gateway, "k", "dl-1")
            reply = handle.control({"op": "dead_letters", "session": "k"})
            assert reply["supervised"] is True
            assert reply["evicted"] == 0
            [row] = reply["dead_letters"]
            assert row["msg_id"] == "dl-1"
            assert row["attempts"] == 3
            assert row["has_message"] is True

    def test_unknown_session_errors(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            reply = handle.control({"op": "dead_letters", "session": "ghost"})
            assert reply["ok"] is False


class TestRequeueVerb:
    def test_requeue_readmits_the_parked_message(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            park(gateway, "k", "dl-1")
            reply = handle.control({"op": "requeue", "session": "k", "msg_id": "dl-1"})
            assert reply["ok"], reply
            assert reply["msg_id"] == "dl-1"
            pool = gateway.sessions["k"].supervisor.dead_letters
            assert "dl-1" not in pool
            # the re-admitted copy settles with full accounting
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if gateway.sessions["k"].resident == 0:
                    break
                time.sleep(0.02)
            assert gateway.sessions["k"].resident == 0
            assert handle.control({"op": "recovery", "reconcile": True})["reconcile"][
                "balanced"
            ]

    def test_requeue_unknown_id_errors(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            reply = handle.control({"op": "requeue", "session": "k", "msg_id": "nope"})
            assert reply["ok"] is False

    def test_payloadless_entry_stays_parked(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            pool = gateway.sessions["k"].supervisor.dead_letters
            pool.add(
                DeadLetter(
                    msg_id="hollow", message=None, instance="r1",
                    port="pi", attempts=1, reason="body lost",
                )
            )
            reply = handle.control({"op": "requeue", "session": "k", "msg_id": "hollow"})
            assert reply["ok"] is False
            assert "hollow" in pool  # still inspectable after the refusal


class TestRecoveryVerb:
    def test_reports_the_boot_recovery_and_reconciles(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            reply = handle.control({"op": "recovery", "reconcile": True})
            assert reply["ok"] and reply["enabled"] is True
            assert reply["recovery"]["restored"] == 0  # fresh ledger
            assert reply["reconcile"]["balanced"] is True

    def test_disabled_without_a_backend(self):
        with GatewayServer().run_in_thread() as handle:
            reply = handle.control({"op": "recovery"})
            assert reply["ok"] and reply["enabled"] is False
            assert reply["recovery"] is None
            # no ledger, nothing to balance: an empty, balanced reconcile
            reply = handle.control({"op": "recovery", "reconcile": True})
            assert reply["reconcile"] == {"balanced": True, "missing": 0, "sessions": []}

    def test_storeless_supervised_gateway_parks_and_requeues(self):
        gateway = GatewayServer(config=GatewayConfig(supervise=True))
        assert gateway.ledger is None and gateway.recovery is None
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            assert gateway.sessions["k"].ledger is None
            assert gateway.sessions["k"].supervisor.ledger is None
            park(gateway, "k", "dl-1")
            reply = handle.control({"op": "dead_letters", "session": "k"})
            assert reply["supervised"] is True
            assert [row["msg_id"] for row in reply["dead_letters"]] == ["dl-1"]
            reply = handle.control({"op": "requeue", "session": "k", "msg_id": "dl-1"})
            assert reply == {"ok": True, "session": "k", "msg_id": "dl-1", "status": "admitted"}


class TestDrain:
    def test_drain_coroutine_quiesces_and_reports_zero_leftover(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            message = MimeMessage("text/plain", b"drain me")
            message.headers.session = "k"
            with socket.create_connection(handle.data_address, timeout=10) as sock:
                sock.sendall(serialize_message(message))
                assembler = FrameAssembler()
                frames = []
                while not frames:
                    chunk = sock.recv(65536)
                    assert chunk
                    frames = assembler.feed(chunk)
            future = asyncio.run_coroutine_threadsafe(gateway.drain(), handle._loop)
            leftover = future.result(timeout=10)
            assert leftover == {"k": 0}
            assert gateway.ledger.store.closed

    def test_drain_verb_shuts_the_gateway_down(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            reply = handle.control({"op": "drain"})
            assert reply["ok"] and reply["draining"] is True
            deadline = time.monotonic() + 10
            closed = False
            while time.monotonic() < deadline and not closed:
                closed = gateway.ledger.store.closed and not gateway.sessions
                time.sleep(0.02)
            assert closed

    def test_run_in_thread_wires_and_restores_sigterm(self, tmp_path):
        if threading.current_thread() is not threading.main_thread():
            return  # signal wiring only happens on the main thread
        before = signal.getsignal(signal.SIGTERM)
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


class TestOneEquation:
    """The live check and crash reconcile render one value type."""

    def test_stats_and_reconcile_agree_on_a_quiesced_session(self, tmp_path):
        gateway = GatewayServer(config=supervised_config(tmp_path))
        with gateway.run_in_thread() as handle:
            handle.control({"op": "deploy", "mcl": MCL, "session": "k"})
            message = MimeMessage("text/plain", b"count me")
            message.headers.session = "k"
            with socket.create_connection(handle.data_address, timeout=10) as sock:
                sock.sendall(serialize_message(message) * 3)
                assembler = FrameAssembler()
                frames = []
                while len(frames) < 3:
                    chunk = sock.recv(65536)
                    assert chunk
                    frames += assembler.feed(chunk)
            deadline = time.monotonic() + 5
            while gateway.sessions["k"].resident and time.monotonic() < deadline:
                time.sleep(0.02)
            live = handle.control({"op": "stats", "session": "k"})["conservation"]
            reconcile = handle.control({"op": "recovery", "reconcile": True})["reconcile"]
        assert set(live) == {
            "admitted", "delivered", "absorbed", "dead_letters", "queue_drops",
            "open_circuit_drops", "failure_drops", "end_drops", "residual",
            "missing", "balanced", "ledger",
        }
        [row] = reconcile["sessions"]
        assert set(row) == {
            "session", "admitted", "delivered", "absorbed", "dead_lettered",
            "dropped", "resident", "recovered_in_flight", "balanced", "missing",
        }
        assert (live["admitted"], live["delivered"]) == (row["admitted"], row["delivered"]) == (3, 3)
        assert live["absorbed"] == row["absorbed"]
        assert live["dead_letters"] == row["dead_lettered"]
        drops = ("queue_drops", "open_circuit_drops", "failure_drops", "end_drops")
        assert sum(live[kind] for kind in drops) == row["dropped"]
        assert live["balanced"] and reconcile["balanced"]
