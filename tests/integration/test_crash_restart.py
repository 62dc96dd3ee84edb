"""Real process deaths: kill -9 cycles and the graceful SIGTERM drain."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.gateway import GatewayServer
from repro.store import CrashHarness
from repro.store.crash import ECHO_MCL

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: the child gateway offers only the built-in library, so the composition
#: stepped on the pump's executor ends in a codec-backed transcoder
WORKER_ECHO_MCL = """
main stream crashchain{
  streamlet r0 = new-streamlet (redirector);
  streamlet r1 = new-streamlet (encryptor);
  connect (r0.po, r1.pi);
}
"""


def _stepped_by(mcl: str) -> str:
    """Who a gateway like the harness's child would have step ``mcl``."""
    probe = GatewayServer()
    try:
        return probe.deploy(mcl, session_key="probe").stepped_by
    finally:
        probe.undeploy("probe", record=False)


def _assert_no_acked_message_lost(tmp_path, mcl):
    harness = CrashHarness(
        tmp_path / "store", cycles=3, burst=16, seed=7, mcl=mcl
    )
    report = harness.run()
    assert report.sent_total == 3 * 16
    assert report.acked_total >= 3  # the seeded ack targets were reached
    assert report.lost_acked == 0
    assert report.balanced and report.missing == 0
    # every restart after the first found the session in the ledger
    assert all(c.restored == 1 for c in report.cycles[1:])


def test_kill9_cycles_lose_no_acked_messages(tmp_path):
    # the default deploy of the echo chain: stepped by the egress pump
    assert _stepped_by(ECHO_MCL) == "pump"
    _assert_no_acked_message_lost(tmp_path, ECHO_MCL)


def test_kill9_cycles_lose_no_acked_messages_worker_stepped(tmp_path):
    # the encryptor may block: the pump steps the session on its executor
    assert _stepped_by(WORKER_ECHO_MCL) == "executor"
    _assert_no_acked_message_lost(tmp_path, WORKER_ECHO_MCL)


def test_ledger_replay_restores_residency_accounting(tmp_path):
    # two cycles, then inspect the folded ledger the harness left behind:
    # everything the parent ever sent must have a recorded fate or be
    # frozen in a recovered_in_flight tally — nothing simply vanishes
    harness = CrashHarness(tmp_path / "store", cycles=2, burst=12, seed=3)
    report = harness.run()
    assert report.lost_acked == 0 and report.balanced
    from repro.store import FileWALStore, fold

    store = FileWALStore(str(tmp_path / "store" / "ledger.wal"))
    sf = fold(store.replay()).session(harness.session_key)
    store.close()
    assert sf.recoveries >= 2
    totals = sf.totals
    assert totals.admitted == (
        totals.delivered + totals.absorbed + totals.dead_letters + totals.dropped
        + totals.recovered_in_flight + totals.in_flight
    )
    assert totals.delivered >= report.acked_total


@contextlib.contextmanager
def _gateway_process(store_path):
    """A child gateway and its boot record; killed, reaped and its pipe closed on exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p
    )
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro.gateway",
            "--store", str(store_path), "--backend", "file", "--supervise",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    ) as child:
        try:
            yield child, json.loads(child.stdout.readline().decode())
        finally:
            child.kill()  # a no-op once the child has exited


def test_sigterm_drains_and_exits_cleanly(tmp_path):
    from repro.gateway.control_plane import control_request

    with _gateway_process(tmp_path / "ledger.wal") as (child, boot):
        assert boot["recovered"] == 0
        host, port = boot["control"]
        reply = control_request((host, port), {"op": "health"}, timeout=5)
        assert reply.get("ok") is True
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=15) == 0
    assert (tmp_path / "ledger.wal").exists()


def test_sigterm_after_traffic_leaves_a_recoverable_ledger(tmp_path):
    from repro.gateway.control_plane import control_request
    from repro.store import FileWALStore, fold

    mcl = """main stream chain{
      streamlet r0, r1 = new-streamlet (redirector);
      connect (r0.po, r1.pi);
    }"""
    path = tmp_path / "ledger.wal"
    with _gateway_process(path) as (child, boot):
        host, port = boot["control"]
        deployed = control_request(
            (host, port), {"op": "deploy", "mcl": mcl, "session": "term-1"}, timeout=5
        )
        assert deployed["ok"]
        began = time.monotonic()
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=15) == 0
        assert time.monotonic() - began < 15
    store = FileWALStore(str(path))
    out = fold(store.replay())
    store.close()
    # drain is not an undeploy: the session stays recoverable
    [sf] = out.recoverable()
    assert sf.session == "term-1"
    assert not sf.undeployed
