"""The kill-9 harness: real process crashes against a durable gateway.

:class:`CrashHarness` drives the whole durability story end to end, the
way the acceptance bench needs it: a **subprocess** gateway
(``python -m repro.gateway``) with a WAL-backed ledger, a burst of real
frames over its data socket, a ``SIGKILL`` delivered mid-flight at a
seeded moment, a restart, and the ``recovery`` control verb to check
what came back.  Nothing is simulated — the child process dies with
whatever its ledger had fsynced, exactly like a production kill.

Per cycle the parent:

1. spawns (or reuses) the child and waits for its address line;
2. deploys the echo chain once — on later cycles recovery has already
   restored the session, so deployment is skipped;
3. sends ``burst`` frames and reads echoes until a seeded ack target is
   reached (leaving the rest in flight);
4. ``SIGKILL``\\ s the child.

After the last kill one more child recovers, the harness polls the
``recovery`` verb's reconciliation until the cross-crash conservation
equation balances, and the child is shut down gracefully (``SIGTERM`` →
drain).  The verdict: ``lost_acked`` must be 0 — every frame the parent
actually received an echo for must appear in the folded ``delivered``
total, because sessions flush the ledger *before* handing frames to the
egress callback.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StoreError
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

#: default MCL deployed in the child (a two-redirector echo chain)
ECHO_MCL = """
main stream crashchain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}
"""


@dataclass
class CrashCycle:
    """One send-burst / kill / restart round."""

    cycle: int
    sent: int
    acked: int
    #: sessions the restarted child reported as restored
    restored: int = 0
    #: in-flight tally the restarted child froze for the dead generation
    recovered_in_flight: int = 0


@dataclass
class CrashReport:
    """The verdict of a whole :meth:`CrashHarness.run`."""

    backend: str
    fsync: str
    seed: int
    cycles: list[CrashCycle] = field(default_factory=list)
    #: folded delivered total across every process generation
    delivered_total: int = 0
    #: echoes the parent actually received across every cycle
    acked_total: int = 0
    sent_total: int = 0
    #: acked frames the ledger does not know were delivered (must be 0)
    lost_acked: int = 0
    #: final cross-crash conservation verdict
    balanced: bool = False
    missing: int = 0
    wall_s: float = 0.0

    def describe(self) -> dict:
        """A JSON-ready summary (what the durability bench records)."""
        return {
            "backend": self.backend,
            "fsync": self.fsync,
            "seed": self.seed,
            "cycles": len(self.cycles),
            "sent_total": self.sent_total,
            "acked_total": self.acked_total,
            "delivered_total": self.delivered_total,
            "lost_acked": self.lost_acked,
            "balanced": self.balanced,
            "missing": self.missing,
            "recovered_in_flight": sum(c.recovered_in_flight for c in self.cycles),
            "wall_s": self.wall_s,
        }


class CrashHarness:
    """Seeded kill-9-and-restart driver over a subprocess gateway."""

    def __init__(
        self,
        store_dir: str | os.PathLike,
        *,
        backend: str = "file",
        fsync: str = "batch",
        cycles: int = 20,
        burst: int = 32,
        seed: int = 0,
        session_key: str = "crash-session",
        mcl: str = ECHO_MCL,
        boot_timeout: float = 20.0,
        io_timeout: float = 10.0,
    ) -> None:
        import random

        self.store_dir = Path(store_dir)
        self.backend = backend
        self.fsync = fsync
        self.cycles = cycles
        self.burst = burst
        self.seed = seed
        self.session_key = session_key
        self.mcl = mcl
        self.boot_timeout = boot_timeout
        self.io_timeout = io_timeout
        self.rng = random.Random(seed)
        self._child: subprocess.Popen | None = None
        self._addresses: dict | None = None

    # -- child process management -----------------------------------------------------

    def _store_path(self) -> str:
        name = "ledger.wal" if self.backend == "file" else "ledger.sqlite"
        return str(self.store_dir / name)

    def _spawn(self) -> dict:
        """Start the child gateway; returns its printed address record."""
        self.store_dir.mkdir(parents=True, exist_ok=True)
        src_root = Path(__file__).resolve().parents[2]  # .../src
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_root), env.get("PYTHONPATH")) if p
        )
        self._child = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.gateway",
                "--store",
                self._store_path(),
                "--backend",
                self.backend,
                "--fsync",
                self.fsync,
                "--supervise",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        line = self._read_line(self._child, self.boot_timeout)
        try:
            record = json.loads(line)
        except ValueError:
            raise StoreError(f"child gateway printed no address record: {line!r}")
        self._addresses = record
        return record

    @staticmethod
    def _read_line(child: subprocess.Popen, timeout: float) -> str:
        """One stdout line from the child, with a hard timeout."""
        out: list[str] = []

        def _read() -> None:
            assert child.stdout is not None
            out.append(child.stdout.readline().decode("utf-8", "replace"))

        reader = threading.Thread(target=_read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not out or not out[0]:
            child.kill()
            raise StoreError("child gateway did not start within the timeout")
        return out[0]

    def _control(self, request: dict) -> dict:
        from repro.gateway.control_plane import control_request

        assert self._addresses is not None
        host, port = self._addresses["control"]
        return control_request((host, port), request, timeout=self.io_timeout)

    def _kill(self) -> None:
        """SIGKILL the child — the crash under test."""
        if self._child is not None:
            self._child.kill()
            self._child.wait(timeout=self.io_timeout)
            self._child = None
            self._addresses = None

    def _shutdown(self) -> None:
        """Graceful exit: SIGTERM drives the child's drain path."""
        if self._child is None:
            return
        self._child.send_signal(signal.SIGTERM)
        try:
            self._child.wait(timeout=self.io_timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung child
            self._child.kill()
            self._child.wait(timeout=self.io_timeout)
        self._child = None
        self._addresses = None

    # -- one cycle ----------------------------------------------------------------------

    def _ensure_session(self) -> dict:
        """Deploy the echo chain unless recovery already restored it."""
        sessions = self._control({"op": "sessions"})
        keys = {s.get("session") for s in sessions.get("sessions", ())}
        if self.session_key in keys:
            return {"ok": True, "session": self.session_key, "recovered": True}
        reply = self._control(
            {
                "op": "deploy",
                "mcl": self.mcl,
                "session": self.session_key,
            }
        )
        if not reply.get("ok"):
            raise StoreError(f"deploy failed in the child gateway: {reply}")
        return reply

    def _send_burst(self, sent: int, ack_target: int) -> int:
        """Send ``sent`` frames, read echoes until ``ack_target``; returns acks."""
        assert self._addresses is not None
        host, port = self._addresses["data"]
        acked = 0
        assembler = FrameAssembler()
        with socket.create_connection((host, port), timeout=self.io_timeout) as sock:
            for i in range(sent):
                message = MimeMessage(
                    "application/octet-stream", f"crash-{i}".encode()
                )
                message.headers.session = self.session_key
                sock.sendall(serialize_message(message))
            deadline = time.monotonic() + self.io_timeout
            while acked < ack_target and time.monotonic() < deadline:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break
                acked += len(assembler.feed(chunk))
        return acked

    def _await_balance(self, timeout: float = 10.0) -> dict:
        """Poll reconciliation until the equation balances (or timeout)."""
        deadline = time.monotonic() + timeout
        reply: dict = {}
        while time.monotonic() < deadline:
            reply = self._control({"op": "recovery", "reconcile": True})
            reconcile = reply.get("reconcile") or {}
            if reconcile.get("balanced"):
                return reply
            time.sleep(0.05)
        return reply

    # -- the run ------------------------------------------------------------------------

    def run(self) -> CrashReport:
        """Execute every kill/restart cycle; returns the verdict."""
        report = CrashReport(backend=self.backend, fsync=self.fsync, seed=self.seed)
        began = time.perf_counter()
        try:
            for cycle in range(self.cycles):
                boot = self._spawn()
                restored = int(boot.get("recovered", 0))
                self._ensure_session()
                recovery = self._control({"op": "recovery"})
                frozen = sum(
                    s.get("in_flight", 0)
                    for s in (recovery.get("recovery") or {}).get("sessions", ())
                    if s.get("restored")
                )
                # leave a seeded amount in flight when the kill lands
                ack_target = self.rng.randint(1, max(1, self.burst // 2))
                acked = self._send_burst(self.burst, ack_target)
                report.cycles.append(
                    CrashCycle(
                        cycle=cycle,
                        sent=self.burst,
                        acked=acked,
                        restored=restored,
                        recovered_in_flight=frozen,
                    )
                )
                report.sent_total += self.burst
                report.acked_total += acked
                self._kill()
            # the generation that answers for all the dead ones
            self._spawn()
            self._ensure_session()
            final = self._await_balance()
            reconcile = final.get("reconcile") or {}
            report.balanced = bool(reconcile.get("balanced"))
            report.missing = int(reconcile.get("missing", 0))
            report.delivered_total = sum(
                s.get("delivered", 0) for s in reconcile.get("sessions", ())
            )
            report.lost_acked = max(0, report.acked_total - report.delivered_total)
            self._shutdown()
        finally:
            if self._child is not None:
                self._child.kill()
                self._child.wait()
                self._child = None
        report.wall_s = time.perf_counter() - began
        return report
