"""The system under test as its own OS process, and its control client.

The gateway is started through ``gateway_main.py`` — the shipped
``python -m repro.gateway``, default telemetry on, with its park budget
widened — in a process group of its own, so the generator shares neither
an interpreter lock nor a signal with it.  Every gateway
started here is registered with a :class:`Fleet`, whose ``close`` kills
whatever is still alive on any exit path.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import procfs

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: one control line may carry a whole attribution table
_CONTROL_LINE_LIMIT = 1 << 22


class ControlClient:
    """One persistent connection to the loopback JSON control plane."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, address: tuple[str, int]) -> "ControlClient":
        reader, writer = await asyncio.open_connection(*address, limit=_CONTROL_LINE_LIMIT)
        return cls(reader, writer)

    async def request(self, **request) -> dict:
        """One request/response round; raises unless the gateway says ``ok``."""
        self._writer.write(json.dumps(request).encode("utf-8") + b"\n")
        line = await asyncio.wait_for(self._reader.readline(), timeout=30.0)
        if not line:
            raise ConnectionError("control connection closed mid-request")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"control {request.get('op')!r} refused: {response}")
        return response

    def close(self) -> None:
        self._writer.close()


class Gateway:
    """A spawned gateway process and the scratch directory it owns."""

    def __init__(self, process: subprocess.Popen, workdir: Path):
        self.process = process
        self.pid = process.pid
        self.workdir = workdir
        self.data_address: tuple[str, int] = ("", 0)
        self.control_address: tuple[str, int] = ("", 0)

    @property
    def ledger_path(self) -> Path:
        return self.workdir / "ledger.wal"

    def kill(self) -> None:
        """SIGTERM then SIGKILL the gateway's process group; remove its scratch."""
        for signum in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.pid, signum)
            except ProcessLookupError:
                break  # the whole group is already gone
            try:
                self.process.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                pass
        self.process.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class Fleet:
    """Every gateway this run started; ``close`` leaves none behind."""

    def __init__(self) -> None:
        self._live: list[Gateway] = []
        self._shm_before = _shm_entries()

    def spawn(self, *, durable: bool) -> Gateway:
        """Start a gateway and block until its boot line (nothing else runs yet)."""
        workdir = Path(tempfile.mkdtemp(prefix="gw-", dir=OUT_DIR))
        command = [sys.executable, str(BENCH_DIR / "gateway_main.py")]
        if durable:
            command += ["--store", str(workdir / "ledger.wal"), "--backend", "file"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        # stderr goes to the scratch directory: a drained gateway logs the
        # cancellation of whatever control connection was still open
        with open(workdir / "stderr.log", "wb") as stderr:
            process = subprocess.Popen(
                command, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=stderr,
                start_new_session=True,
            )
        gateway = Gateway(process, workdir)
        self._live.append(gateway)
        ready, _, _ = select.select([process.stdout], [], [], 30.0)
        line = process.stdout.readline() if ready else b""
        if not line:
            complaint = (workdir / "stderr.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"the gateway printed no boot line within 30 s:\n{complaint}")
        boot = json.loads(line)
        gateway.data_address = tuple(boot["data"])
        gateway.control_address = tuple(boot["control"])
        return gateway

    def retire(self, gateway: Gateway) -> None:
        """Kill one gateway now (a finished cold start)."""
        self._live.remove(gateway)
        gateway.kill()

    def close(self) -> None:
        """Kill every live gateway and check that nothing survived."""
        while self._live:
            self._live.pop().kill()

    def assert_clean(self) -> None:
        """Raise if a gateway child or a new ``/dev/shm`` entry outlived the run."""
        survivors = [
            pid for pid in procfs.child_pids(os.getpid())
            if b"gateway_main.py" in _cmdline(pid)
        ]
        if survivors:
            raise RuntimeError(f"gateway processes survived the run: {survivors}")
        leaked = _shm_entries() - self._shm_before
        if leaked:
            raise RuntimeError(f"/dev/shm entries leaked by the run: {sorted(leaked)}")


def _shm_entries() -> set[str]:
    """The gateway's shared-memory segments (``mgps_<pid>_<serial>``); what
    other processes on the host keep in ``/dev/shm`` is not this run's."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("mgps_")}
    except OSError:
        return set()


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""
