"""Durability bench: seeded kill-9/restart cycles against the file ledger.

The :class:`repro.store.crash.CrashHarness` drives seeded kill-9/restart
cycles against a subprocess gateway.  The rows are *hard* assertions,
not advisories: ``lost_acked`` must be 0 (every acknowledged message
survives in the folded ledger) and the cross-crash conservation
equation must balance.  What the ledger costs per message is measured
end to end by ``bench_e2e/run.py`` (``store.ledger.*`` on
``session_churn``); the ``pump_*`` rows price it in process: 8 sessions
× 2 messages per cycle through one egress pump, bound to an event loop on
a thread of the row's own, file WAL against none.
"""

from __future__ import annotations

import asyncio
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps import build_server
from repro.bench.reporting import print_series
from repro.gateway.session import EgressPump, GatewaySession
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.store import Ledger, open_store
from repro.store.crash import CrashHarness

#: the pump rows: sessions of two redirectors, messages per session per cycle
PUMP_SESSIONS, PUMP_RUN = 8, 2
_PUMP_MCL = "main stream c%d{ streamlet r0, r1 = new-streamlet (redirector); connect (r0.po, r1.pi); }"


@dataclass
class DurabilityBenchResult:
    """One crash scenario, then one pump row per mode."""

    headers: list[str] = field(default_factory=lambda: [
        "mode", "cycles", "sent_total", "acked_total", "lost_acked", "balanced",
        "messages", "us_per_msg", "appends_per_msg", "fsyncs_per_msg",
    ])
    rows: list[dict] = field(default_factory=list)

    def print(self) -> None:
        """Print the crash scenarios as a fixed-width table."""
        print_series(
            "Durability: kill-9 crash/restart cycles",
            self.headers,
            [[row.get(h, "") for h in self.headers] for row in self.rows],
        )


def _run_crash(store_dir: Path, *, cycles: int, burst: int, seed: int) -> dict:
    """One seeded kill-9 scenario; hard-fails on any lost acked message."""
    harness = CrashHarness(store_dir / "crash", cycles=cycles, burst=burst, seed=seed)
    report = harness.run()
    if report.lost_acked:
        raise RuntimeError(
            f"durability violated: {report.lost_acked} acked messages lost "
            f"across {cycles} crash cycles ({report.describe()})"
        )
    if not report.balanced:
        raise RuntimeError(f"cross-crash conservation unbalanced: {report.describe()}")
    return {"mode": "crash_file", **report.describe()}


async def _bind(pump: EgressPump) -> None:
    pump.bind(asyncio.get_running_loop())


def _run_pump(wal: str | None, cycles: int) -> tuple[float, int, int]:
    """(CPU s, store appends, fsyncs) of ``cycles`` pump cycles, after a tenth as many.

    The pump cycles on a loop of its own, so the offers ``step`` makes
    inside one cycle's bridge all land in the next one.
    """
    store = open_store("file", wal) if wal else None
    ledger = Ledger(store) if store is not None else None
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="pump-row", daemon=True)
    thread.start()
    server, pump, done, runs, left = build_server(), EgressPump(), threading.Event(), [], [0]
    asyncio.run_coroutine_threadsafe(_bind(pump), loop).result()
    streams = [server.deploy_script(_PUMP_MCL % n) for n in range(PUMP_SESSIONS)]
    sessions = [GatewaySession(s.name, s, InlineScheduler(s), ledger=ledger, pump=pump) for s in streams]

    def step(frames=()) -> None:  # on the loop: once a cycle's frames are out, offer the next
        left[0] -= len(frames)
        if left[0] == 0 and not runs:
            done.set()
        elif left[0] == 0:
            left[0] = PUMP_SESSIONS * PUMP_RUN
            for session in sessions:
                session.offer(*runs.pop())

    def counts() -> tuple[float, int, int]:
        return time.process_time(), getattr(store, "appends", 0), getattr(store, "fsyncs", 0)

    pump.bridge = step
    for n in (cycles // 10, cycles):  # a warm-up, then the measured cycles
        runs[:] = [[MimeMessage("text/plain", b"x" * 256) for _ in range(PUMP_RUN)]
                   for _ in range(PUMP_SESSIONS * n)]
        before = counts()
        done.clear()
        pump.run(step)
        if not done.wait(60):
            raise RuntimeError(f"the pump row stalled with {left[0]} frames due")
    after = counts()
    for session in sessions:
        session.close()
    loop.call_soon_threadsafe(loop.stop)
    thread.join()
    loop.close()
    if ledger is not None:
        ledger.close()
    return tuple(b - a for a, b in zip(before, after))


def run_durability(*, quick: bool = False) -> DurabilityBenchResult:
    """The bench entry point: seeded crash cycles, then the in-process pump rows."""
    result = DurabilityBenchResult()
    cycles, rounds = (200, 3) if quick else (1000, 9)
    taken: dict[str, list] = {"pump_file": [], "pump_none": []}
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as tmp:
        result.rows.append(
            _run_crash(Path(tmp), cycles=5 if quick else 20, burst=32, seed=1234)
        )
        for n in range(rounds):  # alternate which mode runs first
            for mode in sorted(taken, reverse=n % 2 == 1):
                taken[mode].append(_run_pump(f"{tmp}/pump-{n}.wal" if mode == "pump_file" else None, cycles))
    messages = PUMP_SESSIONS * PUMP_RUN * cycles
    for mode, samples in taken.items():
        cpu, appends, fsyncs = (statistics.median(column) / messages for column in zip(*samples))
        result.rows.append({"mode": mode, "cycles": cycles, "messages": messages, "rounds": rounds,
                            "us_per_msg": cpu * 1e6, "appends_per_msg": appends, "fsyncs_per_msg": fsyncs})
    return result
