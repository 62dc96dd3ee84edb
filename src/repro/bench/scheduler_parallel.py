"""Scheduler-parallelism bench: what does a thread per streamlet cost?

Drives a 4-stage chain of CPU-bearing streamlets (each stage runs
SHA-256 over a 64 KB expansion of an 8192 B payload — CPython releases
the GIL for hashing, so stages overlap on multi-core hosts) through the
two engines on the same host:

* ``inline`` — the deterministic single-threaded pump (the floor);
* ``threaded`` — the event-driven, snapshot-reading
  :class:`~repro.runtime.scheduler.ThreadedScheduler`.

The drive is **closed-loop**: a small window of messages is kept in
flight, each delivery immediately replaced — the traffic shape of an
interactive proxy session, where a worker's wakeup latency is paid once
per hop per message.  The event-driven engine is signalled by the post
itself.  (On a multi-core host the GIL-releasing hash work adds genuine
stage overlap on top; the wakeup path needs no cores at all.)

Besides throughput, each engine run is checked against the message-
conservation invariant (a racy scheduler loses or double-counts ids long
before it gets slow), and an idle window after the traffic measures
wakeups-per-second per worker — the event-driven engine's residual
heartbeat.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

from repro.apps import build_server
from repro.faults.invariant import check_conservation
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler, ThreadedScheduler
from repro.runtime.stream import RuntimeStream
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext
from repro.telemetry import NULL_TELEMETRY

HASHER_DEF = ast.StreamletDef(
    name="bench_hasher",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
    ),
    kind=ast.StreamletKind.STATELESS,
    library="bench/hasher",
    description="SHA-256 grind per message; GIL-releasing CPU load",
)


class Hasher(Streamlet):
    """Hash a 64 KB expansion of the payload ``rounds`` times, forward it.

    ``hashlib`` drops the GIL for buffers larger than 2047 bytes, so a
    chain of these is the closest a pure-Python streamlet gets to real
    CPU-parallel work.
    """

    #: overridable via ctx.params["hash_rounds"] (the §8.2.1 control path)
    rounds = 3

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        block = message.body * 8  # ~64 KB of GIL-free work per round
        rounds = int(ctx.params.get("hash_rounds", self.rounds))
        digest = b""
        for _ in range(rounds):
            h = hashlib.sha256(block)
            h.update(digest)
            digest = h.digest()
        return [("po", message)]


def _chain_mcl(stages: int) -> str:
    names = [f"h{i}" for i in range(stages)]
    lines = ["main stream parbench{"]
    lines.append(f"  streamlet {', '.join(names)} = new-streamlet (bench_hasher);")
    for a, b in zip(names, names[1:]):
        lines.append(f"  connect ({a}.po, {b}.pi);")
    lines.append("}")
    return "\n".join(lines)


def _deploy(stages: int, hash_rounds: int) -> RuntimeStream:
    server = build_server(telemetry=NULL_TELEMETRY, drop_timeout=5.0)
    server.directory.advertise(HASHER_DEF, Hasher, replace=True)
    stream = server.deploy_script(_chain_mcl(stages))
    for i in range(stages):
        stream.set_param(f"h{i}", "hash_rounds", hash_rounds)
    return stream


@dataclass
class EngineRow:
    """One engine's throughput + integrity figures."""

    engine: str
    wall_seconds: float
    throughput_msgs_per_sec: float
    delivered: int
    conserved: bool
    #: idle wakeups per worker per second, measured over a quiet window
    #: after the traffic (None for the inline engine, which has no workers)
    idle_wakeups_per_worker_per_sec: float | None


@dataclass
class SchedulerParallelResult:
    """Inline vs event-driven threaded, same host, same chain."""

    stages: int
    n_messages: int
    payload_bytes: int
    hash_rounds: int
    window: int
    idle_window_seconds: float
    rows: list[EngineRow]
    #: the event-driven ThreadedScheduler over the inline floor
    speedup_vs_inline: float

    def print(self) -> None:
        """Print the engine comparison table."""
        print("\n== Scheduler parallelism: 4-stage CPU chain, two engines ==")
        print(
            f"stages={self.stages}, messages={self.n_messages}, "
            f"payload={self.payload_bytes}B, hash_rounds={self.hash_rounds}, "
            f"window={self.window} (closed loop)"
        )
        print(f"{'engine':>16} {'wall_s':>8} {'msg/s':>9} {'deliv':>6} "
              f"{'conserved':>10} {'idle wk/s':>10}")
        for row in self.rows:
            idle = (
                f"{row.idle_wakeups_per_worker_per_sec:.1f}"
                if row.idle_wakeups_per_worker_per_sec is not None else "-"
            )
            print(
                f"{row.engine:>16} {row.wall_seconds:8.3f} "
                f"{row.throughput_msgs_per_sec:9.1f} {row.delivered:6d} "
                f"{'yes' if row.conserved else 'NO':>10} {idle:>10}"
            )
        print(f"threaded speedup: {self.speedup_vs_inline:.2f}x vs inline")


def _closed_loop_inline(
    stream: RuntimeStream, scheduler: InlineScheduler,
    n_messages: int, payload: bytes, window: int,
) -> tuple[float, int]:
    posted = delivered = 0
    start = time.perf_counter()
    while posted < min(window, n_messages):
        stream.post(MimeMessage("application/octet-stream", payload))
        posted += 1
    while delivered < n_messages:
        scheduler.pump()
        got = stream.collect()
        if not got:
            break  # nothing moves and nothing arrived: bail out
        delivered += len(got)
        while posted < min(delivered + window, n_messages):
            stream.post(MimeMessage("application/octet-stream", payload))
            posted += 1
    return time.perf_counter() - start, delivered


def _closed_loop_threaded(
    stream: RuntimeStream, n_messages: int, payload: bytes, window: int,
) -> tuple[float, int]:
    # the collector blocks on the egress queue's waiter event, so the
    # harness adds no polling latency of its own to the engine's
    egress_queue = stream.egress[0][1].queue
    arrived = threading.Event()
    egress_queue.add_waiter(arrived)
    try:
        posted = delivered = 0
        start = time.perf_counter()
        deadline = start + 120.0
        while posted < min(window, n_messages):
            stream.post(MimeMessage("application/octet-stream", payload))
            posted += 1
        while delivered < n_messages and time.perf_counter() < deadline:
            arrived.wait(0.05)
            arrived.clear()
            got = stream.collect()
            delivered += len(got)
            while posted < min(delivered + window, n_messages):
                stream.post(MimeMessage("application/octet-stream", payload))
                posted += 1
        return time.perf_counter() - start, delivered
    finally:
        egress_queue.remove_waiter(arrived)


def _run_engine(
    engine: str, stages: int, n_messages: int, payload: bytes,
    hash_rounds: int, window: int, idle_window: float,
) -> EngineRow:
    stream = _deploy(stages, hash_rounds)
    idle_rate: float | None = None
    try:
        if engine == "inline":
            scheduler = InlineScheduler(stream)
            wall, delivered = _closed_loop_inline(
                stream, scheduler, n_messages, payload, window
            )
        else:
            scheduler = ThreadedScheduler(stream)
            scheduler.start()
            wall, delivered = _closed_loop_threaded(
                stream, n_messages, payload, window
            )
            # idle window: workers should now be event-blocked, not polling
            before = scheduler.idle_spins + scheduler.event_wakeups
            time.sleep(idle_window)
            wakeups = (scheduler.idle_spins + scheduler.event_wakeups) - before
            idle_rate = wakeups / stages / idle_window
            scheduler.stop()
        report = check_conservation(stream)
        return EngineRow(
            engine=engine,
            wall_seconds=wall,
            throughput_msgs_per_sec=n_messages / wall if wall > 0 else float("inf"),
            delivered=delivered,
            conserved=report.balanced and delivered == n_messages,
            idle_wakeups_per_worker_per_sec=idle_rate,
        )
    finally:
        stream.end()


def run_scheduler_parallel(
    *,
    stages: int = 4,
    n_messages: int = 400,
    payload_bytes: int = 8 * 1024,
    hash_rounds: int = 3,
    window: int = 1,
    idle_window: float = 0.4,
) -> SchedulerParallelResult:
    """Measure both engines on an identical CPU-bearing chain."""
    payload = b"\xa5" * payload_bytes
    rows = [
        _run_engine(
            engine, stages, n_messages, payload, hash_rounds, window, idle_window
        )
        for engine in ("inline", "threaded")
    ]
    inline, threaded = rows
    return SchedulerParallelResult(
        stages=stages,
        n_messages=n_messages,
        payload_bytes=payload_bytes,
        hash_rounds=hash_rounds,
        window=window,
        idle_window_seconds=idle_window,
        rows=rows,
        speedup_vs_inline=(
            threaded.throughput_msgs_per_sec / inline.throughput_msgs_per_sec
        ),
    )
