"""The layer walk: one thread pushes messages through each public call in turn.

The gateway process cannot say where its CPU goes without spans inside
``src/repro`` (a later issue).  What can be measured from here is what
each layer's public entry point costs when called alone: 2000 frames of
the workload's shape (in four rounds, see :class:`LayerWalk`) are pushed,
one at a time, through

    FrameAssembler.feed -> GatewaySession.offer            (a deployed session)
    RuntimeStream.post -> InlineScheduler.pump -> RuntimeStream.collect
        -> serialize_message                               (a bare stream)
    Ledger.counters -> Ledger.flush                        (durable workloads)

with a span ``(name, start, end, parent, seq, cpu)`` recorded around every
call under one root span per message (per pump batch for the ledger).  ``offer`` is walked on a session
deployed through ``GatewayServer.deploy``; the stream calls are walked on
a bare ``build_server().deploy_script`` stream driven by an
``InlineScheduler``, so no pump thread can take the message between
calls.  A layer's figure is the median *self CPU time* of its span: the
thread's CPU clock over the call, minus what child spans cover.

Importing this module imports ``repro``: the caller puts ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from repro.apps import build_server
from repro.gateway import GatewayServer
from repro.mime.wire import FrameAssembler, serialize_message
from repro.runtime.scheduler import InlineScheduler
from repro.store.base import open_store
from repro.store.ledger import Ledger
from repro.telemetry import NULL_TELEMETRY, Telemetry

import wire
from gateway_proc import SRC_DIR
from workloads import CHURN_EVENTS, Workload

MESSAGES = 2000
#: the walk is taken in this many rounds, spread over the traced pass
ROUNDS = 4
#: the data plane reads at most this much per ``reader.read``
READ_CHUNK = 64 * 1024

#: the calls the gateway makes for every message; their self times plus
#: ``gateway.handoff_us`` are the gateway's CPU per message
GATEWAY_PATH = (
    "mime.wire.feed", "gateway.session.offer", "runtime.scheduler.pump",
    "runtime.stream.collect", "mime.wire.serialize",
)
_STREAM_CALLS = ("runtime.stream.post", "runtime.scheduler.pump", "runtime.stream.collect")


class Spans:
    """Spans kept in memory; a span's id is its index."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def call(self, name: str, parent: int, seq: int, function, *args):
        """Run ``function(*args)`` inside a span and return its result."""
        start = time.perf_counter()
        cpu = time.thread_time()
        result = function(*args)
        cpu = time.thread_time() - cpu
        self.rows.append((name, start, time.perf_counter(), parent, seq, cpu))
        return result

    def open_root(self) -> int:
        """Reserve the id of a root span and start its clocks."""
        self.rows.append((time.perf_counter(), time.thread_time()))
        return len(self.rows) - 1

    def close_root(self, root: int, name: str, seq: int) -> None:
        start, cpu = self.rows[root]
        self.rows[root] = (
            name, start, time.perf_counter(), -1, seq, time.thread_time() - cpu
        )

    def self_cpu_us(self) -> dict[str, float]:
        """Median self CPU time per span name, in microseconds."""
        covered: dict[int, float] = defaultdict(float)
        for _name, _start, _end, parent, _seq, cpu in self.rows:
            if parent >= 0:
                covered[parent] += cpu
        by_name: dict[str, list[float]] = defaultdict(list)
        for index, (name, _start, _end, _parent, _seq, cpu) in enumerate(self.rows):
            by_name[name].append(cpu - covered.get(index, 0.0))
        return {name: statistics.median(v) * 1e6 for name, v in by_name.items()}

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"columns": ["name", "start", "end", "parent", "seq", "cpu"],
                 "spans": self.rows},
                handle,
            )


def _frames(workload: Workload, seed: int) -> list[bytes]:
    """Frames of the workload's shape, made by the generator's own framer."""
    rng = random.Random(seed)
    head = wire.frame_head("walk", workload.payload_bytes)
    tail = rng.randbytes(workload.payload_bytes - wire.SEQ_BYTES)
    return [wire.frame(head, seq, tail) for seq in range(MESSAGES)]


def _feed(assembler: FrameAssembler, data: bytes):
    messages = []
    for at in range(0, len(data), READ_CHUNK):
        messages += assembler.feed(data[at:at + READ_CHUNK])
    return messages


def _through_stream(spans: Spans, root: int, seq: int, stream, scheduler, message) -> bytes:
    """post -> pump -> collect -> serialize; returns the echoed wire frame."""
    spans.call("runtime.stream.post", root, seq, stream.post, message)
    spans.call("runtime.scheduler.pump", root, seq, scheduler.pump)
    (echo,) = spans.call("runtime.stream.collect", root, seq, stream.collect)
    return spans.call("mime.wire.serialize", root, seq, serialize_message, echo)


def _commit_seconds(workload: Workload, gateway: GatewayServer) -> list[float]:
    """``raise_event`` times on the (now idle) walked session, 6 a round."""
    commits = []
    for turn in range(6 if workload.reconfigure_every else 0):
        start = time.perf_counter()
        gateway.raise_event(CHURN_EVENTS[turn % 2], session_key="walk")
        commits.append(time.perf_counter() - start)
    return commits


def _setup_costs(workload: Workload) -> dict[str, float]:
    """compile, deploy and interpreter import: what ``setup_s`` is made of."""
    server = build_server(telemetry=NULL_TELEMETRY)
    compiles, deploys = [], []
    for turn in range(5):
        start = time.perf_counter()
        compiled = server.compile(workload.mcl)
        compiles.append(time.perf_counter() - start)
        table = compiled.main_table()
        table = replace(table, stream_name=f"{table.stream_name}~w{turn}")
        start = time.perf_counter()
        stream = server.deploy_table(table)
        deploys.append(time.perf_counter() - start)
        server.undeploy(stream.name)
    imports = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.gateway"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
        imports.append(time.perf_counter() - start)
    return {
        "mcl.compile_ms": statistics.median(compiles) * 1e3,
        "runtime.server.deploy_ms": statistics.median(deploys) * 1e3,
        "process.import_ms": statistics.median(imports) * 1e3,
    }


class LayerWalk:
    """The walk, taken in rounds spread over the traced pass.

    On this host the CPU time of identical code moves by half as much
    again from one few-second stretch to the next.  One two-second walk
    would carry whatever speed the host had just then, and would not
    reconcile with a gateway measured a little later; rounds taken before,
    between and after the gateway's phases see the same mix of speeds the
    gateway does.  Every round deploys its own session and streams and
    tears them down, so no idle worker thread of the walk shares the
    generator's interpreter while the gateway is being measured.
    """

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.frames = _frames(workload, seed)
        self.walked = 0
        self.spans = Spans()
        #: the stream calls again under NULL_TELEMETRY: the difference is its cost
        self.bare = Spans()
        self.commits: list[float] = []
        self.figures: dict[str, float] = {}

    def round(self, count: int) -> None:
        """Walk the next ``count`` frames through every layer."""
        workload, spans = self.workload, self.spans
        first = self.walked
        frames = self.frames[first:first + count]
        self.walked += len(frames)
        gateway = GatewayServer()  # never started: no sockets, no event loop
        session = gateway.deploy(workload.mcl, session_key="walk", scheduler="threaded")
        server = build_server(telemetry=Telemetry())
        stream = server.deploy_script(workload.mcl)
        bare_server = build_server(telemetry=NULL_TELEMETRY)
        bare_stream = bare_server.deploy_script(workload.mcl)
        try:
            scheduler, bare_scheduler = InlineScheduler(stream), InlineScheduler(bare_stream)
            socket_side, stream_side, bare_side = (FrameAssembler() for _ in range(3))
            checker = wire.Parser()
            for seq, data in enumerate(frames, first):
                root = spans.open_root()
                (message,) = spans.call("mime.wire.feed", root, seq, _feed, socket_side, data)
                spans.call("gateway.session.offer", root, seq, session.offer, message)
                while session.resident:  # the session's workers finish outside any span
                    time.sleep(0)
                (message,) = _feed(stream_side, data)
                out = _through_stream(spans, root, seq, stream, scheduler, message)
                ((_head, body),) = checker.feed(out)
                if body != data[-workload.payload_bytes:]:
                    raise RuntimeError(f"layer walk: echo {seq} differs from its frame")
                spans.close_root(root, "message", seq)
                (message,) = _feed(bare_side, data)
                _through_stream(self.bare, -1, seq, bare_stream, bare_scheduler, message)
            self.figures["runtime.stream.fusion_groups"] = float(len(stream.fusion_groups()))
            self.commits += _commit_seconds(workload, gateway)
        finally:
            gateway.undeploy("walk", record=False)
            server.undeploy(stream.name)
            bare_server.undeploy(bare_stream.name)
        if workload.durable:
            self._ledger_round(first, len(frames))

    def _ledger_round(self, first: int, count: int) -> None:
        """counters -> flush, once per pump batch as the gateway does.  Its own
        loop: an fsync leaves the caches cold for whatever is timed next."""
        wal = self.scratch / "walk.wal"
        ledger = Ledger(open_store("file", str(wal), fsync="batch"))
        try:
            ledger.deployed("walk", mcl=self.workload.mcl, scheduler="threaded")
            before = wal.stat().st_size
            for batch in range(first, first + count):
                root = self.spans.open_root()
                self.spans.call("store.ledger.append", root, batch,
                                lambda: ledger.counters("walk", admitted=1, delivered=1))
                self.spans.call("store.ledger.flush", root, batch, ledger.flush)
                self.spans.close_root(root, "pump_batch", batch)
            self.figures["store.ledger.walk_bytes_per_append"] = (
                (wal.stat().st_size - before) / count
            )
        finally:
            ledger.close()
            wal.unlink()

    def finish(self, spans_path: Path) -> dict[str, float]:
        """Dump the spans; return the walk's per-layer figures.

        They are µs of self CPU per message unless the name says otherwise.
        ``store.ledger.walk_bytes_per_append`` is what one ``counters``
        record adds to a file WAL, so the caller can turn the gateway's
        ledger growth into appends per message.
        """
        self.spans.dump(spans_path)
        self_us, bare_us = self.spans.self_cpu_us(), self.bare.self_cpu_us()
        figures = dict(self.figures)
        figures["runtime.reconfig.commit_ms"] = (
            statistics.median(self.commits) * 1e3 if self.commits else 0.0
        )
        for name in GATEWAY_PATH + (
            "runtime.stream.post", "store.ledger.append", "store.ledger.flush"
        ):
            figures[f"{name}_us"] = self_us.get(name, 0.0)
        hops = self.workload.hops
        figures["runtime.scheduler.step_us_per_hop"] = self_us["runtime.scheduler.pump"] / hops
        figures["telemetry.hop_overhead_us"] = (
            sum(self_us[name] - bare_us[name] for name in _STREAM_CALLS) / hops
        )
        figures.update(_setup_costs(self.workload))
        return figures
