"""Calls per message, per layer: a cost figure that host noise cannot move.

CPU time per message on a shared host moves by tens of percent between
identical runs, too much to judge a change of 5-10 %.  The number of
calls a message costs does not move: this census pushes frames of two
``bench_e2e`` workloads through ``feed -> post -> pump -> collect ->
serialize_message`` in-process, with telemetry on, and counts with
``sys.setprofile`` every call made *from* a frame of the ``repro``
package — Python functions and C functions alike.  Calls made from the
standard library or from this file are not counted, which keeps the
figure a property of this code rather than of the interpreter's own
helpers.  Frames reach ``FrameAssembler.feed`` :data:`READ_FRAMES` to a
chunk, as a closed-loop client's window arrives in one socket read.

Each layer's count per message must stay at most its bound.  A change
that lowers a count lowers the bound with it (``docs/performance.md``
quotes both), so a bound only ever tightens.  :func:`calls` counts the
same way around any one call; ``tests/bench/test_paper_claims.py``
gates the paper's figures and ablations with it.

Run this file as a script to print the census::

    PYTHONPATH=src python tests/runtime/test_call_census.py
"""

from __future__ import annotations

import gc
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.apps import build_server
from repro.mime.wire import FrameAssembler, serialize_message
from repro.runtime.scheduler import InlineScheduler
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry

MESSAGES = 500
#: uncounted messages first: lazy imports and first-use caches settle
WARMUP = 64
PAYLOAD_BYTES = 256
REPRO_DIR = str(Path(repro.__file__).resolve().parent)
LAYERS = ("feed", "post", "pump", "collect", "serialize")
#: frames per chunk fed: what one read of a closed-loop window carries
READ_FRAMES = 12


def chain(name: str, n: int, *, sync_groups: int = 0) -> str:
    """``n`` redirectors in series, as ``bench_e2e/workloads.py`` builds them:
    ``sync_groups`` > 0 joins each group with SYNC channels."""
    names = [f"r{i}" for i in range(n)]
    lines = [f"main stream {name}{{",
             f"  streamlet {', '.join(names)} = new-streamlet (redirector);"]
    group = n // sync_groups if sync_groups else 0
    sync = [i for i in range(n - 1) if group and (i + 1) % group]
    if sync:
        lines.append(
            f"  channel {', '.join(f's{i}' for i in sync)} = new-channel (syncChan);"
        )
    for i in range(n - 1):
        via = f", s{i}" if i in sync else ""
        lines.append(f"  connect (r{i}.po, r{i + 1}.pi{via});")
    lines.append("}")
    prelude = (
        "channel syncChan{\n"
        "  port{ in cin : */*; out cout : */*; }\n"
        "  attribute{ type = SYNC; buffer = 0; }\n"
        "}\n"
    ) if sync else ""
    return prelude + "\n".join(lines)


WORKLOADS = {
    "small_echo": chain("small_echo", 2),
    "deep_chain": chain("deep_chain", 24, sync_groups=4),
}

#: ``deep_chain`` with every channel an asynchronous auto channel: the
#: Figure 7-2 slope must not depend on the channels' coupling
ASYNC_DEEP_CHAIN = chain("deep_chain", 24)

#: calls per message per layer, at most: the measured census rounded up to
#: a whole call (the measured values are in docs/performance.md)
BOUNDS = {
    "small_echo": {"feed": 19, "post": 27, "pump": 53, "collect": 19, "serialize": 12},
    "deep_chain": {"feed": 19, "post": 27, "pump": 289, "collect": 19, "serialize": 12},
}


def _body(seq: int) -> bytes:
    return seq.to_bytes(8, "big") + bytes(PAYLOAD_BYTES - 8)


def _frame(seq: int) -> bytes:
    head = (
        "Content-Type: application/octet-stream\n"
        "Content-Session: census\n"
        f"Content-Length: {PAYLOAD_BYTES}\n\n"
    )
    return head.encode("ascii") + _body(seq)


class _Profiler:
    """A ``sys.setprofile`` hook tallying calls by the caller's source file."""

    def __init__(self) -> None:
        self.by_file: Counter[str] = Counter()

    def __call__(self, frame, event: str, _arg) -> None:
        if event == "call":
            frame = frame.f_back  # a Python call: count it against its caller
            if frame is None:
                return
        elif event != "c_call":
            return
        filename = frame.f_code.co_filename
        if filename.startswith(REPRO_DIR):
            self.by_file[filename] += 1


def calls(function, *args) -> int:
    """The calls ``repro`` frames make while ``function(*args)`` runs."""
    profiler = _Profiler()
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection would run finalizers inside a counted call
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return sum(profiler.by_file.values())


def census(mcl: str, messages: int = MESSAGES) -> dict:
    """Calls per message, by layer and by the calling ``repro`` package."""
    server = build_server(telemetry=Telemetry(registry=MetricsRegistry()))
    stream = server.deploy_script(mcl)
    scheduler = InlineScheduler(stream)
    assembler = FrameAssembler()
    total = WARMUP + messages
    reads = [b"".join(_frame(s) for s in range(WARMUP))]  # the uncounted read
    reads += [
        b"".join(_frame(s) for s in range(at, min(at + READ_FRAMES, total)))
        for at in range(WARMUP, total, READ_FRAMES)
    ]
    profilers = {layer: _Profiler() for layer in LAYERS}

    def step(layer: str, function, *args):
        if profiled:
            sys.setprofile(profilers[layer])
        try:
            return function(*args)
        finally:
            sys.setprofile(None)

    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection would run finalizers inside a counted call
    seq = 0
    try:
        for read in reads:
            profiled = seq >= WARMUP
            for message in step("feed", assembler.feed, read):
                step("post", stream.post, message)
                step("pump", scheduler.pump)
                (echo,) = step("collect", stream.collect)
                step("serialize", serialize_message, echo)
                assert echo.body == _body(seq), f"echo {seq} differs from its frame"
                seq += 1
        assert seq == total
    finally:
        if gc_was_enabled:
            gc.enable()
        server.undeploy(stream.name)
    packages: Counter[str] = Counter()
    for profiler in profilers.values():
        for filename, calls in profiler.by_file.items():
            package = Path(filename).relative_to(REPRO_DIR).parts[0].removesuffix(".py")
            packages[package] += calls
    layers = {layer: sum(p.by_file.values()) / messages for layer, p in profilers.items()}
    return {
        "layers": layers,
        "total": sum(layers.values()),
        "packages": {k: v / messages for k, v in sorted(packages.items())},
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_calls_per_message_stay_within_their_bounds(workload):
    seen = census(WORKLOADS[workload])
    over = {
        layer: (calls, BOUNDS[workload][layer])
        for layer, calls in seen["layers"].items()
        if calls > BOUNDS[workload][layer]
    }
    assert not over, f"{workload}: calls per message above the bound: {over}"


def test_a_sync_chain_costs_what_an_async_one_does():
    sync, async_ = census(WORKLOADS["deep_chain"], 100), census(ASYNC_DEEP_CHAIN, 100)
    assert async_["layers"]["pump"] <= sync["layers"]["pump"] * 1.05, (async_, sync)
    assert sync["layers"]["pump"] <= async_["layers"]["pump"] * 1.05, (sync, async_)


def test_the_census_is_the_same_every_time():
    assert census(WORKLOADS["small_echo"], 100) == census(WORKLOADS["small_echo"], 100)


if __name__ == "__main__":
    workloads = {**WORKLOADS, "deep_chain_async": ASYNC_DEEP_CHAIN}
    print(json.dumps({name: census(mcl) for name, mcl in workloads.items()}, indent=2))
