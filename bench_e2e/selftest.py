"""The harness checks itself: stdlib and the harness only, under 10 seconds.

    python3 bench_e2e/selftest.py

* the verifier, pointed at a deliberately faulty echo server, flags a
  lost, a duplicated, a corrupted and a cross-connection echo — and
  nothing else;
* scored-segment selection keeps the low-steal half and falls back to
  every segment when the host reports no steal;
* every workload and metric name the harness emits is the one
  ``BENCHMARK.json`` declares, and fits the contract's naming rule.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys

import metrics
import scoring
import wire
from gateway_proc import REPO_ROOT
from loadgen import CONNECTIONS, LoadGenerator, Segment
from workloads import WORKLOADS

LOST, DUPLICATED, CORRUPTED, CROSSED = 3, 5, 7, 9
NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FaultyEcho:
    """Echoes every frame, except the four sequence numbers it mistreats."""

    def __init__(self) -> None:
        self.writers: list[asyncio.StreamWriter] = []
        self.hung_up = 0

    async def serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.writers.append(writer)
        parser = wire.Parser()
        while data := await reader.read(65536):
            for head, body in parser.feed(data):
                seq = int.from_bytes(body[:wire.SEQ_BYTES], "big")
                echo = wire.frame_head(head["content-session"], len(body)) + body
                if seq == LOST:
                    continue
                if seq == CORRUPTED:
                    echo = echo[:-1] + bytes([echo[-1] ^ 0xFF])
                if seq == CROSSED:
                    other = next(w for w in self.writers if w is not writer)
                    other.write(echo)
                    continue
                writer.write(echo)
                if seq == DUPLICATED:
                    writer.write(echo)
        writer.close()
        self.hung_up += 1


async def check_verifier() -> None:
    echo = FaultyEcho()
    server = await asyncio.start_server(echo.serve, "127.0.0.1", 0)
    generator = LoadGenerator(seed=7, sessions=["a", "b"], payload_bytes=64)
    await generator.connect(server.sockets[0].getsockname()[:2], os.getpgrp())
    while len(echo.writers) < CONNECTIONS:
        await asyncio.sleep(0.01)
    await generator.closed_loop(4, 3, 0.1)
    await generator.settle()  # waits out the echo timeout of the lost frames
    generator.close()
    while echo.hung_up < CONNECTIONS:
        await asyncio.sleep(0.01)
    server.close()
    await server.wait_closed()
    seen = {
        # the crossed frame is also lost on the connection that sent it
        "lost": (generator.lost, 2),
        "duplicated": (generator.duplicated, 1),
        "corrupted": (generator.corrupted, 1),
        "misrouted": (generator.misrouted, 1),
        "failed": (generator.failed, 5),
        "verified": (generator.verified, generator.sent - 3),
    }
    wrong = {name: pair for name, pair in seen.items() if pair[0] != pair[1]}
    assert not wrong, f"verifier (seen, expected): {wrong}"
    assert generator.sent > 50, "the closed loop stalled on a fault"


def check_scoring() -> None:
    assert scoring.scored_indices([5, 0, 9, 1, 7, 2]) == [1, 3, 5]
    assert scoring.scored_indices([3, 1, 1, 1, 3]) == [1, 2, 3], "ties keep the earlier"
    assert scoring.scored_indices([0, 0, 0, 0]) == [0, 1, 2, 3], "no steal: score all"
    calm = Segment(seconds=0.5, verified=1000, gateway_cpu_s=0.4, host_ticks=100)
    stolen = Segment(seconds=0.5, verified=500, gateway_cpu_s=0.3, host_ticks=100, steal_ticks=20)
    assert scoring.throughput_msgs_s(calm) == scoring.raw_throughput_msgs_s(calm) == 2000.0
    assert scoring.cpu_us_per_msg(calm) == scoring.raw_cpu_us_per_msg(calm) == 400.0
    assert scoring.throughput_msgs_s(stolen) > scoring.raw_throughput_msgs_s(stolen)
    assert scoring.cpu_us_per_msg(stolen) < scoring.raw_cpu_us_per_msg(stolen)
    assert scoring.percentile(list(range(1000)), 0.99) == 990


def check_names() -> None:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    declared = {w["name"]: w["why"] for w in contract["workloads"]}
    assert declared == {w.name: w.why for w in WORKLOADS}, "workloads differ from BENCHMARK.json"
    for section, emitted in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        units = {row["name"]: row["unit"] for row in contract[section]}
        assert units == emitted, f"{section} differs: {set(units.items()) ^ set(emitted.items())}"
    for name in [*declared, *metrics.END_TO_END, *metrics.PER_LAYER]:
        assert NAME_RULE.fullmatch(name), f"{name!r} breaks the naming rule"
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER), "a name is used twice"


def main() -> int:
    asyncio.run(check_verifier())
    check_scoring()
    check_names()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
