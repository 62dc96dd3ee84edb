"""Shared experiment plumbing."""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.apps import build_server
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.server import MobiGateServer
from repro.runtime.stream import RuntimeStream
from repro.util.stats import RunningStats


def redirector_chain_mcl(n: int, *, stream_name: str = "chain") -> str:
    """A stream of ``n`` redirectors in series (the §7.2/§7.4 fixture)."""
    if n < 1:
        raise ValueError(f"chain needs at least one streamlet, got {n}")
    names = [f"r{i}" for i in range(n)]
    lines = [
        f"main stream {stream_name}{{",
        f"  streamlet {', '.join(names)} = new-streamlet (redirector);",
    ]
    for a, b in zip(names, names[1:]):
        lines.append(f"  connect ({a}.po, {b}.pi);")
    lines.append("}")
    return "\n".join(lines)


def deploy_chain(
    n: int, **server_kwargs
) -> tuple[MobiGateServer, RuntimeStream, InlineScheduler]:
    """Deploy an n-redirector chain; returns (server, stream, scheduler)."""
    server = build_server(**server_kwargs)
    stream = server.deploy_script(redirector_chain_mcl(n))
    return server, stream, InlineScheduler(stream)


def time_repeated(fn: Callable[[], None], *, repeats: int, warmup: int = 1) -> RunningStats:
    """Wall-time ``fn`` ``repeats`` times after ``warmup`` unmeasured calls."""
    for _ in range(warmup):
        fn()
    stats = RunningStats()
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        stats.add(time.perf_counter() - start)
    return stats
