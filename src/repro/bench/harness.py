"""Shared experiment plumbing."""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.apps import build_server
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.server import MobiGateServer
from repro.runtime.stream import RuntimeStream
from repro.util.stats import RunningStats


#: explicit rendezvous channel for synchronously-coupled chains — the
#: shape fusable_chains fuses at snapshot build
_SYNC_CHANNEL_DEF = """channel benchSyncChan{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = SYNC; buffer = 0; }
}
"""


def redirector_chain_mcl(n: int, *, stream_name: str = "chain", sync: bool = False) -> str:
    """A stream of ``n`` redirectors in series (the §7.2/§7.4 fixture).

    ``sync=True`` couples every hop through an explicit SYNC channel
    (capacity-0 rendezvous) instead of the compiler's auto channels —
    the fusable shape used by the fusion bench and tests.
    """
    if n < 1:
        raise ValueError(f"chain needs at least one streamlet, got {n}")
    lines = [f"main stream {stream_name}{{"]
    names = [f"r{i}" for i in range(n)]
    lines.append(f"  streamlet {', '.join(names)} = new-streamlet (redirector);")
    if sync and n > 1:
        chans = [f"s{i}" for i in range(n - 1)]
        lines.append(f"  channel {', '.join(chans)} = new-channel (benchSyncChan);")
        for i, (a, b) in enumerate(zip(names, names[1:])):
            lines.append(f"  connect ({a}.po, {b}.pi, s{i});")
    else:
        for a, b in zip(names, names[1:]):
            lines.append(f"  connect ({a}.po, {b}.pi);")
    lines.append("}")
    body = "\n".join(lines)
    return _SYNC_CHANNEL_DEF + body if sync and n > 1 else body


def deploy_chain(
    n: int, *, sync: bool = False, **server_kwargs
) -> tuple[MobiGateServer, RuntimeStream, InlineScheduler]:
    """Deploy an n-redirector chain; returns (server, stream, scheduler)."""
    server = build_server(**server_kwargs)
    stream = server.deploy_script(redirector_chain_mcl(n, sync=sync))
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
