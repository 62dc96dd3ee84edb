"""The four workloads: what is deployed, what is sent, and why.

Every stream is built from ``redirector`` streamlets so an echo must equal
the frame that was sent, byte for byte.  The ``why`` sentences are the
ones ``BENCHMARK.json`` records; ``selftest.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


def _chain(name: str, n: int, *, fused_groups: int = 0) -> str:
    """``n`` redirectors in series; ``fused_groups`` > 0 joins them with SYNC
    channels inside each group and async auto channels between groups."""
    names = [f"r{i}" for i in range(n)]
    lines = [f"main stream {name}{{",
             f"  streamlet {', '.join(names)} = new-streamlet (redirector);"]
    group = n // fused_groups if fused_groups else 0
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


SMALL_ECHO_MCL = _chain("small_echo", 2)

# the compiler's default auto channel holds 100 KB and silently drops a
# 64 KB message once another is queued, so the hop is declared explicitly;
# 32 MB is more than the 256 frames a session admits, so it cannot overflow
# (a 4 MB channel dropped frames whenever a worker thread stalled 130 ms)
BULK_ECHO_MCL = """channel bulkChan{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = ASYNC; category = BK; buffer = 32768; }
}
main stream bulk_echo{
  streamlet r0, r1 = new-streamlet (redirector);
  channel c = new-channel (bulkChan);
  connect (r0.po, r1.pi, c);
}"""

DEEP_CHAIN_MCL = _chain("deep_chain", 24, fused_groups=4)

SESSION_CHURN_MCL = """main stream session_churn{
  streamlet r0, r1 = new-streamlet (redirector);
  streamlet relay = new-streamlet (redirector);
  connect (r0.po, r1.pi);
  when (LOW_BANDWIDTH){
    insert (r0.po, r1.pi, relay);
  }
  when (HIGH_BANDWIDTH){
    remove (relay);
  }
}"""

#: the events a churned session alternates between: each commits one epoch
CHURN_EVENTS = ("LOW_BANDWIDTH", "HIGH_BANDWIDTH")


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the composition it runs through."""

    name: str
    why: str
    mcl: str
    #: streamlets a message crosses (the divisor of per-hop figures)
    hops: int
    sessions: int
    payload_bytes: int
    #: closed loop: frames in flight per connection
    window: int
    #: open loop: frames per second over both connections
    rate: int
    #: gateway started with ``--store <tmp> --backend file``
    durable: bool = False
    #: seconds between control-plane ``reconfigure`` requests (0 = none)
    reconfigure_every: float = 0.0


WORKLOADS = (
    Workload(
        name="small_echo",
        why="bare forwarding at the smallest size, 1 session, 2 redirectors, 256 B: every "
            "per-message fixed cost (framing, admission, thread handoffs) with nothing to dilute it",
        mcl=SMALL_ECHO_MCL, hops=2, sessions=1, payload_bytes=256, window=16, rate=1000,
    ),
    Workload(
        name="bulk_echo",
        why="bytes, not messages: 64 KB frames through 2 redirectors over an explicit 32 MB "
            "channel; frame assembly, serialisation and socket copies are the cost, per byte",
        mcl=BULK_ECHO_MCL, hops=2, sessions=1, payload_bytes=65536, window=4, rate=500,
    ),
    Workload(
        name="deep_chain",
        why="24 redirectors as 4 fused groups of 6, 256 B: scheduler steps, queue hops and "
            "per-hop telemetry are two thirds of the CPU; minus small_echo isolates the runtime",
        mcl=DEEP_CHAIN_MCL, hops=24, sessions=1, payload_bytes=256, window=16, rate=500,
    ),
    Workload(
        name="session_churn",
        why="8 durable sessions of an adaptive stream, one reconfigure every 250 ms under "
            "traffic: snapshot writes beside reads, ledger appends, 8 pumps, 35 threads",
        mcl=SESSION_CHURN_MCL, hops=2, sessions=8, payload_bytes=256, window=16, rate=500,
        durable=True, reconfigure_every=0.25,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
