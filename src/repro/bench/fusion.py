"""Fusion ablation: the same synchronous chain, fused vs unfused.

At every snapshot build the runtime asks
:func:`repro.semantics.fusion.fusable_chains` of its topology value and
collapses each chain of synchronously-coupled streamlets into one
runtime node that steps the whole chain per dispatch, eliding every
interior rendezvous queue.  This
bench measures exactly that delta: an n-redirector chain wired through
explicit SYNC channels, driven closed-loop through the inline scheduler,
once with fusion enabled (the default) and once with ``fuse=False``.

Both runs must conserve every message; the fused run must additionally
report one fusion group spanning the whole chain.  The inline scheduler
hands each unfused hop's message straight to its consumer, so what the
static plan still buys here is the per-hop checks a hand-off makes (the
channel's counters, the consumer's state, the published snapshot).  The
committed ``BENCH_fusion.json`` feeds the same advisory
``flag_regressions`` path as the other targets (rows keyed by ``mode``,
throughput higher-is-better).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.apps import build_server
from repro.bench.harness import redirector_chain_mcl
from repro.bench.reporting import format_table
from repro.faults.invariant import check_conservation
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.telemetry import NULL_TELEMETRY


@dataclass
class FusionRow:
    """One (chain length, fuse on/off) measurement."""

    mode: str  # "fused-<n>" / "unfused-<n>" — the regression key
    chain: int
    fused: bool
    fusion_groups: int
    fused_span: int  # streamlets inside the largest group (0 unfused)
    throughput_msgs_per_sec: float
    elapsed_seconds: float
    delivered: int
    conserved: bool


@dataclass
class FusionResult:
    """Fused vs unfused on identical sync chains, plus the speedups."""

    n_messages: int
    burst: int
    rows: list[FusionRow]
    #: chain length -> fused/unfused throughput ratio
    speedups: dict[int, float]

    def print(self) -> None:
        """Print the ablation table and per-chain speedups."""
        print("\n== Fusion ablation: synchronous redirector chain, inline scheduler ==")
        print(f"   ({self.n_messages} messages, bursts of {self.burst})")
        print(format_table(
            ["mode", "chain", "groups", "span", "msgs/s", "delivered", "conserved"],
            [
                (
                    r.mode, r.chain, r.fusion_groups, r.fused_span,
                    r.throughput_msgs_per_sec, r.delivered, r.conserved,
                )
                for r in self.rows
            ],
        ))
        for chain, speedup in sorted(self.speedups.items()):
            print(f"   chain {chain}: fused is {speedup:.2f}x unfused")


def _run_mode(chain: int, *, fuse: bool, n_messages: int, burst: int) -> FusionRow:
    server = build_server(telemetry=NULL_TELEMETRY, fuse=fuse, drop_timeout=5.0)
    stream = server.deploy_script(redirector_chain_mcl(chain, sync=True))
    scheduler = InlineScheduler(stream)
    delivered = 0
    payload = b"x" * 64
    try:
        start = time.perf_counter()
        remaining = n_messages
        while remaining:
            # closed loop: a burst in, pump to completion, drain the egress
            for _ in range(min(burst, remaining)):
                stream.post(MimeMessage("text/plain", payload))
            remaining -= min(burst, remaining)
            scheduler.pump()
            delivered += len(stream.collect())
        elapsed = time.perf_counter() - start
        groups = stream.fusion_groups()
        report = check_conservation(stream)
    finally:
        stream.end()
    return FusionRow(
        mode=f"{'fused' if fuse else 'unfused'}-{chain}",
        chain=chain,
        fused=fuse,
        fusion_groups=len(groups),
        fused_span=max((len(g) for g in groups), default=0),
        throughput_msgs_per_sec=delivered / elapsed if elapsed > 0 else 0.0,
        elapsed_seconds=elapsed,
        delivered=delivered,
        conserved=report.balanced,
    )


def run_fusion(
    *,
    chains: tuple[int, ...] = (10, 30),
    n_messages: int = 3000,
    burst: int = 100,
) -> FusionResult:
    """Measure fused vs unfused throughput on each chain length."""
    rows: list[FusionRow] = []
    speedups: dict[int, float] = {}
    for chain in chains:
        # unfused first so the fused run never benefits from warm caches
        unfused = _run_mode(chain, fuse=False, n_messages=n_messages, burst=burst)
        fused = _run_mode(chain, fuse=True, n_messages=n_messages, burst=burst)
        rows.extend((unfused, fused))
        if unfused.throughput_msgs_per_sec > 0:
            speedups[chain] = (
                fused.throughput_msgs_per_sec / unfused.throughput_msgs_per_sec
            )
    return FusionResult(
        n_messages=n_messages, burst=burst, rows=rows, speedups=speedups
    )
