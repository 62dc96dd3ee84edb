"""Reconfiguration bench: transactional commit and rollback cost.

Drives the §7.2 redirector chain with messages parked mid-flight, then
measures the two paths of the transactional reconfiguration engine
(:mod:`repro.runtime.reconfig`):

* **commit** — fold + validate + quiesce + splice an extra redirector
  into the middle link, bumping the stream epoch;
* **rollback** — a batch whose second action is structurally illegal
  (connecting into an occupied port), committed with validation off so
  the fold refuses it at that action and the prior topology is kept.

After both, the stream is pumped dry and the §7.2 conservation invariant
is re-checked *across the epoch transition*: every message posted before
the swap must still be delivered exactly once after it.  Virtual-timed
and deterministic; the latency columns are the only wall-clock figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.harness import deploy_chain
from repro.errors import ReconfigAbortedError
from repro.faults.invariant import check_conservation
from repro.mcl import astnodes as ast
from repro.mime.message import MimeMessage
from repro.runtime.reconfig import ReconfigTransaction
from repro.telemetry import NULL_TELEMETRY
from repro.util.clock import VirtualClock


@dataclass
class ReconfigRow:
    """One chain-length point."""

    chain_length: int
    in_flight: int
    commit_ms: float
    rollback_ms: float
    delivered: int
    epoch: int
    conserved: bool
    topology_restored: bool


@dataclass
class ReconfigBenchResult:
    """Commit/rollback cost across chain lengths."""

    n_messages: int
    rows: list[ReconfigRow]

    def print(self) -> None:
        """Print the reconfiguration-cost table."""
        print("\n== Reconfiguration: transactional commit / rollback cost ==")
        print(f"messages in flight per swap: posted={self.n_messages} (virtual time)")
        print(f"{'chain':>6} {'inflight':>9} {'commit_ms':>10} {'rollback_ms':>12} "
              f"{'deliv':>6} {'epoch':>6} {'conserved':>10} {'restored':>9}")
        for row in self.rows:
            print(
                f"{row.chain_length:6d} {row.in_flight:9d} {row.commit_ms:10.3f} "
                f"{row.rollback_ms:12.3f} {row.delivered:6d} {row.epoch:6d} "
                f"{'yes' if row.conserved else 'NO':>10} "
                f"{'yes' if row.topology_restored else 'NO':>9}"
            )


def _fingerprint(table) -> tuple:
    """A comparable structural digest of a configuration table."""
    return (
        sorted((n, d.name) for n, d in table.instances.items()),
        sorted(table.channels),
        sorted(str(link) for link in table.links),
        tuple(str(r) for r in table.exposed_in),
        tuple(str(r) for r in table.exposed_out),
    )


def _in_flight(stream) -> int:
    seen: set[int] = set()
    total = 0
    for node in stream._nodes.values():
        for channel in list(node.inputs.values()) + list(node.outputs.values()):
            if id(channel) not in seen:
                seen.add(id(channel))
                total += channel.pending()
    return total


def run_reconfig(
    chain_lengths: tuple[int, ...] = (5, 10, 20),
    *,
    n_messages: int = 50,
) -> ReconfigBenchResult:
    """Measure commit and rollback latency with messages in flight."""
    rows: list[ReconfigRow] = []
    for n in chain_lengths:
        clock = VirtualClock()
        _server, stream, scheduler = deploy_chain(
            n, clock=clock, telemetry=NULL_TELEMETRY
        )
        for i in range(n_messages):
            stream.post(MimeMessage("text/plain", f"m{i}".encode()))
        in_flight = _in_flight(stream)
        mid = n // 2

        # the commit path: splice an extra redirector into the middle link
        commit_txn = ReconfigTransaction(stream, label="bench-commit")
        commit_txn.stage(
            ast.NewInstances("streamlet", ("bench_extra",), "redirector"),
            ast.Insert(
                ast.PortRef(f"r{mid - 1}" if mid > 0 else "r0", "po"),
                ast.PortRef(f"r{mid}" if mid > 0 else "r1", "pi"),
                "bench_extra",
            ),
        )
        t0 = time.perf_counter()
        commit_txn.execute()
        commit_ms = (time.perf_counter() - t0) * 1000

        # the rollback path: the fold's second action hits an occupied port
        before = _fingerprint(stream.snapshot_table())
        rollback_txn = ReconfigTransaction(stream, label="bench-rollback")
        rollback_txn.stage(
            ast.NewInstances("streamlet", ("bench_bad",), "redirector"),
            ast.Connect(ast.PortRef("bench_bad", "po"), ast.PortRef("r1", "pi")),
        )
        t0 = time.perf_counter()
        try:
            rollback_txn.commit(validate=False)
            rollback_ms = float("nan")  # should be unreachable
        except ReconfigAbortedError:
            rollback_ms = (time.perf_counter() - t0) * 1000
        restored = _fingerprint(stream.snapshot_table()) == before

        scheduler.pump()
        delivered = len(stream.collect())
        report = check_conservation(stream)
        rows.append(ReconfigRow(
            chain_length=n,
            in_flight=in_flight,
            commit_ms=commit_ms,
            rollback_ms=rollback_ms,
            delivered=delivered,
            epoch=stream.epoch,
            conserved=report.balanced and report.lost == 0,
            topology_restored=restored,
        ))
        stream.end()
    return ReconfigBenchResult(n_messages=n_messages, rows=rows)
