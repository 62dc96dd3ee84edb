"""Durability bench: what the write-ahead ledger costs, and what it saves.

Two halves, matching the acceptance criteria of the durable state plane:

* **overhead** — the gateway loopback workload (closed-loop TCP clients
  through a redirector chain, as in :mod:`repro.bench.gateway`) run with
  the ledger off, then over the in-memory and the file store.  The
  file row carries ``overhead_pct`` vs the in-memory backend; the
  budget is **< 10 %** for the WAL (advisory, like every
  baseline comparison — hosts differ, CI surfaces it, a human judges).
* **crash cycles** — the :class:`repro.store.crash.CrashHarness` drives
  seeded kill-9/restart cycles against a subprocess gateway.  These
  rows are *hard* assertions, not advisories: ``lost_acked`` must be 0
  (every acknowledged message survives in the folded ledger) and the
  cross-crash conservation equation must balance.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.gateway import _drive_clients, _ensure_fd_headroom, _FD_SLACK, _percentile
from repro.bench.harness import redirector_chain_mcl
from repro.bench.reporting import print_series
from repro.gateway import GatewayConfig, GatewayServer
from repro.store.crash import CrashHarness


@dataclass
class DurabilityBenchResult:
    """One mode (or crash scenario) per row; ``flag_regressions`` shape."""

    headers: list[str] = field(default_factory=lambda: [
        "mode", "clients", "messages", "throughput_msgs_per_sec",
        "p99_ms", "overhead_pct", "lost_acked", "balanced",
    ])
    rows: list[dict] = field(default_factory=list)

    def print(self) -> None:
        """Print the modes and crash scenarios as a fixed-width table."""
        print_series(
            "Durability: ledger overhead + kill-9 crash/restart cycles",
            self.headers,
            [[row.get(h) for h in self.headers] for row in self.rows],
        )


def _run_mode(
    mode: str,
    store_dir: Path,
    *,
    n_clients: int,
    messages_per_client: int,
    payload_bytes: int = 256,
    repeats: int = 1,
) -> dict:
    """Loopback throughput with the given ledger mode; best of ``repeats``."""
    available = _ensure_fd_headroom(2 * n_clients + _FD_SLACK)
    usable = max(1, (available - _FD_SLACK) // 2)
    n_clients = min(n_clients, usable)
    if mode == "none":
        backend, path = None, None
    elif mode == "memory":
        backend, path = "memory", None
    else:
        backend = mode
        path = str(store_dir / f"bench-{mode}.ledger")
    config = GatewayConfig(
        session_ingress_limit=max(2 * n_clients, 256),
        park_timeout=5.0,
        store_backend=backend,
        store_path=path,
    )
    gateway = GatewayServer(config=config)
    with gateway.run_in_thread() as handle:
        deployed = handle.control({
            "op": "deploy",
            "mcl": redirector_chain_mcl(2),
            "scheduler": "threaded",
        })
        if not deployed.get("ok"):
            raise RuntimeError(f"gateway deploy failed: {deployed}")
        key = deployed["session"]
        # best-of-N damps scheduler noise, which on loopback dwarfs the
        # ledger cost this bench is trying to isolate
        wall, latencies = None, None
        for _ in range(max(1, repeats)):
            run_wall, run_latencies = asyncio.run(
                _drive_clients(
                    handle.data_address,
                    key,
                    n_clients,
                    messages_per_client,
                    b"x" * payload_bytes,
                )
            )
            if wall is None or run_wall < wall:
                wall, latencies = run_wall, run_latencies
        if backend is not None:
            # the invariant must also balance with the mirror running
            reply = handle.control({"op": "recovery", "reconcile": True}, timeout=30.0)
            reconcile = reply.get("reconcile") or {}
            if not reconcile.get("balanced"):
                raise RuntimeError(f"ledger reconcile unbalanced in {mode}: {reply}")
    total = len(latencies)
    latencies.sort()
    return {
        "mode": mode,
        "clients": n_clients,
        "messages": total,
        "wall_s": wall,
        "throughput_msgs_per_sec": total / wall if wall > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
    }


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
    return {
        "mode": "crash_file",
        "messages": report.sent_total,
        "acked": report.acked_total,
        "delivered_total": report.delivered_total,
        "lost_acked": report.lost_acked,
        "balanced": report.balanced,
        "missing": report.missing,
        "cycles": cycles,
        "seed": seed,
        "wall_s": report.wall_s,
    }


def run_durability(*, quick: bool = False) -> DurabilityBenchResult:
    """The bench entry point: overhead sweep + seeded crash cycles."""
    n_clients = 100
    messages = 5 if quick else 20
    cycles = 5 if quick else 20
    result = DurabilityBenchResult()
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as tmp:
        store_dir = Path(tmp)
        rows = {
            mode: _run_mode(
                mode,
                store_dir,
                n_clients=n_clients,
                messages_per_client=messages,
                repeats=2 if quick else 3,
            )
            for mode in ("none", "memory", "file")
        }
        baseline = rows["memory"]["throughput_msgs_per_sec"]
        for mode, row in rows.items():
            if mode == "file" and baseline > 0:
                row["overhead_pct"] = round(
                    (1.0 - row["throughput_msgs_per_sec"] / baseline) * 100.0, 2
                )
            result.rows.append(row)
        result.rows.append(_run_crash(store_dir, cycles=cycles, burst=32, seed=1234))
    import sys

    for row in result.rows:
        overhead = row.get("overhead_pct")
        if overhead is not None and overhead > 10.0:
            print(
                f"[bench] ADVISORY durability: {row['mode']} ledger overhead "
                f"{overhead:.1f}% exceeds the 10% budget",
                file=sys.stderr,
            )
    return result
