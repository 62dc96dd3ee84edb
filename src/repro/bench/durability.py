"""Durability bench: seeded kill-9/restart cycles against the file ledger.

The :class:`repro.store.crash.CrashHarness` drives seeded kill-9/restart
cycles against a subprocess gateway.  The rows are *hard* assertions,
not advisories: ``lost_acked`` must be 0 (every acknowledged message
survives in the folded ledger) and the cross-crash conservation
equation must balance.  What the ledger costs per message is measured
end to end by ``bench_e2e/run.py`` (``store.ledger.*`` on
``session_churn``), not here.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.reporting import print_series
from repro.store.crash import CrashHarness


@dataclass
class DurabilityBenchResult:
    """One crash scenario per row."""

    headers: list[str] = field(default_factory=lambda: [
        "mode", "cycles", "messages", "acked", "lost_acked", "balanced",
    ])
    rows: list[dict] = field(default_factory=list)

    def print(self) -> None:
        """Print the crash scenarios as a fixed-width table."""
        print_series(
            "Durability: kill-9 crash/restart cycles",
            self.headers,
            [[row.get(h) for h in self.headers] for row in self.rows],
        )


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
    """The bench entry point: seeded crash cycles over the file ledger."""
    result = DurabilityBenchResult()
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as tmp:
        result.rows.append(
            _run_crash(Path(tmp), cycles=5 if quick else 20, burst=32, seed=1234)
        )
    return result
