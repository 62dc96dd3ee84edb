"""repro.store — the durable state plane.

The gateway holds the retention-critical half of every session: queued
messages, dead letters, retry schedules, last-known-good compositions.
This package makes that state survive a process kill:

* :mod:`repro.store.base` — the tiny :class:`StateStore` append-only
  contract plus the in-memory reference backend and the
  :func:`open_store` factory;
* :mod:`repro.store.wal` — the durable backend: a CRC-framed JSONL
  write-ahead file, torn-tail tolerant;
* :mod:`repro.store.ledger` — the :class:`Ledger` event schema the
  gateway writes (counter deltas on the hot path, full frames only on
  the fault path) and the :func:`fold` that replays it into per-session
  state;
* :mod:`repro.store.recovery` — the :class:`RecoveryManager` that
  redeploys sessions after a crash, re-parks dead letters, re-injects
  pending retries, and reconciles the conservation invariant *across*
  the crash;
* :mod:`repro.store.crash` — the kill-9 harness driving a subprocess
  gateway through seeded crash/restart cycles.

See ``docs/durability.md`` for the schema and the recovery walkthrough.
"""

from repro.store.base import FSYNC_POLICIES, MemoryStore, StateStore, open_store
from repro.store.crash import CrashCycle, CrashHarness, CrashReport
from repro.store.ledger import (
    CrossCrashReport,
    Ledger,
    LedgerFold,
    ParkedRecord,
    RetryRecord,
    SessionFold,
    fold,
)
from repro.store.recovery import RecoveryManager, RecoveryReport, SessionRecovery
from repro.store.wal import FileWALStore

__all__ = [
    "CrashCycle",
    "CrashHarness",
    "CrashReport",
    "CrossCrashReport",
    "FSYNC_POLICIES",
    "FileWALStore",
    "Ledger",
    "LedgerFold",
    "MemoryStore",
    "ParkedRecord",
    "RecoveryManager",
    "RecoveryReport",
    "RetryRecord",
    "SessionFold",
    "SessionRecovery",
    "StateStore",
    "fold",
    "open_store",
]
