"""repro.store — the durable state plane.

The gateway holds the retention-critical half of every session: queued
messages, dead letters, retry schedules, deployed compositions.  This
package makes that state survive a process kill:

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

import importlib

#: where each public name lives; :func:`__getattr__` imports the module the
#: first time the name is read, so a gateway that opens a store through
#: :mod:`repro.store.base` never loads the kill -9 harness
_EXPORTS = {
    "CrashCycle": "repro.store.crash",
    "CrashHarness": "repro.store.crash",
    "CrashReport": "repro.store.crash",
    "CrossCrashReport": "repro.store.ledger",
    "FSYNC_POLICIES": "repro.store.base",
    "FileWALStore": "repro.store.wal",
    "Ledger": "repro.store.ledger",
    "LedgerFold": "repro.store.ledger",
    "MemoryStore": "repro.store.base",
    "ParkedRecord": "repro.store.ledger",
    "RecoveryManager": "repro.store.recovery",
    "RecoveryReport": "repro.store.recovery",
    "RetryRecord": "repro.store.ledger",
    "SessionFold": "repro.store.ledger",
    "SessionRecovery": "repro.store.recovery",
    "StateStore": "repro.store.base",
    "fold": "repro.store.ledger",
    "open_store": "repro.store.base",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    """Resolve a public name on first access (PEP 562) and cache it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.store' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
