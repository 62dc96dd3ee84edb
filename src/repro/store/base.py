"""The :class:`StateStore` contract and its in-memory reference backend.

A state store is an **append-only record log**: the durable substrate the
:class:`~repro.store.ledger.Ledger` writes gateway lifecycle events
through.  The contract is deliberately tiny — append, replay, flush,
truncate, close — so a backend can be anything from a Python list to a
write-ahead file to sqlite, and the recovery plane never cares which.

Contract rules every backend honours:

* ``append`` assigns a monotonically increasing sequence number and
  never reorders records;
* ``replay`` yields exactly the records a crashed process would find on
  disk, **in append order**, stopping (not raising) at a torn tail —
  a partially written final record is the normal outcome of ``kill -9``,
  not corruption worth dying over;
* ``flush`` makes everything appended so far durable (fsync / commit),
  subject to the backend's ``fsync`` policy;
* all methods are thread-safe — admissions land from the gateway's event
  loop while deliveries land from the egress pump thread, which flushes
  once per cycle for every session it served (a group commit).

:class:`MemoryStore` is the non-durable twin: it keeps the records in a
list, survives nothing, and exists so the ``durability`` bench can price
the WAL backends against pure bookkeeping overhead.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

from repro.errors import StoreError

#: accepted ``fsync`` policies for durable backends
FSYNC_POLICIES = ("always", "batch", "never")


class StateStore:
    """Abstract append-only record log (see the module docstring).

    Subclasses set :attr:`backend` (a short label for telemetry and
    reports) and :attr:`durable` (whether records survive a process
    kill), and implement the five primitives.
    """

    #: short backend label ("memory" / "file" / "sqlite")
    backend = "abstract"
    #: whether appended records survive a process kill
    durable = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._closed = False
        #: observability: lifetime operation counts
        self.appends = 0
        self.flushes = 0
        self.fsyncs = 0
        self.replayed = 0
        self.torn = 0

    # -- the contract ---------------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one JSON-safe record; returns its sequence number."""
        raise NotImplementedError

    def replay(self) -> Iterator[dict]:
        """Yield every durable record in append order (torn tail skipped)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make every appended record durable (per the fsync policy)."""
        raise NotImplementedError

    def truncate(self) -> None:
        """Discard every record (compaction after a checkpoint, tests)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release the backing resource (idempotent)."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError(f"{type(self).__name__} is closed")


class MemoryStore(StateStore):
    """The in-process backend: a list, for tests and overhead baselines.

    Replay works within the process (restart-in-place tests), but a
    killed process takes the records with it — ``durable`` is False.
    """

    backend = "memory"
    durable = False

    def __init__(self) -> None:
        super().__init__()
        self._records: list[dict] = []

    def append(self, record: dict) -> int:
        """Store one record; returns its 1-based sequence number."""
        with self._lock:
            self._require_open()
            self._records.append(dict(record))
            self.appends += 1
            return self.appends

    def replay(self) -> Iterator[dict]:
        """Yield copies of every stored record in append order."""
        with self._lock:
            snapshot = [dict(r) for r in self._records]
        for record in snapshot:
            self.replayed += 1
            yield record

    def flush(self) -> None:
        """No durability to arrange; counts the call for parity."""
        with self._lock:
            self._require_open()
            self.flushes += 1

    def truncate(self) -> None:
        """Drop every stored record."""
        with self._lock:
            self._require_open()
            self._records.clear()

    def close(self) -> None:
        """Mark the store closed (records stay readable via replay)."""
        with self._lock:
            self._closed = True


def open_store(
    backend: str,
    path: str | None = None,
    *,
    fsync: str = "batch",
    telemetry=None,
) -> StateStore:
    """Build a :class:`StateStore` from configuration strings.

    ``backend`` is ``"memory"``, ``"file"`` (append-only CRC-framed WAL),
    or ``"sqlite"``; the durable backends require ``path``.  ``fsync``
    picks the durability/throughput trade: ``"always"`` syncs per append,
    ``"batch"`` syncs on :meth:`StateStore.flush`, ``"never"`` leaves it
    to the OS.  ``telemetry`` (a :class:`repro.telemetry.Telemetry`) adds
    the ``mobigate_store_*`` metric families.
    """
    if fsync not in FSYNC_POLICIES:
        raise StoreError(f"unknown fsync policy {fsync!r} (choose from {FSYNC_POLICIES})")
    if backend == "memory":
        store: StateStore = MemoryStore()
    elif backend == "file":
        from repro.store.wal import FileWALStore

        if path is None:
            raise StoreError("the file backend requires a path")
        store = FileWALStore(path, fsync=fsync)
    elif backend == "sqlite":
        from repro.store.wal import SqliteWALStore

        if path is None:
            raise StoreError("the sqlite backend requires a path")
        store = SqliteWALStore(path, fsync=fsync)
    else:
        raise StoreError(
            f"unknown store backend {backend!r} (choose from memory/file/sqlite)"
        )
    if telemetry is not None:
        _instrument(store, telemetry)
    return store


def _instrument(store: StateStore, telemetry) -> None:
    """Wrap a store's append/flush with the ``mobigate_store_*`` counters."""
    appends = telemetry.store_append_counter(store.backend)
    syncs = telemetry.store_fsync_counter(store.backend)
    replays = telemetry.store_replay_counter(store.backend)
    raw_append, raw_flush, raw_replay = store.append, store.flush, store.replay

    def counted_append(record: dict) -> int:
        before = store.fsyncs
        seq = raw_append(record)
        appends.inc()
        grew = store.fsyncs - before  # the "always" policy syncs per append
        if grew:
            syncs.inc(grew)
        return seq

    def counted_flush() -> None:
        before = store.fsyncs
        raw_flush()
        grew = store.fsyncs - before
        if grew:
            syncs.inc(grew)

    def counted_replay():
        for record in raw_replay():
            replays.inc()
            yield record

    store.append = counted_append  # type: ignore[method-assign]
    store.flush = counted_flush  # type: ignore[method-assign]
    store.replay = counted_replay  # type: ignore[method-assign]
