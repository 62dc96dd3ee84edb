"""The durable :class:`~repro.store.base.StateStore` backend.

:class:`FileWALStore` writes one CRC-framed JSON line per record
(``"%08x %s\\n" % (crc32(json), json)``).  Appends buffer in the
process; ``flush`` pushes them to the OS and (under the ``batch``
policy) fsyncs.  Replay verifies each line's CRC and **stops at the
first bad or partial line**: a torn tail is what ``kill -9`` leaves
behind mid-write, so everything before it is trusted and everything
after discarded (counted in :attr:`~repro.store.base.StateStore.torn`).
It is thread-safe behind the store lock and honours the shared
``fsync`` policies (``always`` / ``batch`` / ``never``) from
:data:`~repro.store.base.FSYNC_POLICIES`.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Iterator

from repro.errors import StoreError
from repro.store.base import StateStore


class FileWALStore(StateStore):
    """Append-only CRC-framed JSONL write-ahead log on the filesystem.

    Each record is serialised to one line ``<crc32-hex8> <json>``; the
    CRC covers the JSON text so replay can reject torn or bit-flipped
    lines without parsing them.  The file is opened in append mode, so
    several process generations can share one ledger path.
    """

    backend = "file"
    durable = True

    def __init__(self, path: str, *, fsync: str = "batch") -> None:
        super().__init__()
        self.path = os.fspath(path)
        self.fsync = fsync
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # Count the records already on disk so sequence numbers keep
        # rising across restarts — and cut off the torn tail a crashed
        # writer left, or the next append would concatenate onto the
        # partial line and corrupt itself.
        self._seq, valid_bytes = self._scan()
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        if size > valid_bytes:
            with open(self.path, "rb+") as fh:
                fh.truncate(valid_bytes)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _scan(self) -> tuple[int, int]:
        """(record count, byte length of the valid prefix) on disk."""
        count = offset = 0
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return 0, 0
        with fh:
            for raw in fh:
                if self._parse_line(raw.decode("utf-8", "replace")) is None:
                    self.torn += 1
                    break
                count += 1
                offset += len(raw)
        return count, offset

    @staticmethod
    def _parse_line(raw: str) -> dict | None:
        """Decode one CRC-framed line; None when torn or corrupt."""
        if not raw.endswith("\n") or len(raw) < 10 or raw[8] != " ":
            return None
        crc_text, line = raw[:8], raw[9:-1]
        try:
            expected = int(crc_text, 16)
        except ValueError:
            return None
        if zlib.crc32(line.encode("utf-8")) & 0xFFFFFFFF != expected:
            return None
        try:
            record = json.loads(line)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None

    def append(self, record: dict) -> int:
        """Write one CRC-framed line; returns the record's sequence number."""
        line = json.dumps(record, separators=(",", ":"))
        crc = zlib.crc32(line.encode("utf-8")) & 0xFFFFFFFF
        framed = f"{crc:08x} {line}\n"
        with self._lock:
            self._require_open()
            self._fh.write(framed)
            self.appends += 1
            self._seq += 1
            if self.fsync == "always":
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
            return self._seq

    def flush(self) -> None:
        """Push buffered lines to the OS; fsync under the batch policy."""
        with self._lock:
            self._require_open()
            self._fh.flush()
            self.flushes += 1
            if self.fsync == "batch":
                os.fsync(self._fh.fileno())
                self.fsyncs += 1

    def replay(self) -> Iterator[dict]:
        """Yield records in append order, stopping at the first torn line."""
        with self._lock:
            if not self._closed:
                # Make buffered appends visible to the read handle.
                self._fh.flush()
        for record in self._replay_lines():
            self.replayed += 1
            yield record

    def _replay_lines(self) -> Iterator[dict]:
        """Parse CRC-framed lines off disk; stop at the first damaged one."""
        try:
            fh = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            return
        with fh:
            for raw in fh:
                record = self._parse_line(raw)
                if record is None:
                    self.torn += 1
                    return  # torn tail: a partial final write
                yield record

    def truncate(self) -> None:
        """Discard every record and reset the sequence counter."""
        with self._lock:
            self._require_open()
            self._fh.truncate(0)
            self._fh.seek(0)
            self._fh.flush()
            self._seq = 0

    def close(self) -> None:
        """Flush, fsync (unless policy ``never``), and close the handle."""
        with self._lock:
            if self._closed:
                return
            self._fh.flush()
            if self.fsync != "never":
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
            self._fh.close()
            self._closed = True
