"""The StateStore contract across every backend, plus WAL edge cases."""

import pytest

from repro.errors import StoreError
from repro.gateway import GatewayConfig
from repro.store import FileWALStore, MemoryStore, open_store
from repro.telemetry import MetricsRegistry, Telemetry

RECORDS = [
    {"ev": "deployed", "session": "s", "mcl": "main stream s{}", "scheduler": "inline"},
    {"ev": "counters", "session": "s", "admitted": 3, "delivered": 2},
    {"ev": "undeployed", "session": "s"},
]


def make_store(backend, tmp_path, **kwargs):
    path = str(tmp_path / f"ledger.{backend}")
    if backend == "memory":
        return open_store("memory", **kwargs)
    return open_store(backend, path, **kwargs)


@pytest.mark.parametrize("backend", ["memory", "file"])
class TestContract:
    def test_append_assigns_increasing_sequence(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        seqs = [store.append(r) for r in RECORDS]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        store.close()

    def test_replay_preserves_order_and_content(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        for r in RECORDS:
            store.append(r)
        store.flush()
        assert list(store.replay()) == RECORDS
        assert store.replayed == len(RECORDS)
        store.close()

    def test_truncate_discards_everything(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        for r in RECORDS:
            store.append(r)
        store.truncate()
        store.flush()
        assert list(store.replay()) == []
        store.close()

    def test_append_after_close_raises(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.close()
        store.close()  # idempotent
        assert store.closed
        with pytest.raises(StoreError):
            store.append({"ev": "x", "session": "s"})

    def test_counters_track_operations(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.append(RECORDS[0])
        store.flush()
        assert store.appends == 1
        assert store.flushes == 1
        store.close()


@pytest.mark.parametrize("backend", ["file"])
def test_durable_backends_survive_reopen(backend, tmp_path):
    path = str(tmp_path / "ledger.wal")
    store = open_store(backend, path)
    for r in RECORDS:
        store.append(r)
    store.close()
    reopened = open_store(backend, path)
    assert list(reopened.replay()) == RECORDS
    # appends continue after the recorded tail, never overwriting it
    reopened.append({"ev": "requeue", "session": "s", "msg_id": "m1"})
    reopened.flush()
    assert len(list(reopened.replay())) == len(RECORDS) + 1
    reopened.close()


class TestTornTail:
    def test_replay_stops_at_partial_final_line(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        store = FileWALStore(path)
        for r in RECORDS:
            store.append(r)
        store.close()
        with open(path, "ab") as fh:
            fh.write(b'0badc0de {"ev": "counters", "sess')  # kill -9 mid-write
        reopened = FileWALStore(path)
        assert list(reopened.replay()) == RECORDS
        assert reopened.torn >= 1
        reopened.close()

    def test_append_after_torn_tail_is_safe(self, tmp_path):
        # the torn bytes must be truncated on open, or the next append
        # concatenates onto the partial line and corrupts itself
        path = str(tmp_path / "torn.wal")
        store = FileWALStore(path)
        store.append(RECORDS[0])
        store.close()
        with open(path, "ab") as fh:
            fh.write(b"deadbeef {\"ev\": ")
        reopened = FileWALStore(path)
        reopened.append(RECORDS[1])
        reopened.close()
        final = FileWALStore(path)
        assert list(final.replay()) == RECORDS[:2]
        assert final.torn == 0
        final.close()

    def test_corrupt_middle_line_cuts_the_suffix(self, tmp_path):
        path = str(tmp_path / "flip.wal")
        store = FileWALStore(path)
        for r in RECORDS:
            store.append(r)
        store.close()
        with open(path, "rb") as fh:
            lines = fh.readlines()
        lines[1] = lines[1].replace(b'"admitted"', b'"admXtted"')  # CRC now wrong
        with open(path, "wb") as fh:
            fh.writelines(lines)
        reopened = FileWALStore(path)
        assert list(reopened.replay()) == RECORDS[:1]
        reopened.close()


class TestFsyncPolicies:
    def test_always_syncs_per_append(self, tmp_path):
        store = FileWALStore(str(tmp_path / "a.wal"), fsync="always")
        store.append(RECORDS[0])
        store.append(RECORDS[1])
        assert store.fsyncs == 2
        store.close()

    def test_batch_syncs_on_flush_only(self, tmp_path):
        store = FileWALStore(str(tmp_path / "b.wal"), fsync="batch")
        store.append(RECORDS[0])
        assert store.fsyncs == 0
        store.flush()
        assert store.fsyncs == 1
        store.close()

    def test_never_skips_the_sync(self, tmp_path):
        store = FileWALStore(str(tmp_path / "n.wal"), fsync="never")
        store.append(RECORDS[0])
        store.flush()
        store.close()
        assert store.fsyncs == 0


class TestOpenStore:
    def test_backend_classes_and_durability_flags(self, tmp_path):
        assert isinstance(open_store("memory"), MemoryStore)
        file_store = open_store("file", str(tmp_path / "f.wal"))
        assert isinstance(file_store, FileWALStore) and file_store.durable
        assert not MemoryStore().durable
        file_store.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(StoreError):
            open_store("etcd")

    def test_durable_backends_require_a_path(self):
        with pytest.raises(StoreError):
            open_store("file")

    def test_removed_sqlite_backend_is_refused_by_name(self, tmp_path):
        path = str(tmp_path / "s.db")
        with pytest.raises(StoreError, match="sqlite store backend was removed"):
            open_store("sqlite", path)
        with pytest.raises(ValueError, match="sqlite store backend was removed"):
            GatewayConfig(store_backend="sqlite", store_path=path)

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            open_store("file", str(tmp_path / "f.wal"), fsync="sometimes")

    def test_telemetry_instrumentation_counts_operations(self, tmp_path):
        tm = Telemetry(registry=MetricsRegistry())  # isolated from the global registry
        store = open_store("file", str(tmp_path / "t.wal"), fsync="always", telemetry=tm)
        store.append(RECORDS[0])
        store.flush()
        list(store.replay())
        assert tm.store_append_counter("file").value == 1
        assert tm.store_fsync_counter("file").value >= 1
        assert tm.store_replay_counter("file").value == 1
        store.close()
