"""Ledger fold semantics: the cross-crash conservation arithmetic."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.store import Ledger, MemoryStore, RecoveryManager, fold


def make_ledger():
    return Ledger(MemoryStore())


def balanced(f, resident):
    """The cross-crash verdict for a folded session with ``resident`` ids live."""
    return replace(f.totals, residual=resident).balanced


class TestCountersFold:
    def test_deltas_accumulate_into_totals(self):
        ledger = make_ledger()
        ledger.deployed("s", mcl="main stream s{}", scheduler="inline")
        ledger.counters("s", admitted=5, delivered=2)
        ledger.counters("s", admitted=1, delivered=3, absorbed=1)
        f = ledger.fold().session("s")
        assert (f.totals.admitted, f.totals.delivered, f.totals.absorbed) == (6, 5, 1)
        assert f.totals.in_flight == 0
        assert balanced(f, resident=0)

    def test_in_flight_is_admissions_minus_fates(self):
        ledger = make_ledger()
        ledger.counters("s", admitted=10, delivered=4, dead_letters=1, dropped=2)
        f = ledger.fold().session("s")
        assert f.totals.in_flight == 3
        assert balanced(f, resident=3)
        assert not balanced(f, resident=0)

    def test_all_zero_delta_writes_nothing(self):
        ledger = make_ledger()
        ledger.counters("s")
        assert ledger.store.appends == 0

    def test_sessions_fold_independently(self):
        ledger = make_ledger()
        ledger.counters("a", admitted=2, delivered=2)
        ledger.counters("b", admitted=7)
        out = ledger.fold()
        assert out.session("a").totals.in_flight == 0
        assert out.session("b").totals.in_flight == 7


class TestRecoveredFold:
    def test_recovered_freezes_in_flight(self):
        ledger = make_ledger()
        ledger.counters("s", admitted=8, delivered=5)
        ledger.recovered("s", in_flight=3, parked=0, retries=0)
        f = ledger.fold().session("s")
        assert f.totals.recovered_in_flight == 3
        assert f.totals.in_flight == 0
        assert f.recoveries == 1
        assert balanced(f, resident=0)

    def test_generations_accumulate(self):
        ledger = make_ledger()
        ledger.counters("s", admitted=4, delivered=2)
        ledger.recovered("s", in_flight=2, parked=0, retries=0)
        ledger.counters("s", admitted=3, delivered=2)
        ledger.recovered("s", in_flight=1, parked=0, retries=0)
        f = ledger.fold().session("s")
        assert f.totals.recovered_in_flight == 3
        assert f.recoveries == 2
        assert balanced(f, resident=0)

    def test_recovered_clears_pending_retries(self):
        ledger = make_ledger()
        ledger.retry_scheduled("s", "m1", instance="b", port="pi", attempt=1)
        ledger.recovered("s", in_flight=0, parked=0, retries=1)
        assert ledger.fold().session("s").pending_retries == {}


class TestCrossCrashReport:
    def test_opposite_imbalances_do_not_cancel(self):
        # a leak in one session beside a double count in another: the
        # total must not net them to zero under a false verdict
        ledger = make_ledger()
        ledger.counters("leaky", admitted=3, delivered=1)
        ledger.counters("doubled", admitted=1, delivered=3)
        gateway = SimpleNamespace(sessions={})  # nothing live: residency 0
        report = RecoveryManager(gateway, ledger).reconcile()
        assert [row.missing for row in report.sessions] == [-2, 2]
        assert not report.balanced
        assert report.missing == 4
        assert report.describe()["missing"] == 4


class TestFaultPathFold:
    def test_dead_letter_round_trips_its_frame(self):
        ledger = make_ledger()
        ledger.dead_letter("s", "m1", stream="st", reason="exhausted", frame=b"FRAME")
        parked = ledger.fold().session("s").parked
        assert parked["m1"].frame == b"FRAME"
        assert parked["m1"].reason == "exhausted"

    def test_requeue_and_eviction_pop_the_parked_set(self):
        ledger = make_ledger()
        ledger.dead_letter("s", "m1", frame=b"a")
        ledger.dead_letter("s", "m2", frame=b"b")
        ledger.requeue("s", "m1")
        ledger.dead_letter_evicted("s", "m2")
        assert ledger.fold().session("s").parked == {}

    def test_retry_schedule_settles(self):
        ledger = make_ledger()
        ledger.retry_scheduled("s", "m1", instance="b", port="pi", attempt=1, frame=b"x")
        ledger.retry_scheduled("s", "m2", instance="b", port="pi", attempt=2)
        ledger.retry_settled("s", "m1")
        pending = ledger.fold().session("s").pending_retries
        assert list(pending) == ["m2"]
        assert pending["m2"].attempt == 2


class TestLifecycleFold:
    def test_undeploy_retires_the_session(self):
        ledger = make_ledger()
        ledger.deployed("s", mcl="main stream s{}", scheduler="inline")
        ledger.undeployed("s")
        out = ledger.fold()
        assert out.recoverable() == []
        assert out.session("s").undeployed

    def test_redeploy_after_undeploy_is_recoverable_again(self):
        ledger = make_ledger()
        ledger.deployed("s", mcl="v1", scheduler="inline")
        ledger.undeployed("s")
        ledger.deployed("s", mcl="v2", scheduler="threaded")
        [f] = ledger.fold().recoverable()
        assert f.composition == ("v2", "threaded")


def legacy_counters(session, admitted=0, delivered=0, absorbed=0, dead_letters=0, dropped=0):
    """A ``counters`` record as older ledgers hold it: one session, named terms."""
    return {
        "ev": "counters", "session": session, "admitted": admitted, "delivered": delivered,
        "absorbed": absorbed, "dead_letters": dead_letters, "dropped": dropped,
    }


#: per cycle, the deltas of every session that delivered in it
CYCLES = [
    [("a", 6, 2, 0, 0, 0), ("b", 3, 3, 0, 0, 0)],
    [("a", 1, 3, 1, 0, 0)],
    [("b", 4, 1, 0, 1, 1), ("c", 2, 2, 0, 0, 0), ("a", 0, 1, 0, 0, 0)],
]


class TestRowsFormat:
    def test_a_cycle_is_one_record_of_rows(self):
        ledger = make_ledger()
        ledger.mirror([list(row) for row in CYCLES[2]])
        [record] = ledger.store.replay()
        assert record == {"ev": "counters", "rows": [list(row) for row in CYCLES[2]]}

    def test_legacy_records_fold_to_the_same_totals_as_rows(self, tmp_path):
        from repro.store import FileWALStore

        legacy, rows = FileWALStore(tmp_path / "legacy.wal"), FileWALStore(tmp_path / "rows.wal")
        for cycle in CYCLES:
            for row in cycle:
                legacy.append(legacy_counters(*row))
            Ledger(rows).mirror([list(row) for row in cycle])
        for store in (legacy, rows):
            store.close()
        reopened = [FileWALStore(tmp_path / "legacy.wal"), FileWALStore(tmp_path / "rows.wal")]
        try:
            old, new = (Ledger(store).fold() for store in reopened)
        finally:
            for store in reopened:
                store.close()
        totals = {key: f.totals for key, f in new.sessions.items()}
        assert {key: f.totals for key, f in old.sessions.items()} == totals
        assert (totals["a"].admitted, totals["a"].delivered, totals["a"].absorbed) == (7, 6, 1)
        assert totals["a"].in_flight == 0 and totals["b"].in_flight == 1

    def test_a_legacy_ledger_continued_with_rows_folds_both(self):
        ledger = make_ledger()
        ledger.store.append(legacy_counters("s", admitted=4, delivered=1))
        ledger.recovered("s", in_flight=3, parked=0, retries=0)
        ledger.mirror([["s", 2, 2, 0, 0, 0]])
        totals = ledger.fold().session("s").totals
        assert (totals.admitted, totals.delivered, totals.recovered_in_flight) == (6, 3, 3)
        assert totals.balanced

    def test_a_gateway_recovers_a_legacy_ledger_balanced(self, tmp_path):
        import json

        from repro.gateway import GatewayServer
        from repro.store import FileWALStore

        from tests.store.test_recovery import MCL, await_balanced, durable_config, echo_once

        # what an older gateway left at a kill: sorted-key records, one
        # ``counters`` record per session per cycle, one message in flight
        store = FileWALStore(tmp_path / "ledger.wal")
        for record in (
            {"ev": "deployed", "session": "s-1", "mcl": MCL, "scheduler": "threaded"},
            legacy_counters("s-1", admitted=3, delivered=2),
            legacy_counters("s-1", admitted=1, delivered=1),
        ):
            store.append(json.loads(json.dumps(record, sort_keys=True)))
        store.close()
        gateway = GatewayServer(config=durable_config(tmp_path))
        with gateway.run_in_thread() as handle:
            [outcome] = gateway.recovery.last_report.sessions
            assert outcome.restored and outcome.in_flight == 1
            assert echo_once(handle.data_address, "s-1", b"after").body == b"after"
            reconcile = await_balanced(handle)["reconcile"]
        assert reconcile["balanced"] and reconcile["missing"] == 0, reconcile
        [row] = reconcile["sessions"]
        assert (row["admitted"], row["delivered"], row["recovered_in_flight"]) == (5, 4, 1)

    def test_a_malformed_row_is_skipped_on_its_own(self):
        out = fold([{"ev": "counters", "rows": [
            ["a", 3, 1, 0, 0, 0],
            ["short", 1, 1],                  # wrong arity
            ["long", 1, 1, 0, 0, 0, 0],       # wrong arity
            [7, 1, 1, 0, 0, 0],               # the session is not a string
            ["text", "1", 1, 0, 0, 0],        # a term is not an integer
            "not a row",
            ["b", 2, 2, 0, 0, 0],
        ]}])
        assert set(out.sessions) == {"a", "b"}
        assert (out.session("a").totals.admitted, out.session("a").totals.in_flight) == (3, 2)
        assert out.session("b").totals.in_flight == 0

    def test_a_read_older_than_the_last_mirror_is_skipped(self):
        from types import SimpleNamespace

        from repro.gateway.session import mirror

        # a cycle read ``s`` early; an owner call answered later in the
        # same cycle mirrored it anew before the cycle's record is written
        ledger, s = make_ledger(), SimpleNamespace(key="s", _mirrored=(0, 0, 0, 0, 0))
        t = SimpleNamespace(key="t", _mirrored=(0, 0, 0, 0, 0))
        mirror(ledger, [(s, (5, 4, 0, 0, 1))])
        mirror(ledger, [(s, (3, 1, 0, 0, 0)), (t, (2, 2, 0, 0, 0))])
        mirror(ledger, [(s, (5, 4, 0, 0, 1))])  # no delta: no record
        assert [r["rows"] for r in ledger.store.replay()] == [
            [["s", 5, 4, 0, 0, 1]], [["t", 2, 2, 0, 0, 0]],
        ]
        assert s._mirrored == (5, 4, 0, 0, 1)
        assert ledger.fold().session("s").totals.in_flight == 0

    def test_rows_that_are_not_a_list_touch_no_session(self):
        out = fold([{"ev": "counters", "rows": {"a": [1, 1, 0, 0, 0]}}])
        assert out.records == 1 and out.sessions == {}


class TestRobustness:
    def test_unknown_events_and_bad_records_are_skipped(self):
        out = fold([
            {"ev": "future_event", "session": "s"},
            {"ev": "counters", "admitted": 5},  # no session key
            {"not": "a ledger record"},
            {"ev": "counters", "session": "s", "admitted": 1, "delivered": 1},
        ])
        assert out.records == 4
        assert out.session("s").totals.admitted == 1

    @pytest.mark.parametrize("stray", [
        {"ev": "bogus", "admitted": 4},
        {"ev": "lkg", "action": "adopted", "epoch": 3, "mcl": "main stream s{}"},
    ], ids=["bogus", "legacy_lkg"])
    def test_unreplayed_kinds_touch_no_session(self, stray):
        log = [
            {"ev": "deployed", "session": "s", "mcl": "m", "scheduler": "inline"},
            {"ev": "counters", "session": "s", "admitted": 3, "delivered": 2},
            {"ev": "deployed", "session": "t", "mcl": "m", "scheduler": "inline"},
            {"ev": "undeployed", "session": "t"},
        ]
        strays = [dict(stray, session=key) for key in ("s", "t", "ghost")]
        plain, mixed = fold(log), fold(log[:2] + strays + log[2:])
        assert "ghost" not in mixed.sessions
        assert mixed.sessions == plain.sessions
        assert {k: f.totals for k, f in mixed.sessions.items()} == {
            k: f.totals for k, f in plain.sessions.items()
        }
        assert mixed.recoverable() == plain.recoverable()
