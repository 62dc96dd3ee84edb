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
