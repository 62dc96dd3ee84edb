"""Ledger fold semantics: the cross-crash conservation arithmetic."""

from repro.store import Ledger, MemoryStore, fold


def make_ledger():
    return Ledger(MemoryStore())


class TestCountersFold:
    def test_deltas_accumulate_into_totals(self):
        ledger = make_ledger()
        ledger.deployed("s", mcl="main stream s{}", scheduler="inline")
        ledger.counters("s", admitted=5, delivered=2)
        ledger.counters("s", admitted=1, delivered=3, absorbed=1)
        f = ledger.fold().session("s")
        assert (f.admitted, f.delivered, f.absorbed) == (6, 5, 1)
        assert f.running_in_flight == 0
        assert f.balances(resident=0)

    def test_running_in_flight_is_admissions_minus_fates(self):
        ledger = make_ledger()
        ledger.counters("s", admitted=10, delivered=4, dead_letters=1, dropped=2)
        f = ledger.fold().session("s")
        assert f.running_in_flight == 3
        assert f.balances(resident=3)
        assert not f.balances(resident=0)

    def test_all_zero_delta_writes_nothing(self):
        ledger = make_ledger()
        ledger.counters("s")
        assert ledger.store.appends == 0

    def test_sessions_fold_independently(self):
        ledger = make_ledger()
        ledger.counters("a", admitted=2, delivered=2)
        ledger.counters("b", admitted=7)
        out = ledger.fold()
        assert out.session("a").running_in_flight == 0
        assert out.session("b").running_in_flight == 7


class TestRecoveredFold:
    def test_recovered_freezes_running_in_flight(self):
        ledger = make_ledger()
        ledger.counters("s", admitted=8, delivered=5)
        ledger.recovered("s", in_flight=3, parked=0, retries=0)
        f = ledger.fold().session("s")
        assert f.recovered_in_flight == 3
        assert f.running_in_flight == 0
        assert f.recoveries == 1
        assert f.balances(resident=0)

    def test_generations_accumulate(self):
        ledger = make_ledger()
        ledger.counters("s", admitted=4, delivered=2)
        ledger.recovered("s", in_flight=2, parked=0, retries=0)
        ledger.counters("s", admitted=3, delivered=2)
        ledger.recovered("s", in_flight=1, parked=0, retries=0)
        f = ledger.fold().session("s")
        assert f.recovered_in_flight == 3
        assert f.recoveries == 2
        assert f.balances(resident=0)

    def test_recovered_clears_pending_retries(self):
        ledger = make_ledger()
        ledger.retry_scheduled("s", "m1", instance="b", port="pi", attempt=1)
        ledger.recovered("s", in_flight=0, parked=0, retries=1)
        assert ledger.fold().session("s").pending_retries == {}


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

    def test_lkg_adopt_retire_take(self):
        ledger = make_ledger()
        ledger.lkg("s", "adopted", epoch=3, mcl="main stream s{}")
        f = ledger.fold().session("s")
        assert (f.lkg_epoch, f.lkg_mcl) == (3, "main stream s{}")
        ledger.lkg("s", "taken", epoch=3)  # rollback consumed it: stays adopted
        assert ledger.fold().session("s").lkg_epoch == 3
        ledger.lkg("s", "retired", epoch=3)
        assert ledger.fold().session("s").lkg_epoch is None


class TestRobustness:
    def test_unknown_events_and_bad_records_are_skipped(self):
        out = fold([
            {"ev": "future_event", "session": "s"},
            {"ev": "counters", "admitted": 5},  # no session key
            {"not": "a ledger record"},
            {"ev": "counters", "session": "s", "admitted": 1, "delivered": 1},
        ])
        assert out.records == 4
        assert out.session("s").admitted == 1
