"""Bounded DeadLetterPool: oldest-first eviction with full accounting."""

import pytest

from repro.apps import build_server
from repro.errors import FaultPlanError
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy, Supervisor
from repro.faults.supervisor import DeadLetter, DeadLetterPool
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.store import Ledger, MemoryStore
from repro.telemetry import MetricsRegistry, Telemetry
from repro.util.clock import VirtualClock

SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
main stream s{
  streamlet a, b, c = new-streamlet (tap);
  connect (a.po, b.pi);
  connect (b.po, c.pi);
}
"""


def entry(msg_id):
    return DeadLetter(
        msg_id=msg_id, message=MimeMessage("text/plain", msg_id.encode()),
        instance="b", port="pi", attempts=1, reason="test",
    )


class TestPoolBounds:
    def test_capacity_evicts_oldest_first(self):
        victims = []
        pool = DeadLetterPool(2, on_evict=lambda v: victims.append(v.msg_id))
        for msg_id in ("m1", "m2", "m3", "m4"):
            pool.add(entry(msg_id))
        assert pool.ids() == ["m3", "m4"]
        assert victims == ["m1", "m2"]
        assert pool.evicted == 2

    def test_unbounded_pool_never_evicts(self):
        pool = DeadLetterPool()
        for i in range(100):
            pool.add(entry(f"m{i}"))
        assert len(pool) == 100 and pool.evicted == 0

    def test_capacity_below_one_rejected(self):
        with pytest.raises(FaultPlanError):
            DeadLetterPool(0)

    def test_rekeying_an_existing_id_is_not_an_eviction(self):
        pool = DeadLetterPool(2)
        pool.add(entry("m1"))
        pool.add(entry("m2"))
        pool.add(entry("m1"))  # replaces in place
        assert pool.evicted == 0 and len(pool) == 2


class TestSupervisedEviction:
    def _exhaust(self, n_messages, capacity):
        clock = VirtualClock()
        telemetry = Telemetry(registry=MetricsRegistry())
        server = build_server(clock=clock, telemetry=telemetry)
        stream = server.deploy_script(SOURCE)
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        FaultInjector(plan).arm(stream)
        ledger = Ledger(MemoryStore())
        supervisor = Supervisor(
            stream,
            RecoveryPolicy(max_retries=0),
            telemetry=telemetry,
            ledger=ledger,
            scope="scope-1",
            dead_letter_capacity=capacity,
        )
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        for i in range(n_messages):
            stream.post(MimeMessage("text/plain", f"m{i}".encode()))
            scheduler.pump()
        return stream, supervisor, ledger, telemetry

    def test_eviction_reaches_counter_ledger_and_pool(self):
        stream, supervisor, ledger, telemetry = self._exhaust(5, capacity=2)
        assert len(supervisor.dead_letters) == 2
        assert supervisor.dead_letters.evicted == 3
        assert telemetry.dead_letters_evicted_counter(stream.name).value == 3
        # the folded ledger agrees: 5 parked, 3 evicted, 2 remain
        sf = ledger.fold().session("scope-1")
        assert sf.totals.dead_letters == 0  # counters flow through the gateway mirror
        assert set(sf.parked) == set(supervisor.dead_letters.ids())

    def test_eviction_is_recorded_on_the_flight_ring(self):
        stream, supervisor, ledger, _telemetry = self._exhaust(3, capacity=1)
        events = [
            e for e in stream.tm.recorder.events()
            if e["category"] == "dead_letter_evicted"
        ]
        assert len(events) == 2
        evicted_ids = {e["msg_id"] for e in events}
        # the ledger saw the same evictions: parked minus evicted remains
        sf = ledger.fold().session("scope-1")
        assert evicted_ids.isdisjoint(sf.parked)
        assert len(sf.parked) == 1
