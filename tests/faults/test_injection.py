"""FaultInjector: landing plans on live streams and links."""

import time

import pytest

from repro.apps import build_server
from repro.errors import FaultPlanError
from repro.faults import FaultInjector, FaultPlan
from repro.mime.message import MimeMessage
from repro.netsim.handoff import HandoffManager
from repro.netsim.link import WirelessLink
from repro.runtime.events import EventManager
from repro.runtime.scheduler import InlineScheduler
from repro.util.clock import VirtualClock

SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
channel mid{
  port{ in cin : text/*; out cout : text/*; }
  attribute{ buffer = 64; }
}
main stream s{
  streamlet a, b, c = new-streamlet (tap);
  channel m = new-channel (mid);
  connect (a.po, b.pi, m);
  connect (b.po, c.pi);
}
"""


@pytest.fixture
def deployed():
    clock = VirtualClock()
    server = build_server(clock=clock)
    stream = server.deploy_script(SOURCE)
    return server, stream, clock


class TestStreamletFaults:
    def test_once_fault_drops_one_message(self, deployed):
        _server, stream, _clock = deployed
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="once")
        injector = FaultInjector(plan)
        injector.arm(stream)
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"first"))
        stream.post(MimeMessage("text/plain", b"second"))
        scheduler.pump()
        delivered = stream.collect()
        assert [m.body for m in delivered] == [b"second"]
        assert stream.stats.processing_failures == 1
        assert stream.stats.failure_drops == 1  # no supervisor attached
        assert len(stream.pool) == 0

    def test_disarm_restores_process(self, deployed):
        _server, stream, _clock = deployed
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        injector = FaultInjector(plan)
        injector.arm(stream)
        streamlet = stream.node("b").streamlet
        assert "process" in streamlet.__dict__
        injector.disarm()
        assert "process" not in streamlet.__dict__
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"after"))
        scheduler.pump()
        assert len(stream.collect()) == 1

    def test_unknown_instance_rejected(self, deployed):
        _server, stream, _clock = deployed
        plan = FaultPlan()
        plan.fail_streamlet("nope")
        with pytest.raises(FaultPlanError):
            FaultInjector(plan).arm(stream)

    def test_double_arm_rejected(self, deployed):
        _server, stream, _clock = deployed
        injector = FaultInjector(FaultPlan())
        injector.arm(stream)
        with pytest.raises(FaultPlanError):
            injector.arm(stream)


class TestChannelFaults:
    def test_stall_parks_messages_until_released(self, deployed):
        _server, stream, _clock = deployed
        plan = FaultPlan()
        plan.stall_channel("m", at=0.0)
        injector = FaultInjector(plan)
        injector.arm(stream)  # at=0 applies at arm time (virtual now == 0)
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"parked"))
        scheduler.pump()
        assert stream.collect() == []
        assert stream.channel("m").pending() == 1
        assert injector.release_stall("m")
        scheduler.pump()
        assert len(stream.collect()) == 1

    def test_stall_heals_after_duration(self, deployed):
        _server, stream, clock = deployed
        plan = FaultPlan()
        plan.stall_channel("m", at=0.0, duration=1.0)
        injector = FaultInjector(plan)
        injector.arm(stream)
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"held"))
        scheduler.pump()
        assert stream.collect() == []
        clock.advance(2.0)
        injector.tick()
        scheduler.pump()
        assert len(stream.collect()) == 1

    def test_close_turns_posts_into_counted_drops(self, deployed):
        _server, stream, _clock = deployed
        plan = FaultPlan()
        plan.close_channel("m", at=0.0)
        injector = FaultInjector(plan)
        injector.arm(stream)
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"doomed"))
        scheduler.pump()  # must not crash the pump
        assert stream.collect() == []
        assert stream.stats.queue_drops == 1
        assert len(stream.pool) == 0  # the dropped id was released

    def test_unknown_channel_rejected(self, deployed):
        _server, stream, _clock = deployed
        plan = FaultPlan()
        plan.stall_channel("nope", at=0.0)
        with pytest.raises(FaultPlanError):
            FaultInjector(plan).arm(stream)


class TestLinkAndHandoffFaults:
    def test_outage_and_collapse_schedule(self):
        clock = VirtualClock()
        link = WirelessLink(1_000_000.0, clock=clock, seed=1)
        plan = FaultPlan()
        plan.link_outage(at=1.0, duration=2.0)
        plan.link_collapse(at=5.0, duration=1.0, bandwidth_bps=2_000.0)
        injector = FaultInjector(plan, clock=clock, link=link)
        assert injector.tick() == 0  # nothing due yet
        assert injector.next_due() == 1.0

        clock.advance_to(1.0)
        injector.tick()
        assert link.in_outage
        assert link.transmit(100).lost
        assert link.outage_losses == 1

        clock.advance_to(3.5)
        assert not link.in_outage

        clock.advance_to(5.0)
        injector.tick()
        assert link.bandwidth_bps == 2_000.0
        clock.advance_to(6.5)
        injector.tick()
        assert link.bandwidth_bps == 1_000_000.0
        assert injector.next_due() is None

    def test_link_fault_without_link_rejected(self):
        plan = FaultPlan()
        plan.link_outage(at=0.0)
        injector = FaultInjector(plan, clock=VirtualClock())
        with pytest.raises(FaultPlanError):
            injector.tick()

    def test_handoff_storm_alternates_interfaces(self):
        clock = VirtualClock()
        events = EventManager()
        handoff = HandoffManager(events)
        handoff.add_link("wavelan", WirelessLink(1_000_000.0, clock=clock))
        handoff.add_link("gsm", WirelessLink(20_000.0, clock=clock))
        plan = FaultPlan()
        plan.handoff_storm(("gsm", "wavelan"), at=0.0, rounds=2)
        injector = FaultInjector(plan, clock=clock, handoff=handoff)
        injector.tick()
        assert len(handoff.handoffs) == 4  # two rounds over two interfaces
        assert handoff.active_name == "wavelan"
