"""The conservation invariant under injected schedules, on and off the loop.

The acceptance property of the fault plane: after any schedule —
streamlet faults, channel stalls, link outages, handoff storms — every
admitted pool id is exactly one of delivered /
dead-lettered / counted in a drop statistic, and for a fixed seed a
virtual-time run replays bit-identically.
"""

import dataclasses
import time

from repro.apps import build_server
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    Supervisor,
    assert_conservation,
    check_conservation,
)
from repro.mime.message import MimeMessage
from repro.netsim.handoff import HandoffManager
from repro.netsim.link import WirelessLink
from repro.runtime.scheduler import InlineScheduler
from repro.util.clock import VirtualClock

from tests.offloop import OffLoop

SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
channel mid{
  port{ in cin : text/*; out cout : text/*; }
  attribute{ buffer = 256; }
}
main stream s{
  streamlet a, b, c = new-streamlet (tap);
  channel m = new-channel (mid);
  connect (a.po, b.pi, m);
  connect (b.po, c.pi);
}
"""


def deploy():
    clock = VirtualClock()
    server = build_server(clock=clock)
    stream = server.deploy_script(SOURCE)
    return server, stream, clock


def full_schedule(server, clock, *, seed):
    """Streamlet faults + channel stall + link outage + handoff storm."""
    plan = FaultPlan(seed=seed)
    plan.fail_streamlet("b", mode="probability", probability=0.4)
    plan.stall_channel("m", at=0.5, duration=1.0)
    plan.link_outage(at=1.0, duration=0.5)
    plan.handoff_storm(("gsm", "wavelan"), at=2.0, rounds=2)
    link = WirelessLink(1_000_000.0, clock=clock, seed=seed)
    handoff = HandoffManager(server.events)
    handoff.add_link("wavelan", link)
    handoff.add_link("gsm", WirelessLink(20_000.0, clock=clock, seed=seed + 1))
    return plan, link, handoff


def run_injected(seed=11, messages=20):
    """One full virtual-time run; returns (stream, supervisor, bodies)."""
    server, stream, clock = deploy()
    plan, link, handoff = full_schedule(server, clock, seed=seed)
    injector = FaultInjector(plan, clock=clock, link=link, handoff=handoff)
    injector.arm(stream)
    supervisor = Supervisor(
        stream,
        RecoveryPolicy(max_retries=3, backoff_base=0.05, jitter=0.01),
        seed=seed,
    )
    supervisor.attach()
    scheduler = InlineScheduler(stream)
    bodies = []
    for i in range(messages):
        stream.post(MimeMessage("text/plain", f"m{i}".encode()))
    for _ in range(80):  # march virtual time across the whole schedule
        scheduler.pump()
        clock.advance(0.1)
        injector.tick()
        supervisor.pump_retries()
        # every outage window sees one offered transmission
        link.transmit(200)
    supervisor.settle(scheduler)
    bodies = [m.body for m in stream.collect()]
    return stream, supervisor, bodies


class TestInlineConservation:
    def test_invariant_holds_under_full_schedule(self):
        stream, supervisor, bodies = run_injected()
        report = assert_conservation(stream, zero_loss=True)
        # BK chain + recovery: nothing vanishes — every message is either
        # delivered or inspectable in the dead-letter pool
        assert report.delivered + report.dead_letters == 20
        assert report.residual == 0
        assert len(bodies) == report.delivered
        assert len(supervisor.dead_letters) == report.dead_letters

    def test_fixed_seed_replays_bit_identically(self):
        runs = []
        for _ in range(2):
            stream, supervisor, bodies = run_injected(seed=11)
            runs.append((
                bodies,
                dataclasses.astuple(stream.stats),
                supervisor.dead_letters.ids(),
                dataclasses.astuple(check_conservation(stream)),
            ))
        assert runs[0] == runs[1]

    def test_conservation_holds_for_every_seed(self):
        # different seeds make different fault decisions; the guarantee
        # (nothing vanishes) is seed-independent
        for seed in (12, 13, 14):
            stream, _, bodies = run_injected(seed=seed)
            report = assert_conservation(stream, zero_loss=True)
            assert report.delivered == len(bodies)
            assert report.delivered + report.dead_letters == 20

    def test_end_sweeps_residual_into_end_drops(self):
        _server, stream, _clock = deploy()
        plan = FaultPlan()
        plan.stall_channel("m", at=0.0)
        FaultInjector(plan).arm(stream)
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"stranded"))
        scheduler.pump()
        assert len(stream.pool) == 1  # parked in the stalled channel
        stream.end()
        report = assert_conservation(stream)
        assert stream.stats.end_drops == 1
        assert report.residual == 0


class TestThreadedConservation:
    def test_invariant_holds_with_faults_off_the_loop(self):
        """Faults and supervisor retries on a stream the gateway's executor steps."""
        clock = VirtualClock()
        server = build_server(clock=clock)
        stream = server.deploy_script(SOURCE)
        plan = FaultPlan(seed=5)
        plan.fail_streamlet("b", mode="probability", probability=0.3)
        supervisor = Supervisor(
            stream, RecoveryPolicy(max_retries=3, backoff_base=0.0, jitter=0.0)
        )
        supervisor.attach()
        FaultInjector(plan, clock=clock).arm(stream)
        # the session's shares pump the supervisor's retries
        scheduler = OffLoop(stream, supervisor=supervisor)
        try:
            for i in range(30):
                stream.post(MimeMessage("text/plain", f"t{i}".encode()))
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if scheduler.drain(timeout=0.2) and not supervisor.pending_retries:
                    break
            delivered = scheduler.collect()
        finally:
            scheduler.stop()  # ends the stream
        report = assert_conservation(stream, zero_loss=True)
        assert report.delivered == len(delivered)
        assert report.delivered + report.dead_letters == 30
        assert report.residual == 0
