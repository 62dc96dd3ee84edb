"""Supervisor: retry with backoff, dead-letters, bypass, escalation."""

import random
import threading

import pytest

from repro.apps import build_server
from repro.errors import FaultPlanError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    Supervisor,
    assert_conservation,
)
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
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

#: same chain, but the stream reacts to retry exhaustion by spawning a
#: (dormant) spare — proof the escalation reaches scripted handlers
ESCALATION_SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
main stream s{
  streamlet a, b, c = new-streamlet (tap);
  connect (a.po, b.pi);
  connect (b.po, c.pi);
  when (RETRY_EXHAUSTED){
    streamlet spare = new-streamlet (tap);
  }
}
"""


def deploy(source=SOURCE):
    clock = VirtualClock()
    server = build_server(clock=clock)
    stream = server.deploy_script(source)
    return server, stream, clock


def fast_policy(**overrides):
    defaults = dict(max_retries=3, backoff_base=0.1, backoff_factor=2.0, jitter=0.0)
    defaults.update(overrides)
    return RecoveryPolicy(**defaults)


class TestRetry:
    def test_transient_fault_is_retried_to_delivery(self):
        _server, stream, _clock = deploy()
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="once")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(stream, fast_policy())
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"payload"))
        scheduler.pump()
        # the failed id was retained, not released
        assert stream.stats.failure_drops == 0
        assert supervisor.pending_retries == 1
        supervisor.settle(scheduler)
        delivered = stream.collect()
        assert [m.body for m in delivered] == [b"payload"]
        assert stream.stats.retries == 1
        assert_conservation(stream, zero_loss=True)

    def test_backoff_grows_exponentially(self):
        policy = fast_policy(backoff_base=0.1, backoff_factor=2.0)
        rng = random.Random(0)
        delays = [policy.delay_for(n, rng) for n in range(3)]
        assert delays == [0.1, 0.2, 0.4]

    def test_jitter_is_seed_deterministic(self):
        policy = fast_policy(jitter=0.05)
        a = [policy.delay_for(n, random.Random(9)) for n in range(5)]
        b = [policy.delay_for(n, random.Random(9)) for n in range(5)]
        assert a == b
        assert any(x != policy.delay_for(i, random.Random(10)) for i, x in enumerate(a))


class TestDeadLetters:
    def test_exhausted_message_is_dead_lettered(self):
        _server, stream, _clock = deploy()
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(stream, fast_policy(max_retries=2))
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"cursed"))
        scheduler.pump()
        supervisor.settle(scheduler)
        assert stream.collect() == []
        assert len(supervisor.dead_letters) == 1
        entry = next(iter(supervisor.dead_letters))
        assert entry.instance == "b"
        assert entry.attempts == 2
        assert "exhausted" in entry.reason
        assert stream.stats.retries == 2
        assert stream.stats.dead_letters == 1
        assert len(stream.pool) == 0
        report = assert_conservation(stream)
        assert report.dead_letters == 1

    def test_dead_letter_reinjection_after_heal(self):
        _server, stream, _clock = deploy()
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        injector = FaultInjector(plan)
        injector.arm(stream)
        supervisor = Supervisor(stream, fast_policy(max_retries=1))
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"again"))
        scheduler.pump()
        supervisor.settle(scheduler)
        [msg_id] = supervisor.dead_letters.ids()
        entry = supervisor.dead_letters.take(msg_id)
        injector.disarm()  # the fault heals...
        stream.post(entry.message)  # ...and the parked message re-enters
        scheduler.pump()
        assert [m.body for m in stream.collect()] == [b"again"]

    def test_exhaustion_escalates_to_scripted_handler(self):
        server, stream, _clock = deploy(ESCALATION_SOURCE)
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(
            stream, fast_policy(max_retries=1), events=server.events
        )
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"boom"))
        scheduler.pump()
        supervisor.settle(scheduler)
        # the RETRY_EXHAUSTED `when` handler ran and created the spare
        assert "spare" in stream.instance_names()
        assert stream.stats.events_handled == 1


class TestBypass:
    def test_optional_streamlet_is_bypassed(self):
        server, stream, _clock = deploy()
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(
            stream,
            fast_policy(max_retries=5, bypass_threshold=2),
            optional=("b",),
            events=server.events,
        )
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        for i in range(3):
            stream.post(MimeMessage("text/plain", f"m{i}".encode()))
        scheduler.pump()
        supervisor.settle(scheduler)
        assert supervisor.bypassed == ["b"]
        # b is out of the chain: a feeds c directly and traffic flows again
        stream.post(MimeMessage("text/plain", b"after-bypass"))
        scheduler.pump()
        bodies = [m.body for m in stream.collect()]
        assert b"after-bypass" in bodies
        assert_conservation(stream)
        assert len(stream.pool) == 0

    def test_mandatory_streamlet_is_never_bypassed(self):
        _server, stream, _clock = deploy()
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(
            stream, fast_policy(max_retries=1, bypass_threshold=1)
        )  # b not in optional
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"kept"))
        scheduler.pump()
        supervisor.settle(scheduler)
        assert supervisor.bypassed == []
        assert "b" in stream.instance_names()
        assert len(supervisor.dead_letters) == 1


class TestWiring:
    def test_double_attach_rejected(self):
        _server, stream, _clock = deploy()
        supervisor = Supervisor(stream)
        supervisor.attach()
        with pytest.raises(FaultPlanError):
            supervisor.attach()

    def test_attach_rejected_when_handler_taken(self):
        _server, stream, _clock = deploy()
        stream.fault_handler = lambda *a: False
        with pytest.raises(FaultPlanError):
            Supervisor(stream).attach()

    def test_detach_restores_hooks(self):
        _server, stream, _clock = deploy()
        supervisor = Supervisor(stream)
        supervisor.attach()
        supervisor.detach()
        assert stream.fault_handler is None
        assert stream.drop_hook is None
        supervisor.attach()  # re-attachable after a clean detach

    def test_policy_validation(self):
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(bypass_threshold=0)

    def test_drop_hook_records_drops(self):
        _server, stream, _clock = deploy()
        supervisor = Supervisor(stream)
        supervisor.attach()
        msg = MimeMessage("text/plain", b"x")
        key = next(iter(stream.ingress))
        stream.ingress[key].post = lambda *a, **k: False  # force an ingress drop
        msg_id = stream.post(msg)
        assert supervisor.drops_seen == [msg_id]
        assert stream.stats.queue_drops == 1


class TestRetryRacingACommit:
    def test_a_retry_due_while_a_commit_removes_its_target_is_never_stranded(self):
        """The retry's lookup and post share a read section with the commit's
        grace period: the commit cannot drain the target channel, then have
        the retry land in it, then close it outside the topology.

        The interleaving is forced: the retry's post waits (up to a bound)
        for the commit to drain the channel, and the drain waits for the
        post.  Without the read section the post lands between drain and
        close; with it the commit waits for the post and moves the id on.
        """
        _server, stream, clock = deploy()
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="once")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(stream, fast_policy(max_retries=2))
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"retried"))
        scheduler.pump()
        assert supervisor.pending_retries == 1
        target = stream.node("b").inputs["pi"]
        drained, posted = threading.Event(), threading.Event()
        real_post, real_drain = target.post, target.queue.drain
        errors: list[Exception] = []

        def remove_b():
            try:
                stream.remove_streamlet("b", force=True)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        remover = threading.Thread(target=remove_b)

        def racing_post(*args, **kwargs):
            remover.start()
            drained.wait(0.5)  # a commit held off by the read section never drains
            try:
                return real_post(*args, **kwargs)
            finally:
                posted.set()

        def racing_drain():
            ids = real_drain()
            drained.set()
            posted.wait(5)
            return ids

        target.post = racing_post
        target.queue.drain = racing_drain
        clock.advance(1.0)
        supervisor.pump_retries()
        remover.join(timeout=10)
        assert not remover.is_alive() and not errors, errors
        assert "b" not in stream.instance_names()
        scheduler.pump()
        delivered = [m.body for m in stream.collect()]
        dead = [entry.message.body for entry in supervisor.dead_letters]
        assert delivered + dead == [b"retried"]
        assert target.pending() == 0  # nothing resident outside the topology
        report = assert_conservation(stream)
        assert report.residual == 0
