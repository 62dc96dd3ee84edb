"""The flight recorder under fire: scripted faults leave an ordered dump.

The acceptance scenario: inject a persistent streamlet fault, let the
Supervisor exhaust its retries, and verify the auto-dumped
``FLIGHT_<stream>.json`` tells the whole story — injected fault, the
dead-letter, and the escalation — in sequence order.
"""

import json

import pytest

from repro.apps import build_server
from repro.errors import ConservationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    Supervisor,
    assert_conservation,
)
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
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


def observed_deploy():
    clock = VirtualClock()
    server = build_server(
        clock=clock, telemetry=Telemetry(registry=MetricsRegistry())
    )
    stream = server.deploy_script(SOURCE)
    return server, stream, clock


def seq_of(events, category):
    """First sequence number of the given category (fails if absent)."""
    for event in events:
        if event["category"] == category:
            return event["seq"]
    raise AssertionError(f"no {category!r} event in dump: "
                         f"{[e['category'] for e in events]}")


class TestEscalationDump:
    def test_scripted_fault_run_dumps_ordered_story(self, tmp_path):
        """fault_injected < dead_letter < supervisor_escalation, by seq."""
        server, stream, _clock = observed_deploy()
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(
            stream,
            RecoveryPolicy(max_retries=2, backoff_base=0.1, jitter=0.0),
            events=server.events,
        )
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"doomed"))
        scheduler.pump()
        supervisor.settle(scheduler)
        assert len(supervisor.dead_letters) == 1

        # the conftest fixture points REPRO_FLIGHT_DIR at tmp_path
        dump_path = tmp_path / "FLIGHT_s.json"
        assert dump_path.exists(), list(tmp_path.iterdir())
        data = json.loads(dump_path.read_text())
        assert "RETRY_EXHAUSTED" in data["reason"]
        events = data["events"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert (
            seq_of(events, "fault_injected")
            < seq_of(events, "dead_letter")
            < seq_of(events, "supervisor_escalation")
        )
        # every retry the supervisor scheduled is on the record too
        retries = [e for e in events if e["category"] == "retry_scheduled"]
        assert len(retries) == 2
        assert all(e["instance"] == "b" for e in retries)
        # path is registered for the introspection plane
        assert stream.tm.recorder.dumps["s"] == str(dump_path)

    def test_unobserved_run_dumps_nothing(self, tmp_path):
        from repro.telemetry import NULL_TELEMETRY

        clock = VirtualClock()
        server = build_server(clock=clock, telemetry=NULL_TELEMETRY)
        stream = server.deploy_script(SOURCE)
        plan = FaultPlan()
        plan.fail_streamlet("b", mode="always")
        FaultInjector(plan).arm(stream)
        supervisor = Supervisor(
            stream, RecoveryPolicy(max_retries=1, jitter=0.0), events=server.events
        )
        supervisor.attach()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"doomed"))
        scheduler.pump()
        supervisor.settle(scheduler)
        assert len(supervisor.dead_letters) == 1
        assert list(tmp_path.iterdir()) == []


class TestConservationDump:
    def test_violation_dumps_and_names_the_artifact(self, tmp_path):
        _server, stream, _clock = observed_deploy()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"ok"))
        scheduler.pump()
        stream.collect()
        # sabotage the ledger: an id counted twice is an imbalance
        stream.stats.messages_out += 1
        with pytest.raises(ConservationError) as err:
            assert_conservation(stream)
        assert "[flight recorder: " in str(err.value)
        dump_path = tmp_path / "FLIGHT_s.json"
        assert str(dump_path) in str(err.value)
        data = json.loads(dump_path.read_text())
        last = data["events"][-1]
        assert last["category"] == "conservation_violation"
        assert "conservation violated" in last["reason"]
