"""Chains over SYNC channels: fidelity, faults, reconfig, on the caller's
thread (``inline``) and on the gateway's executor (``threaded``).

A SYNC channel is a one-slot rendezvous crossed by the same hand-off rule
as any other channel; each case checks that a behaviour holds across it."""

import time

import pytest

from repro.apps import build_server
from repro.errors import ReconfigurationError
from repro.faults.invariant import assert_conservation
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.streamlet import Streamlet, StreamletContext
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.attribution import summarize

from tests.offloop import OffLoop

SYNC_DEFS = """channel syncChan{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = SYNC; buffer = 0; }
}
"""

# four synchronously coupled redirectors plus a dormant spare for splice tests
SPLICE_MCL = SYNC_DEFS + """main stream fz{
  streamlet r0, r1, r2, r3, extra = new-streamlet (redirector);
  channel s0, s1, s2 = new-channel (syncChan);
  connect (r0.po, r1.pi, s0);
  connect (r1.po, r2.pi, s1);
  connect (r2.po, r3.pi, s2);
}"""

def chain_mcl(n: int, *, sync: bool, group: int = 0) -> str:
    """``n`` redirectors in series, over SYNC channels or auto (asynchronous)
    ones; with ``group``, every ``group``-th link is an auto channel."""
    names = [f"r{i}" for i in range(n)]
    lines = ["main stream chain{", f"  streamlet {', '.join(names)} = new-streamlet (redirector);"]
    links = [i for i in range(n - 1) if sync and not (group and (i + 1) % group == 0)]
    if links:
        lines.append(f"  channel {', '.join(f's{i}' for i in links)} = new-channel (syncChan);")
    for i in range(n - 1):
        lines.append(f"  connect (r{i}.po, r{i + 1}.pi{f', s{i}' if i in links else ''});")
    lines.append("}")
    return (SYNC_DEFS if links else "") + "\n".join(lines)


#: ``threaded``: stepped by the gateway's executor (tests/offloop.py)
ENGINES = ("inline", "threaded")


def make_scheduler(stream, engine, **kwargs):
    if engine == "inline":
        return InlineScheduler(stream, **kwargs)
    return OffLoop(stream, **kwargs)


def drain(stream, scheduler, n, timeout=5.0):
    """Collect until ``n`` messages arrive (pumping when inline)."""
    out = []
    deadline = time.monotonic() + timeout
    while len(out) < n and time.monotonic() < deadline:
        if isinstance(scheduler, InlineScheduler):
            scheduler.pump()
            out.extend(stream.collect())
        else:
            scheduler.kick()
            out.extend(scheduler.collect())
        if len(out) < n:
            time.sleep(0.002)
    return out


def stop(scheduler):
    if isinstance(scheduler, OffLoop):
        scheduler.stop()


PASS_DEF = ast.StreamletDef(
    name="fz_pass",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
    ),
)

class Duplicator(Streamlet):
    """Emit every message twice — exercises the multi-emission worklist."""

    def process(self, port, message, ctx: StreamletContext):
        return [("po", message), ("po", message.clone())]


class Absorber(Streamlet):
    """Swallow messages whose body starts with ``drop``."""

    def process(self, port, message, ctx: StreamletContext):
        if message.body.startswith(b"drop"):
            return []
        return [("po", message)]


class Poisoned(Streamlet):
    """Raise on bodies starting with ``boom`` — mid-chain failure containment."""

    def process(self, port, message, ctx: StreamletContext):
        if message.body.startswith(b"boom"):
            raise RuntimeError("poisoned payload")
        return [("po", message)]


class Sidestep(Streamlet):
    """Route ``side``-tagged bodies to a port with no channel (open circuit).

    A *declared* spare port would be auto-exposed as egress at deploy
    time; emitting on an unknown port is how a runtime open circuit
    actually looks (e.g. after a reconfiguration unwired it).
    """

    def process(self, port, message, ctx: StreamletContext):
        if message.body.startswith(b"side"):
            return [("nowhere", message)]
        return [("po", message)]


def deploy_custom(middle_def, middle_cls, **server_kwargs):
    """redirector -> <middle> -> redirector, all synchronously coupled."""
    server = build_server(**server_kwargs)
    server.directory.advertise(middle_def, middle_cls, replace=True)
    mcl = SYNC_DEFS + (
        "main stream fz{"
        "  streamlet a, z = new-streamlet (redirector);"
        f"  streamlet mid = new-streamlet ({middle_def.name});"
        "  channel s0, s1 = new-channel (syncChan);"
        "  connect (a.po, mid.pi, s0);"
        "  connect (mid.po, z.pi, s1);"
        "}"
    )
    return server, server.deploy_script(mcl)


class TestSyncDelivery:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sync_chain_preserves_order(self, engine):
        server = build_server()
        stream = server.deploy_script(chain_mcl(6, sync=True))
        scheduler = make_scheduler(stream, engine)
        try:
            n = 40
            for i in range(n):
                stream.post(MimeMessage("text/plain", b"m%03d" % i))
            delivered = drain(stream, scheduler, n)
            assert [m.body for m in delivered] == [b"m%03d" % i for i in range(n)]
            assert stream.stats.queue_drops == 0
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()

    def test_no_chain_reports_a_fusion_group(self):
        server = build_server()
        for sync in (True, False):
            stream = server.deploy_script(chain_mcl(4, sync=sync))
            try:
                assert stream.fusion_groups() == ()
            finally:
                server.undeploy(stream.name)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sync_and_async_chains_deliver_the_same(self, engine):
        bodies = [b"p%d" % i for i in range(12)]
        results = {}
        for sync in (True, False):
            server = build_server()
            stream = server.deploy_script(chain_mcl(5, sync=sync))
            scheduler = make_scheduler(stream, engine)
            try:
                for body in bodies:
                    stream.post(MimeMessage("text/plain", body))
                results[sync] = [m.body for m in drain(stream, scheduler, len(bodies))]
                assert_conservation(stream)
            finally:
                stop(scheduler)
                stream.end()
        assert results[True] == results[False] == bodies

    def test_service_time_and_queue_wait_stay_per_streamlet(self):
        # attribution is per streamlet: every member keeps its own service
        # histogram, and its queue wait (a hand-off's is a zero) counts once
        # per message too
        telemetry = Telemetry(registry=MetricsRegistry(), trace_sample_interval=1)
        server = build_server(telemetry=telemetry)
        stream = server.deploy_script(chain_mcl(4, sync=True))
        scheduler = InlineScheduler(stream)
        try:
            n = 8
            for i in range(n):
                stream.post(MimeMessage("text/plain", b"x"))
            assert len(drain(stream, scheduler, n)) == n
            summary = summarize(telemetry.registry, stream=stream.name)
            for component in ("service", "queue_wait"):
                per_instance = {r["instance"]: r["count"] for r in summary[component]["rows"]}
                assert per_instance == {f"r{i}": n for i in range(4)}, component
        finally:
            stream.end()


    def test_every_member_of_a_grouped_chain_waits_once_per_hop(self):
        # deep_chain's shape: 24 redirectors, SYNC within groups of 6; each
        # member's queue-wait count is its hop count, hand-offs included
        telemetry = Telemetry(registry=MetricsRegistry())
        server = build_server(telemetry=telemetry)
        stream = server.deploy_script(chain_mcl(24, sync=True, group=6))
        scheduler = InlineScheduler(stream)
        try:
            for window in range(5):
                for i in range(10):
                    stream.post(MimeMessage("text/plain", b"w%d-%d" % (window, i)))
                assert len(drain(stream, scheduler, 10)) == 10
            summary = summarize(telemetry.registry, stream=stream.name)
            hops = {r["instance"]: r["count"] for r in summary["service"]["rows"]}
            waits = {r["instance"]: r for r in summary["queue_wait"]["rows"]}
            assert hops == {f"r{i}": 50 for i in range(24)}
            assert {name: row["count"] for name, row in waits.items()} == hops
            # every member past the head is handed its message: zero waits
            assert all(waits[f"r{i}"]["sum_seconds"] == 0.0 for i in range(1, 24))
        finally:
            stream.end()


class TestSyncSemantics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_multi_emission_member_fans_out_in_order(self, engine):
        _server, stream = deploy_custom(PASS_DEF, Duplicator)
        scheduler = make_scheduler(stream, engine)
        try:
            n = 6
            for i in range(n):
                stream.post(MimeMessage("text/plain", b"d%d" % i))
            delivered = drain(stream, scheduler, 2 * n)
            assert [m.body for m in delivered] == [
                b"d%d" % i for i in range(n) for _ in range(2)
            ]
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_absorbed_messages_balance_the_ledger(self, engine):
        _server, stream = deploy_custom(PASS_DEF, Absorber)
        scheduler = make_scheduler(stream, engine)
        try:
            for i in range(10):
                body = b"drop%d" % i if i % 2 else b"keep%d" % i
                stream.post(MimeMessage("text/plain", body))
            delivered = drain(stream, scheduler, 5)
            assert [m.body for m in delivered] == [b"keep%d" % i for i in (0, 2, 4, 6, 8)]
            if isinstance(scheduler, OffLoop):
                # ``drop9`` follows ``keep8`` and may still be on a share
                assert scheduler.drain()
            report = assert_conservation(stream)
            assert report.absorbed == 5
        finally:
            stop(scheduler)
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mid_chain_failure_is_contained(self, engine):
        _server, stream = deploy_custom(PASS_DEF, Poisoned)
        scheduler = make_scheduler(stream, engine)
        try:
            for i in range(6):
                body = b"boom%d" % i if i in (1, 4) else b"ok%d" % i
                stream.post(MimeMessage("text/plain", body))
            delivered = drain(stream, scheduler, 4)
            assert len(delivered) == 4
            report = assert_conservation(stream)
            assert stream.stats.failure_drops == 2
        finally:
            stop(scheduler)
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_open_circuit_mid_chain_drops(self, engine):
        _server, stream = deploy_custom(PASS_DEF, Sidestep)
        scheduler = make_scheduler(stream, engine)
        try:
            for i in range(6):
                body = b"side%d" % i if i in (0, 3) else b"ok%d" % i
                stream.post(MimeMessage("text/plain", body))
            delivered = drain(stream, scheduler, 4)
            assert len(delivered) == 4
            report = assert_conservation(stream)
            assert stream.stats.open_circuit_drops == 2
        finally:
            stop(scheduler)
            stream.end()

    def test_residue_on_a_sync_channel_drains_first(self):
        # a message parked on a SYNC channel (e.g. a supervisor retry) must
        # drain ahead of fresh head traffic, which waits for the rendezvous
        server = build_server()
        stream = server.deploy_script(chain_mcl(4, sync=True))
        scheduler = InlineScheduler(stream)
        try:
            early = stream.post(MimeMessage("text/plain", b"early"))
            ingress = next(iter(stream.ingress.values()))
            assert ingress.fetch() == early
            # park it two hops deep, then feed a fresh message at the head
            assert stream.channel("s1").queue.post_message(early, 5, probe=True)
            stream.post(MimeMessage("text/plain", b"fresh"))
            delivered = drain(stream, scheduler, 2)
            assert [m.body for m in delivered] == [b"early", b"fresh"]
            assert stream.stats.queue_drops == 0
            assert_conservation(stream)
        finally:
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("batch", (1, 4))
    def test_batching_delivers_everything(self, engine, batch):
        server = build_server()
        stream = server.deploy_script(chain_mcl(4, sync=True))
        scheduler = make_scheduler(stream, engine, batch=batch)
        try:
            n = 30
            for i in range(n):
                stream.post(MimeMessage("text/plain", b"b%02d" % i))
            delivered = drain(stream, scheduler, n)
            assert [m.body for m in delivered] == [b"b%02d" % i for i in range(n)]
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()


class TestSyncReconfig:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_splice_then_refuse_a_lossy_removal(self, engine):
        server = build_server()
        stream = server.deploy_script(SPLICE_MCL)
        scheduler = make_scheduler(stream, engine)
        try:
            for i in range(10):
                stream.post(MimeMessage("text/plain", b"a%d" % i))
            assert len(drain(stream, scheduler, 10)) == 10

            # splice into the middle: the spare joins through a fresh
            # asynchronous auto channel, and the chain keeps delivering
            stream.insert("r1.po", "r2.pi", "extra")
            for i in range(10):
                stream.post(MimeMessage("text/plain", b"b%d" % i))
            assert [m.body for m in drain(stream, scheduler, 10)] == [
                b"b%d" % i for i in range(10)
            ]

            # section 6.6: with the spare paused its input holds traffic,
            # and a removal that would lose it is refused, the stream untouched
            stream.node("extra").streamlet.pause()
            stream.post(MimeMessage("text/plain", b"held"))
            deadline = time.monotonic() + 5.0
            while not stream.node("extra").inputs["pi"].pending():
                assert time.monotonic() < deadline, "never reached the spare"
                if isinstance(scheduler, InlineScheduler):
                    scheduler.pump()
                else:
                    scheduler.kick()
                    time.sleep(0.002)
            with pytest.raises(ReconfigurationError):
                stream.remove_streamlet("extra")
            assert "extra" in stream.instance_names()
            stream.node("extra").streamlet.activate()
            assert [m.body for m in drain(stream, scheduler, 1)] == [b"held"]

            # take the spare back out and rejoin through the declared sync
            # channel: the chain delivers as before
            stream.disconnect("r1.po", "extra.pi")
            stream.disconnect("extra.po", "r2.pi")
            stream.connect("r1.po", "r2.pi", "s1")
            for i in range(10):
                stream.post(MimeMessage("text/plain", b"c%d" % i))
            assert len(drain(stream, scheduler, 10)) == 10
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_extractable_member_is_stepped_like_any_other(self, engine):
        mcl = SYNC_DEFS + """main stream fz{
  streamlet r0, r1, r2 = new-streamlet (redirector);
  channel s0, s1 = new-channel (syncChan);
  connect (r0.po, r1.pi, s0);
  connect (r1.po, r2.pi, s1);
  when (LOW_BANDWIDTH) { remove (r1); }
}"""
        server = build_server()
        stream = server.deploy_script(mcl)
        scheduler = make_scheduler(stream, engine)
        try:
            for i in range(5):
                stream.post(MimeMessage("text/plain", b"x%d" % i))
            assert len(drain(stream, scheduler, 5)) == 5
            assert stream.node("r1").streamlet.processed == 5
            server.events.raise_event("LOW_BANDWIDTH")
            for i in range(5):
                stream.post(MimeMessage("text/plain", b"y%d" % i))
            assert [m.body for m in drain(stream, scheduler, 5)] == [
                b"y%d" % i for i in range(5)
            ]
            assert stream.node("r1").streamlet.processed == 5  # extracted
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()
