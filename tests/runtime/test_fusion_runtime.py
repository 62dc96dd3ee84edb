"""Fused-chain runtime behaviour: fidelity, faults, reconfig, on the caller's
thread (``inline``) and on the gateway's executor (``threaded``)."""

import time

import pytest

from repro.apps import build_server
from repro.bench.harness import redirector_chain_mcl
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

# four fusable redirectors plus a dormant spare for splice tests
SPLICE_MCL = SYNC_DEFS + """main stream fz{
  streamlet r0, r1, r2, r3, extra = new-streamlet (redirector);
  channel s0, s1, s2 = new-channel (syncChan);
  connect (r0.po, r1.pi, s0);
  connect (r1.po, r2.pi, s1);
  connect (r2.po, r3.pi, s2);
}"""

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
    server = build_server(drop_timeout=5.0, **server_kwargs)
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


class TestFusedDelivery:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sync_chain_fuses_and_preserves_order(self, engine):
        server = build_server(drop_timeout=5.0)
        stream = server.deploy_script(redirector_chain_mcl(6, sync=True))
        assert stream.fusion_groups() == (tuple(f"r{i}" for i in range(6)),)
        scheduler = make_scheduler(stream, engine)
        try:
            n = 40
            for i in range(n):
                stream.post(MimeMessage("text/plain", b"m%03d" % i))
            delivered = drain(stream, scheduler, n)
            assert [m.body for m in delivered] == [b"m%03d" % i for i in range(n)]
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()

    def test_async_chain_does_not_fuse(self):
        server = build_server(drop_timeout=5.0)
        stream = server.deploy_script(redirector_chain_mcl(4))
        try:
            assert stream.fusion_groups() == ()
        finally:
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fuse_false_ablation_matches_fused_output(self, engine):
        bodies = [b"p%d" % i for i in range(12)]
        results = {}
        for fuse in (True, False):
            server = build_server(fuse=fuse, drop_timeout=5.0)
            stream = server.deploy_script(redirector_chain_mcl(5, sync=True))
            assert bool(stream.fusion_groups()) is fuse
            scheduler = make_scheduler(stream, engine)
            try:
                for body in bodies:
                    stream.post(MimeMessage("text/plain", body))
                results[fuse] = [m.body for m in drain(stream, scheduler, len(bodies))]
                assert_conservation(stream)
            finally:
                stop(scheduler)
                stream.end()
        assert results[True] == results[False] == bodies

    def test_fused_service_time_stays_per_streamlet(self):
        # the fused dispatch must not collapse attribution: every member
        # keeps its own service histogram, one observation per message
        telemetry = Telemetry(registry=MetricsRegistry(), trace_sample_interval=1)
        server = build_server(telemetry=telemetry, drop_timeout=5.0)
        stream = server.deploy_script(redirector_chain_mcl(4, sync=True))
        scheduler = InlineScheduler(stream)
        try:
            n = 8
            for i in range(n):
                stream.post(MimeMessage("text/plain", b"x"))
            assert len(drain(stream, scheduler, n)) == n
            rows = summarize(telemetry.registry, stream=stream.name)["service"]["rows"]
            per_instance = {r["instance"]: r["count"] for r in rows}
            assert per_instance == {f"r{i}": n for i in range(4)}
        finally:
            stream.end()


class TestFusedSemantics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_multi_emission_member_fans_out_in_order(self, engine):
        _server, stream = deploy_custom(PASS_DEF, Duplicator)
        assert stream.fusion_groups() == (("a", "mid", "z"),)
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
    def test_open_circuit_mid_chain_drops_like_unfused(self, engine):
        _server, stream = deploy_custom(PASS_DEF, Sidestep)
        assert stream.fusion_groups() == (("a", "mid", "z"),)
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

    def test_residual_interior_traffic_drains_first(self):
        # a message parked on an interior channel (e.g. a supervisor retry
        # from before fusion formed) must drain ahead of fresh head traffic
        server = build_server(drop_timeout=5.0)
        stream = server.deploy_script(redirector_chain_mcl(4, sync=True))
        scheduler = InlineScheduler(stream)
        try:
            early = stream.post(MimeMessage("text/plain", b"early"))
            ingress = next(iter(stream.ingress.values()))
            assert ingress.fetch(0.0) == early
            # park it two hops deep, then feed a fresh message at the head
            assert stream.channel("s1").queue.post_message(early, 5, timeout=0)
            stream.post(MimeMessage("text/plain", b"fresh"))
            delivered = drain(stream, scheduler, 2)
            assert [m.body for m in delivered] == [b"early", b"fresh"]
            assert_conservation(stream)
        finally:
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("batch", (1, 4))
    def test_batching_delivers_everything(self, engine, batch):
        server = build_server(drop_timeout=5.0)
        stream = server.deploy_script(redirector_chain_mcl(4, sync=True))
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


class TestFusedReconfig:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_splice_splits_then_refuses(self, engine):
        server = build_server(drop_timeout=5.0)
        stream = server.deploy_script(SPLICE_MCL)
        assert stream.fusion_groups() == (("r0", "r1", "r2", "r3"),)
        scheduler = make_scheduler(stream, engine)
        try:
            for i in range(10):
                stream.post(MimeMessage("text/plain", b"a%d" % i))
            assert len(drain(stream, scheduler, 10)) == 10

            # splice into the middle: the fresh producer-side auto channel
            # is asynchronous, so the region must split around it
            stream.insert("r1.po", "r2.pi", "extra")
            assert stream.fusion_groups() == (("r0", "r1"), ("extra", "r2", "r3"))
            for i in range(10):
                stream.post(MimeMessage("text/plain", b"b%d" % i))
            assert len(drain(stream, scheduler, 10)) == 10

            # take the spare back out and rejoin through the declared sync
            # channel: the whole chain re-fuses on the next snapshot
            stream.disconnect("r1.po", "extra.pi")
            stream.disconnect("extra.po", "r2.pi")
            stream.connect("r1.po", "r2.pi", "s1")
            assert stream.fusion_groups() == (("r0", "r1", "r2", "r3"),)
            for i in range(10):
                stream.post(MimeMessage("text/plain", b"c%d" % i))
            assert len(drain(stream, scheduler, 10)) == 10
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_extract_handler_keeps_member_out_of_groups(self, engine):
        # an instance an event handler may extract is never fused, so the
        # extract itself cannot land inside a fused dispatch
        mcl = SYNC_DEFS + """main stream fz{
  streamlet r0, r1, r2 = new-streamlet (redirector);
  channel s0, s1 = new-channel (syncChan);
  connect (r0.po, r1.pi, s0);
  connect (r1.po, r2.pi, s1);
  when (LOW_BANDWIDTH) { remove (r1); }
}"""
        server = build_server(drop_timeout=5.0)
        stream = server.deploy_script(mcl)
        scheduler = make_scheduler(stream, engine)
        try:
            assert stream.fusion_groups() == ()
            for i in range(5):
                stream.post(MimeMessage("text/plain", b"x%d" % i))
            assert len(drain(stream, scheduler, 5)) == 5
            assert_conservation(stream)
        finally:
            stop(scheduler)
            stream.end()
