"""The hand-off rule: a pump-stepped hop steps its consumer with the message in hand.

When a view's tail emits to an owned channel that is empty and is the
only input of a later, active view, the inline hop kernel steps that
view at once instead of posting, probing, re-seeding the worklist and
claiming again.  It is one legal schedule of the same composition (a
consumer infinitely fast), so everything observable must read as if the
message had been posted and claimed — and wherever a message could
tell the two apart (a stalled or closed channel, a paused or two-input
consumer, traffic already waiting, a snapshot retired mid-step, units
parked inside a fused chain) it takes the post path.  Each test below pins one of those rules.
"""

import dataclasses

from repro.apps import build_server
from repro.bench.harness import redirector_chain_mcl
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy, Supervisor
from repro.faults.invariant import assert_conservation
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_message
from repro.runtime.message_queue import MessageQueue
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.streamlet import Streamlet
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.attribution import summarize

from tests.offloop import OffLoop

SYNC_CHANNEL = """channel hoSync{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = SYNC; buffer = 0; }
}
"""
TINY_CHANNEL = """channel hoTiny{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = ASYNC; buffer = 1; }
}
"""
ASYNC_CHANNEL = """channel hoAsync{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = ASYNC; buffer = 64; }
}
"""


def _definition(name: str, inputs=("pi",)) -> ast.StreamletDef:
    return ast.StreamletDef(
        name=name,
        ports=tuple(ast.PortDecl(ast.PortDirection.IN, p, ANY) for p in inputs)
        + (ast.PortDecl(ast.PortDirection.OUT, "po", ANY),),
    )


class Duplicate(Streamlet):
    """Emit every message twice: a fan-out on one port."""

    def process(self, port, message, ctx):
        twin = message.clone()
        twin.set_body(message.body + b"'")
        return [("po", message), ("po", twin)]


class Merge(Streamlet):
    """Two inputs, one output: never a hand-off target."""

    def process(self, port, message, ctx):
        return [("po", message)]


class Tag(Streamlet):
    """Bracket the body, so a delivered message shows it went through."""

    def process(self, port, message, ctx):
        message.set_body(b"[" + message.body + b"]")
        return [("po", message)]


class Gate(Streamlet):
    """Run ``on_swap`` inside ``process`` when the body is ``swap``."""

    on_swap = None

    def process(self, port, message, ctx):
        if message.body == b"swap":
            type(self).on_swap()
        return [("po", message)]


class Flaky(Streamlet):
    """Raise the first time each ``once`` body is met."""

    def __init__(self, instance_id, definition):
        super().__init__(instance_id, definition)
        self.met: set[bytes] = set()

    def process(self, port, message, ctx):
        if message.body.startswith(b"once") and message.body not in self.met:
            self.met.add(message.body)
            raise RuntimeError("flaky")
        return [("po", message)]


CUSTOM = {
    "ho_dup": (Duplicate, ("pi",)),
    "ho_merge": (Merge, ("pi", "pj")),
    "ho_tag": (Tag, ("pi",)),
    "ho_gate": (Gate, ("pi",)),
    "ho_flaky": (Flaky, ("pi",)),
}


def deploy(mcl: str, **server_kwargs):
    server = build_server(drop_timeout=5.0, **server_kwargs)
    for name, (cls, inputs) in CUSTOM.items():
        server.directory.advertise(_definition(name, inputs), cls, replace=True)
    return server, server.deploy_script(mcl)


def chain(n: int = 4, **server_kwargs):
    """``n`` redirectors over asynchronous channels, stepped inline."""
    _server, stream = deploy(redirector_chain_mcl(n), **server_kwargs)
    return stream, InlineScheduler(stream)


def interior_queues(stream) -> dict[str, MessageQueue]:
    """The stream's own channels (no ingress/egress carriers), by name."""
    return {name: stream.channel(name).queue for name in stream.channel_names()}


def bodies(messages) -> list[bytes]:
    return [m.body for m in messages]


def text(body: bytes) -> MimeMessage:
    return MimeMessage("text/plain", body)


class TestTheRule:
    def test_an_async_chain_crosses_no_queue(self):
        stream, scheduler = chain(4)
        stream.post(text(b"x"))
        scheduler.pump()
        assert bodies(stream.collect()) == [b"x"]
        queues = interior_queues(stream)
        assert len(queues) == 3
        for queue in queues.values():
            assert queue.watermark == 0  # nothing was ever queued there
        stream.end()

    def test_hand_offs_count_as_moves(self):
        stream, scheduler = chain(4)
        for i in range(5):
            stream.post(text(b"m%d" % i))
        assert scheduler.pump() == 4 * 5  # four claims per message, as if posted
        assert len(stream.collect()) == 5
        stream.end()

    def test_each_hand_off_observes_a_zero_queue_wait(self):
        telemetry = Telemetry(registry=MetricsRegistry())
        stream, scheduler = chain(4, telemetry=telemetry)
        for i in range(5):
            stream.post(text(b"m%d" % i))
            scheduler.pump()
        assert len(stream.collect()) == 5
        rows = {
            r["instance"]: r
            for r in summarize(telemetry.registry, stream=stream.name)["queue_wait"]["rows"]
        }
        assert {name: rows[name]["count"] for name in rows} == {f"r{i}": 5 for i in range(4)}
        for name in ("r1", "r2", "r3"):  # handed to: claimed off an empty queue
            assert rows[name]["sum_seconds"] == 0.0
        stream.end()

    def test_channel_counters_read_as_posted_and_fetched(self):
        stream, scheduler = chain(4)
        for i in range(3):
            stream.post(text(b"m%d" % i))
        scheduler.pump()
        stream.collect()
        rows = {r["channel"]: r for r in stream.queue_introspect()}
        for name in stream.channel_names():
            assert (rows[name]["posted"], rows[name]["fetched"]) == (3, 3)
        stream.end()


class TestThePostPathStays:
    def test_a_stalled_channel_parks(self):
        stream, scheduler = chain(3)
        (first, _second) = stream.channel_names()
        injector = FaultInjector(FaultPlan())
        injector.plan.stall_channel(first, at=0.0)
        injector.arm(stream)
        stream.post(text(b"parked"))
        scheduler.pump()
        assert stream.collect() == []
        assert stream.channel(first).pending() == 1
        assert injector.release_stall(first)
        scheduler.pump()
        assert bodies(stream.collect()) == [b"parked"]
        stream.end()

    def test_a_closed_queue_books_the_drop(self):
        stream, scheduler = chain(3)
        stream.channel(stream.channel_names()[0]).queue.close()
        stream.post(text(b"doomed"))
        scheduler.pump()
        assert stream.collect() == []
        assert stream.stats.queue_drops == 1
        assert len(stream.pool) == 0
        stream.end()

    def test_a_paused_consumer_is_not_handed_to(self):
        stream, scheduler = chain(3)
        stream.node("r1").streamlet.pause()
        stream.post(text(b"wait"))
        assert scheduler.pump() == 1
        assert stream.node("r1").inputs["pi"].pending() == 1
        stream.node("r1").streamlet.activate()
        scheduler.pump()
        assert bodies(stream.collect()) == [b"wait"]
        stream.end()

    def test_traffic_already_waiting_keeps_fifo(self):
        stream, scheduler = chain(3)
        stream.node("r1").streamlet.pause()
        stream.post(text(b"first"))
        scheduler.pump()
        stream.node("r1").streamlet.activate()
        stream.post(text(b"second"))  # r0 runs first: its channel holds "first"
        scheduler.pump()
        assert bodies(stream.collect()) == [b"first", b"second"]
        stream.end()

    def test_a_fan_out_queues_its_second_emission_behind_the_first(self):
        _server, stream = deploy(ASYNC_CHANNEL + """main stream fan{
  streamlet a, z = new-streamlet (redirector);
  streamlet d = new-streamlet (ho_dup);
  channel c0, c1 = new-channel (hoAsync);
  connect (a.po, d.pi, c0);
  connect (d.po, z.pi, c1);
}""")
        scheduler = InlineScheduler(stream)
        for body in (b"m0", b"m1"):
            stream.post(text(body))
            scheduler.pump()
        assert bodies(stream.collect()) == [b"m0", b"m0'", b"m1", b"m1'"]
        queue = stream.channel("c1").queue
        assert (queue.posted, queue.fetched, queue.watermark) == (4, 4, 1)
        assert_conservation(stream)
        stream.end()

    def test_batching_stops_on_a_channel_past_a_hand_off(self):
        # a's extra claims must respect the 1 KB channel that d, stepped by
        # a hand-off, posts to: claiming on a's own headroom overflows it
        _server, stream = deploy(TINY_CHANNEL + ASYNC_CHANNEL + """main stream bt{
  streamlet a, z = new-streamlet (redirector);
  streamlet d = new-streamlet (ho_dup);
  channel c0 = new-channel (hoAsync);
  channel c1 = new-channel (hoTiny);
  connect (a.po, d.pi, c0);
  connect (d.po, z.pi, c1);
}""")
        scheduler = InlineScheduler(stream)
        sent = [(b"%d" % i).ljust(250, b".") for i in range(8)]
        for body in sent:
            stream.post(text(body))
        scheduler.pump()
        assert stream.stats.queue_drops == 0
        assert bodies(stream.collect()) == [b for body in sent for b in (body, body + b"'")]
        stream.end()

    def test_a_two_input_consumer_is_posted_to_and_visited(self):
        # b is stepped by a hand-off from a; its post lands on m, two hops
        # past the view the pump stepped, and must still be visited
        _server, stream = deploy(ASYNC_CHANNEL + """main stream merge{
  streamlet a, b, x = new-streamlet (redirector);
  streamlet m = new-streamlet (ho_merge);
  channel c0, c1, c2 = new-channel (hoAsync);
  connect (a.po, b.pi, c0);
  connect (b.po, m.pi, c1);
  connect (x.po, m.pj, c2);
}""")
        scheduler = InlineScheduler(stream)
        stream.post(text(b"via-a"), "a.pi")
        scheduler.pump()
        assert bodies(stream.collect()) == [b"via-a"]
        assert stream.channel("c0").queue.watermark == 0  # handed to b
        assert stream.channel("c1").queue.watermark == 1  # posted to m
        assert all(len(q) == 0 for q in interior_queues(stream).values())
        stream.end()

    def test_a_handler_that_rewires_mid_step_sends_the_emission_down_the_post_path(self):
        server, stream = deploy(ASYNC_CHANNEL + """main stream swap{
  streamlet a, b, c = new-streamlet (redirector);
  streamlet g = new-streamlet (ho_gate);
  channel c0, c1, c2 = new-channel (hoAsync);
  connect (a.po, g.pi, c0);
  connect (g.po, b.pi, c1);
  connect (b.po, c.pi, c2);
  when (LOW_BANDWIDTH){
    streamlet t = new-streamlet (ho_tag);
    insert (b.po, c.pi, t);
  }
}""")
        Gate.on_swap = lambda: server.events.raise_event("LOW_BANDWIDTH")
        scheduler = InlineScheduler(stream)
        stream.post(text(b"swap"))
        scheduler.pump()
        # the emission g made after the rewiring crossed its queue, and the
        # view that claimed it was the new one, with t inserted
        assert stream.channel("c1").queue.watermark == 1
        assert bodies(stream.collect()) == [b"[swap]"]
        assert_conservation(stream)
        stream.end()


class TestFusedChains:
    FUSED = SYNC_CHANNEL + ASYNC_CHANNEL + """main stream fz{
  streamlet u, r0, r1, z = new-streamlet (redirector);
  streamlet r2 = new-streamlet (ho_merge);
  streamlet x = new-streamlet (redirector);
  channel c0, cz = new-channel (hoAsync);
  channel s0, s1 = new-channel (hoSync);
  connect (u.po, r0.pi, c0);
  connect (r0.po, r1.pi, s0);
  connect (r1.po, r2.pi, s1);
  connect (x.po, r2.pj);
  connect (r2.po, z.pi, cz);
}"""

    def test_the_hop_plan_has_one_continuation_per_member(self):
        _server, stream = deploy(SYNC_CHANNEL + """main stream plan{
  streamlet u, r0, r1, r2 = new-streamlet (redirector);
  channel s0, s1 = new-channel (hoSync);
  connect (u.po, r0.pi);
  connect (r0.po, r1.pi, s0);
  connect (r1.po, r2.pi, s1);
}""")
        InlineScheduler(stream)
        snap = stream.topology_snapshot()
        fused = snap.nodes["r0"]
        assert [m.name for m in fused.members] == ["r0", "r1", "r2"]
        for index, member in enumerate(fused.members[:-1], 1):
            assert member.onward == {"po": (None, fused, index, "pi")}  # elided
        # the same continuation, with the channel kept: a hand-off
        assert snap.nodes["u"].onward == {
            "po": (stream.node("r0").inputs["pi"], fused, 0, "pi")
        }
        for view in snap.nodes.values():
            assert not hasattr(view, "next_port") and not hasattr(view, "consumers")
        stream.end()

    def test_no_interior_probe_without_residue(self, monkeypatch):
        _server, stream = deploy(redirector_chain_mcl(4, sync=True))
        scheduler = InlineScheduler(stream)
        probes = []
        for name in ("s0", "s1", "s2"):
            queue = stream.channel(name).queue
            monkeypatch.setattr(queue, "is_empty", lambda q=queue: probes.append(q) or not len(q))
        for i in range(3):
            stream.post(text(b"m%d" % i))
            scheduler.pump()
        assert len(stream.collect()) == 3
        assert probes == []
        assert stream.topology_snapshot().nodes["r0"].interior == ()
        stream.end()

    def test_residue_leaves_before_a_message_handed_toward_it(self):
        _server, stream = deploy(self.FUSED)
        scheduler = InlineScheduler(stream)
        assert stream.fusion_groups() == (("r0", "r1"),)  # r2 has two inputs
        # park a unit on s1 while r2 is paused, then re-fuse r0..r2 around it
        stream.node("r2").streamlet.pause()
        stream.post(text(b"early"), "u.pi")
        scheduler.pump()
        assert stream.channel("s1").pending() == 1
        stream.disconnect("x.po", "r2.pj")
        stream.node("r2").streamlet.activate()
        assert stream.fusion_groups() == (("r0", "r1", "r2"),)
        assert stream.topology_snapshot().nodes["r0"].interior  # residue seen
        stream.post(text(b"fresh"), "u.pi")
        scheduler.pump()
        assert bodies(stream.collect()) == [b"early", b"fresh"]
        assert stream.channel("c0").queue.watermark == 1  # u posted, did not hand off
        assert_conservation(stream)
        stream.end()

    def test_a_supervisor_re_post_mid_chain_is_drained(self):
        _server, stream = deploy(SYNC_CHANNEL + """main stream rp{
  streamlet u, r0, r2 = new-streamlet (redirector);
  streamlet f = new-streamlet (ho_flaky);
  channel s0, s1 = new-channel (hoSync);
  connect (u.po, r0.pi);
  connect (r0.po, f.pi, s0);
  connect (f.po, r2.pi, s1);
}""")
        scheduler = InlineScheduler(stream)
        assert stream.fusion_groups() == (("r0", "f", "r2"),)
        supervisor = Supervisor(stream, RecoveryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0))
        supervisor.attach()
        stream.post(text(b"once"))
        scheduler.pump()
        assert stream.channel("s0").pending() == 0
        assert supervisor.pump_retries() == 1  # lands on s0, inside the chain
        scheduler.pump()
        assert bodies(stream.collect()) == [b"once"]
        assert_conservation(stream)
        stream.end()

    RETRIED = """main stream rp{
  streamlet u, r0, r2 = new-streamlet (redirector);
  streamlet f = new-streamlet (ho_flaky);
  channel s0, s1 = new-channel (%s);
  connect (u.po, r0.pi);
  connect (r0.po, f.pi, s0);
  connect (f.po, r2.pi, s1);
}"""

    def test_a_retry_into_a_fused_interior_retires_the_snapshot_and_keeps_fifo(self):
        _server, stream = deploy(SYNC_CHANNEL + self.RETRIED % "hoSync")
        scheduler = InlineScheduler(stream)
        assert stream.fusion_groups() == (("r0", "f", "r2"),)
        supervisor = Supervisor(stream, RecoveryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0))
        supervisor.attach()
        stream.post(text(b"once-1"))
        scheduler.pump()  # f fails it: the supervisor holds it
        version = stream.snapshot_version
        assert supervisor.pump_retries() == 1  # onto s0, which the snapshot elides
        stream.post(text(b"then-2"))
        scheduler.pump()
        assert stream.snapshot_version > version  # rebuilt to list s0 as residue
        assert bodies(stream.collect()) == [b"once-1", b"then-2"]
        assert_conservation(stream)
        stream.end()

    def test_a_retry_on_an_unfused_chain_keeps_the_snapshot(self):
        _server, stream = deploy(ASYNC_CHANNEL + self.RETRIED % "hoAsync")
        scheduler = InlineScheduler(stream)
        assert stream.fusion_groups() == ()
        supervisor = Supervisor(stream, RecoveryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0))
        supervisor.attach()
        stream.post(text(b"once-1"))
        scheduler.pump()
        version = stream.snapshot_version
        assert supervisor.pump_retries() == 1  # onto s0, f's own input
        stream.post(text(b"then-2"))
        scheduler.pump()
        assert stream.snapshot_version == version  # nothing to rebuild
        assert bodies(stream.collect()) == [b"once-1", b"then-2"]
        assert_conservation(stream)
        stream.end()


def _run(engine: str) -> dict:
    """Twenty messages through an async chain with a fan-out, on one engine."""
    _server, stream = deploy(ASYNC_CHANNEL + """main stream eq{
  streamlet a, b, z = new-streamlet (redirector);
  streamlet d = new-streamlet (ho_dup);
  channel c0, c1, c2 = new-channel (hoAsync);
  connect (a.po, b.pi, c0);
  connect (b.po, d.pi, c1);
  connect (d.po, z.pi, c2);
}""")
    if engine == "inline":
        scheduler = InlineScheduler(stream)
    else:
        scheduler = OffLoop(stream)  # the gateway's executor
    delivered = []
    try:
        for i in range(20):
            stream.post(text(b"m%02d" % i))
            if engine == "inline":
                scheduler.pump()
                delivered += stream.collect()
            else:
                scheduler.kick()
        if engine == "threaded":
            assert scheduler.drain(timeout=10.0)
            delivered += scheduler.collect()
        watermarks = {name: q.watermark for name, q in interior_queues(stream).items()}
    finally:
        if engine == "threaded":
            scheduler.stop()  # ends the stream: nothing is left to drop
    stats = dataclasses.asdict(stream.stats)
    counters = {r["channel"]: (r["posted"], r["fetched"]) for r in stream.queue_introspect()}
    stream.end()
    return {
        "frames": [serialize_message(m) for m in delivered],
        "stats": stats,
        "counters": counters,
        "watermarks": watermarks,
    }


def test_inline_and_threaded_agree_on_everything_but_the_queueing():
    inline, threaded = _run("inline"), _run("threaded")
    assert len(inline["frames"]) == 40
    for key in ("frames", "stats", "counters"):
        assert inline[key] == threaded[key], key
    # one message at a time is handed along: only a twin pair's second half queues
    assert all(mark == 0 for name, mark in inline["watermarks"].items()
               if name != "c2")
