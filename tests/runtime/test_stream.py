import pytest

from repro.errors import CompositionError, ReconfigurationError
from repro.mcl import astnodes as ast
from repro.mime.message import MimeMessage
from repro.runtime.directory import StreamletDirectory
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.server import MobiGateServer
from repro.runtime.streamlet import Streamlet

from tests.offloop import OffLoop

DEFS = """
streamlet upper{
  port{ in pi : text/*; out po : text/plain; }
}
streamlet exclaim{
  port{ in pi : text/*; out po : text/plain; }
}
streamlet tag{
  port{ in pi : text/*; out po : text/plain; }
}
"""

PIPELINE = DEFS + """
main stream pipe{
  streamlet u = new-streamlet (upper);
  streamlet e = new-streamlet (exclaim);
  connect (u.po, e.pi);
}
"""


class Upper(Streamlet):
    def process(self, port, message, ctx):
        message.set_body(message.body.decode().upper().encode())
        return [("po", message)]


class Exclaim(Streamlet):
    def process(self, port, message, ctx):
        message.set_body(message.body + b"!")
        return [("po", message)]


class Tag(Streamlet):
    peer_id = "untag"

    def process(self, port, message, ctx):
        message.set_body(b"[" + message.body + b"]")
        return [("po", message)]


class Absorb(Streamlet):
    def process(self, port, message, ctx):
        return []


@pytest.fixture
def server():
    srv = MobiGateServer()
    for name, cls in [("upper", Upper), ("exclaim", Exclaim), ("tag", Tag)]:
        # definitions come from the script; advertise only the factories
        pass
    return srv


def deploy(server, source, **kw):
    # register implementation factories for script-local definitions
    from repro.mcl.parser import parse_script

    impls = {"upper": Upper, "exclaim": Exclaim, "tag": Tag}
    for d in parse_script(source).streamlets:
        if d.name in impls and d.name not in server.directory:
            server.directory.advertise(d, impls[d.name])
    return server.deploy_script(source, **kw)


def text(body=b"hello"):
    return MimeMessage("text/plain", body)


class TestBasicFlow:
    def test_two_stage_pipeline(self, server):
        stream = deploy(server, PIPELINE)
        scheduler = InlineScheduler(stream)
        stream.post(text(b"hello"))
        scheduler.pump()
        [out] = stream.collect()
        assert out.body == b"HELLO!"

    def test_message_order_preserved(self, server):
        stream = deploy(server, PIPELINE)
        scheduler = InlineScheduler(stream)
        for i in range(5):
            stream.post(text(f"m{i}".encode()))
        scheduler.pump()
        bodies = [m.body for m in stream.collect()]
        assert bodies == [f"M{i}!".encode() for i in range(5)]

    def test_session_stamped(self, server):
        stream = deploy(server, PIPELINE)
        scheduler = InlineScheduler(stream)
        stream.post(text())
        scheduler.pump()
        [out] = stream.collect()
        assert out.session == stream.session

    def test_stats(self, server):
        stream = deploy(server, PIPELINE)
        InlineScheduler(stream).run_to_completion([text(), text()])
        assert stream.stats.messages_in == 2
        assert stream.stats.messages_out == 2
        assert stream.stats.processed == 4  # 2 messages x 2 streamlets

    def test_pass_by_reference_no_copies(self, server):
        stream = deploy(server, PIPELINE)
        InlineScheduler(stream).run_to_completion([text()])
        assert stream.pool.copies == 0

    def test_peer_stack_pushed(self, server):
        source = DEFS + """
main stream tagged{
  streamlet t = new-streamlet (tag);
  streamlet e = new-streamlet (exclaim);
  connect (t.po, e.pi);
}
"""
        stream = deploy(server, source)
        [out] = InlineScheduler(stream).run_to_completion([text(b"x")])
        assert out.headers.peer_stack() == ["untag"]

    def test_post_bad_port(self, server):
        stream = deploy(server, PIPELINE)
        with pytest.raises(CompositionError):
            stream.post(text(), 5)
        with pytest.raises(CompositionError):
            stream.post(text(), "ghost.pi")

    def test_end_releases_instances(self, server):
        stream = deploy(server, PIPELINE)
        stream.end()
        assert stream.ended
        # pooled stateless instances returned
        assert server.manager._pools["upper"].idle_count >= 1


class TestExecutorStepped:
    def test_pipeline_delivery(self, server):
        stream = deploy(server, PIPELINE)
        scheduler = OffLoop(stream)  # the gateway's executor
        try:
            for i in range(20):
                stream.post(text(f"m{i}".encode()))
            assert scheduler.drain(timeout=10)
            bodies = [m.body for m in scheduler.collect()]
            assert bodies == [f"M{i}!".encode() for i in range(20)]
        finally:
            scheduler.stop()


class TestReconfiguration:
    def test_runtime_connect_disconnect(self, server):
        source = DEFS + """
main stream rewire{
  streamlet u = new-streamlet (upper);
  streamlet e = new-streamlet (exclaim);
  streamlet t = new-streamlet (tag);
  connect (u.po, e.pi);
}
"""
        stream = deploy(server, source)
        scheduler = InlineScheduler(stream)
        [out] = scheduler.run_to_completion([text(b"a")])
        assert out.body == b"A!"
        # splice the dormant tag streamlet between u and e
        timing = stream.insert("u.po", "e.pi", "t")
        assert timing.total >= 0
        [out] = scheduler.run_to_completion([text(b"b")])
        assert out.body == b"[B]!"

    def test_insert_requires_existing_link(self, server):
        source = DEFS + """
main stream rewire{
  streamlet u = new-streamlet (upper);
  streamlet e = new-streamlet (exclaim);
  streamlet t = new-streamlet (tag);
  connect (u.po, e.pi);
}
"""
        stream = deploy(server, source)
        with pytest.raises(ReconfigurationError):
            stream.insert("e.po", "u.pi", "t")

    def test_remove_heals_pipeline(self, server):
        source = DEFS + """
main stream three{
  streamlet u = new-streamlet (upper);
  streamlet t = new-streamlet (tag);
  streamlet e = new-streamlet (exclaim);
  connect (u.po, t.pi);
  connect (t.po, e.pi);
}
"""
        stream = deploy(server, source)
        scheduler = InlineScheduler(stream)
        [out] = scheduler.run_to_completion([text(b"a")])
        assert out.body == b"[A]!"
        stream.remove_streamlet("t")
        [out] = scheduler.run_to_completion([text(b"b")])
        assert out.body == b"B!"
        assert "t" not in stream.instance_names()

    def test_remove_with_pending_messages_blocked(self, server):
        stream = deploy(server, PIPELINE)
        stream.post(text())
        # nothing pumped: u's ingress queue holds the message
        with pytest.raises(ReconfigurationError):
            stream.remove_streamlet("u")

    def test_remove_preserves_inflight_order(self, server):
        source = DEFS + """
main stream three{
  streamlet u = new-streamlet (upper);
  streamlet t = new-streamlet (tag);
  streamlet e = new-streamlet (exclaim);
  connect (u.po, t.pi);
  connect (t.po, e.pi);
}
"""
        stream = deploy(server, source)
        scheduler = InlineScheduler(stream)
        # move one message exactly one hop: it sits tagged in t->e channel
        stream.post(text(b"a"))
        scheduler.pump(max_rounds=1)
        # now remove t (its input is empty; its output channel holds [A])
        stream.remove_streamlet("t")
        stream.post(text(b"b"))
        scheduler.pump()
        bodies = [m.body for m in stream.collect()]
        assert bodies == [b"[A]!", b"B!"]

    def test_replace_swaps_behaviour(self, server):
        source = DEFS + """
main stream swap{
  streamlet u = new-streamlet (upper);
  streamlet e = new-streamlet (exclaim);
  streamlet t = new-streamlet (tag);
  connect (u.po, e.pi);
}
"""
        stream = deploy(server, source)
        scheduler = InlineScheduler(stream)
        # tag and exclaim share port names pi/po, so they are swappable
        stream.replace("e", "t")
        [out] = scheduler.run_to_completion([text(b"x")])
        assert out.body == b"[X]"
        assert "e" not in stream.instance_names()

    def test_event_handler_inserts_streamlet(self, server):
        source = DEFS + """
main stream adaptive{
  streamlet u = new-streamlet (upper);
  streamlet e = new-streamlet (exclaim);
  connect (u.po, e.pi);
  when (LOW_BANDWIDTH){
    streamlet t = new-streamlet (tag);
    insert (u.po, e.pi, t);
  }
}
"""
        stream = deploy(server, source)
        scheduler = InlineScheduler(stream)
        [before] = scheduler.run_to_completion([text(b"a")])
        assert before.body == b"A!"
        delivered = server.events.raise_event("LOW_BANDWIDTH")
        assert delivered == 1
        assert stream.last_reconfig is not None
        [after] = scheduler.run_to_completion([text(b"b")])
        assert after.body == b"[B]!"

    def test_event_scoping_ignores_other_sources(self, server):
        source = DEFS + """
main stream scoped{
  streamlet u = new-streamlet (upper);
  streamlet e = new-streamlet (exclaim);
  connect (u.po, e.pi);
  when (LOW_BANDWIDTH){
    streamlet t = new-streamlet (tag);
    insert (u.po, e.pi, t);
  }
}
"""
        stream = deploy(server, source)
        server.events.raise_event("LOW_BANDWIDTH", source="someone-else")
        assert stream.last_reconfig is None

    def test_unsubscribed_event_ignored(self, server):
        stream = deploy(server, PIPELINE)
        server.events.raise_event("LOW_ENERGY")
        assert stream.stats.events_handled == 0


class TestOpenCircuitAtRuntime:
    def test_three_stage_pipeline(self):
        server = MobiGateServer()
        source = DEFS + """
main stream chain{
  streamlet u = new-streamlet (upper);
  streamlet e = new-streamlet (exclaim);
  streamlet t = new-streamlet (tag);
  connect (u.po, e.pi);
  connect (e.po, t.pi);
}
"""
        stream = deploy(server, source)
        [out] = InlineScheduler(stream).run_to_completion([text(b"a")])
        assert out.body == b"[A!]"

    def test_emission_to_unconnected_port_dropped(self):
        server = MobiGateServer()
        stream = deploy(server, PIPELINE)
        scheduler = InlineScheduler(stream)
        # sever the u -> e link at runtime: u's emissions have nowhere to go
        stream.disconnect("u.po", "e.pi")
        stream.post(text(b"lost"))
        scheduler.pump()
        assert stream.collect() == []
        assert stream.stats.open_circuit_drops == 1
        assert len(stream.pool) == 0  # dropped message released from the pool
