"""Focused tests for scheduler mechanics not covered elsewhere."""

import pytest

from repro.apps import build_server
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler

from tests.offloop import OffLoop

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


@pytest.fixture
def deployed():
    server = build_server()
    stream = server.deploy_script(SOURCE)
    return server, stream


class TestInlinePump:
    def test_pump_returns_move_count(self, deployed):
        _server, stream = deployed
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"x"))
        moved = scheduler.pump()
        assert moved == 3  # one message through three streamlets

    def test_pump_idle_returns_zero(self, deployed):
        _server, stream = deployed
        assert InlineScheduler(stream).pump() == 0

    def test_max_rounds_bounds_progress(self, deployed):
        _server, stream = deployed
        scheduler = InlineScheduler(stream)
        # pause downstream so each round moves exactly one hop
        stream.node("b").streamlet.pause()
        stream.node("c").streamlet.pause()
        stream.post(MimeMessage("text/plain", b"x"))
        moved = scheduler.pump(max_rounds=1)
        assert moved == 1
        assert stream.node("b").inputs["pi"].pending() == 1

    def test_run_to_completion_collects_trailing(self, deployed):
        _server, stream = deployed
        scheduler = InlineScheduler(stream)
        messages = [MimeMessage("text/plain", f"m{i}".encode()) for i in range(4)]
        outs = scheduler.run_to_completion(messages)
        assert [m.body for m in outs] == [f"m{i}".encode() for i in range(4)]

    def test_paused_node_skipped(self, deployed):
        _server, stream = deployed
        scheduler = InlineScheduler(stream)
        stream.node("b").streamlet.pause()
        stream.post(MimeMessage("text/plain", b"held"))
        scheduler.pump()
        assert stream.collect() == []
        stream.node("b").streamlet.activate()
        scheduler.pump()
        assert len(stream.collect()) == 1


class TestThreadedLifecycle:
    """A stream stepped by the gateway's executor (``scheduler="threaded"``)."""

    def test_a_removed_instance_is_stepped_around(self, deployed):
        _server, stream = deployed
        scheduler = OffLoop(stream)
        try:
            stream.remove_streamlet("b")  # heals a -> c
            stream.post(MimeMessage("text/plain", b"through"))
            assert scheduler.drain(timeout=10)
            assert len(scheduler.collect()) == 1
        finally:
            scheduler.stop()

    def test_stop_idempotent_after_drain(self, deployed):
        _server, stream = deployed
        scheduler = OffLoop(stream)
        assert scheduler.drain(timeout=10)
        scheduler.stop()
        scheduler.stop()  # second stop is a no-op
        assert stream.ended
