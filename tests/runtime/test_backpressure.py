"""Backpressure on a stream stepped by the gateway's executor.

A producer faster than its consumer must not (a) deadlock the stream or
(b) drop messages while the consumer keeps up: the pump's headroom rule
visits the consumer before a bounded channel overflows, and FIFO order
survives.  A consumer that stops taking (paused) leaves the Figure 6-9
policy in charge: what does not fit is dropped and released at once.
"""

import time

from repro.apps import build_server
from repro.mcl import astnodes as ast
from repro.mime.mediatype import TEXT_PLAIN
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Streamlet

from tests.offloop import OffLoop

DEFS = """
streamlet fastsrc{
  port{ in pi : text/*; out po : text/plain; }
}
streamlet slowsink{
  port{ in pi : text/*; out po : text/plain; }
}
channel tiny{
  port{ in cin : text/*; out cout : text/*; }
  attribute{ buffer = 1; }
}
"""

SOURCE = DEFS + """
main stream squeeze{
  streamlet a = new-streamlet (fastsrc);
  streamlet b = new-streamlet (slowsink);
  channel t = new-channel (tiny);
  connect (a.po, b.pi, t);
}
"""


class Fast(Streamlet):
    """Forwards immediately."""

    def process(self, port, message, ctx):
        return [("po", message)]


class Slow(Streamlet):
    """Simulates heavy per-message service time."""

    def process(self, port, message, ctx):
        time.sleep(0.002)
        return [("po", message)]


def deploy():
    server = build_server()
    from repro.mcl.parser import parse_script

    for d in parse_script(DEFS).streamlets:
        server.directory.advertise(d, Fast if d.name == "fastsrc" else Slow)
    return server, server.deploy_script(SOURCE)


class TestBackpressure:
    def test_no_loss_with_drop_timeout(self):
        _server, stream = deploy()
        scheduler = OffLoop(stream)
        try:
            payloads = [f"burst-{i}".encode() * 40 for i in range(30)]
            for payload in payloads:  # far more than the 1 KB channel holds
                stream.post(MimeMessage(TEXT_PLAIN, payload))
            assert scheduler.drain(timeout=30)
            bodies = [m.body for m in scheduler.collect()]
        finally:
            scheduler.stop()  # ends the stream
        # nothing dropped, FIFO order intact, no deadlock
        assert bodies == payloads
        assert stream.stats.queue_drops == 0

    def test_drops_when_timeout_zero(self):
        _server, stream = deploy()
        stream.node("b").streamlet.pause()  # the consumer stops taking
        scheduler = OffLoop(stream)
        try:
            for i in range(30):
                stream.post(MimeMessage(TEXT_PLAIN, f"b{i}".encode() * 60))
            scheduler.drain(timeout=5)  # b's channel holds what fits
            stream.resume_all()
            assert scheduler.drain(timeout=30)
            delivered = scheduler.collect()
        finally:
            scheduler.stop()  # ends the stream
        # Figure 6-9 policy: the fast producer drops instead of stalling
        assert stream.stats.queue_drops > 0
        assert len(delivered) + stream.stats.queue_drops == 30
        assert len(stream.pool) == 0  # dropped messages were released
