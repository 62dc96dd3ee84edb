"""Concurrency: reconfiguration under traffic on an executor-stepped session.

The thesis runs its reconfiguration experiments on a live multithreaded
system.  Here the stream is a gateway session whose composition may
block (``text_compress``), so the egress pump steps it on its executor
while a feeder thread admits traffic and the test thread rewires it:
the write section keeps wiring changes and message processing mutually
consistent — no lost messages, no reordering, no crashes — when events
land mid-flight.
"""

import threading
import time

import pytest

from repro.apps import build_server
from repro.client.client import MobiGateClient
from repro.mime.message import MimeMessage

from tests.offloop import OffLoop

SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
main stream live{
  streamlet a = new-streamlet (tap);
  streamlet b = new-streamlet (tap);
  streamlet tc = new-streamlet (text_compress);
  connect (a.po, b.pi);
  when (LOW_BANDWIDTH){ insert (a.po, b.pi, tc); }
}
"""


@pytest.fixture
def live_stream():
    server = build_server()
    stream = server.deploy_script(SOURCE)
    scheduler = OffLoop(stream)  # an executor-stepped gateway session
    assert scheduler.session.stepped_by == "executor"
    yield server, stream, scheduler
    scheduler.stop()


class TestThreadedReconfiguration:
    def test_insert_under_load(self, live_stream):
        server, stream, scheduler = live_stream
        client = MobiGateClient()
        payloads = [f"message-{i}".encode() * 5 for i in range(60)]

        def feed():
            for payload in payloads:
                scheduler.session.offer(MimeMessage("text/plain", payload))
                time.sleep(0.0002)

        feeder = threading.Thread(target=feed)
        feeder.start()
        time.sleep(0.004)  # let some traffic flow uncompressed
        with stream.topology_lock:
            # simulate the event manager firing mid-stream: the lock
            # serialises the rewire against in-flight processing
            stream.insert("a.po", "b.pi", "tc")
        feeder.join()
        assert scheduler.drain(timeout=15)

        delivered = []
        for wire in scheduler.collect():
            delivered.extend(client.receive(wire))
        # nothing lost, nothing reordered
        assert [m.body for m in delivered] == payloads
        # and the tail of the traffic really was compressed
        assert stream.node("tc").streamlet.processed > 0

    def test_event_driven_insert_under_load(self, live_stream):
        server, stream, scheduler = live_stream
        client = MobiGateClient()
        payloads = [f"p{i}".encode() * 10 for i in range(40)]

        stop = threading.Event()

        def feed():
            for payload in payloads:
                scheduler.session.offer(MimeMessage("text/plain", payload))
                time.sleep(0.0002)
            stop.set()

        feeder = threading.Thread(target=feed)
        feeder.start()
        time.sleep(0.003)
        server.events.raise_event("LOW_BANDWIDTH")  # handler runs under lock
        feeder.join()
        assert scheduler.drain(timeout=15)
        delivered = []
        for wire in scheduler.collect():
            delivered.extend(client.receive(wire))
        assert [m.body for m in delivered] == payloads
        assert stream.stats.events_handled == 1
