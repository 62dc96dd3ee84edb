"""Regression tests for the message-lifecycle leak sweep.

Each test pins one fixed bug:

* ``RuntimeStream.end()`` never closed the egress carriers, leaking the
  pool entries (and traced-id/enqueued map entries) of uncollected
  deliveries;
* the ingress drop path in ``RuntimeStream.post()`` released the pool
  entry but never told telemetry to forget the id, so sustained ingress
  pressure leaked the traced-id set;
* ``MessageQueue.post_message`` burned its whole wait budget on the first
  spurious wakeup (single ``cond.wait`` instead of a deadline loop);
* the drop path at ``drop_timeout=0`` must release every dropped id and
  fire the drop signal (pinned first on the thread-per-streamlet
  engine's stall retries; now on a stream the gateway's executor steps);
* ``GatewayServer.stop()`` shuts the egress pump's executor down, and no
  thread the gateway started outlives it.
"""

import threading
import time

import pytest

from repro.apps import build_server
from repro.faults import check_conservation
from repro.mcl.parser import parse_script
from repro.mime.mediatype import TEXT_PLAIN
from repro.mime.message import MimeMessage
from repro.runtime.message_queue import MessageQueue
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.streamlet import Streamlet
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry

from tests.offloop import OffLoop

SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
main stream s{
  streamlet a, b = new-streamlet (tap);
  connect (a.po, b.pi);
}
"""


def traced_server():
    """A server whose telemetry traces every message (interval=1)."""
    return build_server(
        telemetry=Telemetry(registry=MetricsRegistry(), trace_sample_interval=1)
    )


class TestEndClosesEgress:
    def test_uncollected_deliveries_are_released(self):
        server = traced_server()
        stream = server.deploy_script(SOURCE)
        scheduler = InlineScheduler(stream)
        for i in range(3):
            stream.post(MimeMessage(TEXT_PLAIN, f"d{i}".encode()))
        scheduler.pump()
        # messages fully processed but never collect()ed: they sit in the
        # egress carriers, still owning pool entries
        assert len(stream.pool) == 3
        stream.end()
        assert len(stream.pool) == 0
        assert stream.stats.end_drops == 3
        # telemetry's per-id maps were shed too
        assert not stream.tm.traced_ids
        assert not stream.tm.enqueued

    def test_egress_queues_are_closed(self):
        server = traced_server()
        stream = server.deploy_script(SOURCE)
        stream.end()
        for _ref, channel in stream.egress:
            assert channel.queue.closed

    def test_end_is_idempotent(self):
        server = traced_server()
        stream = server.deploy_script(SOURCE)
        stream.post(MimeMessage(TEXT_PLAIN, b"x"))
        InlineScheduler(stream).pump()
        stream.end()
        drops = stream.stats.end_drops
        stream.end()
        assert stream.stats.end_drops == drops


class TestIngressDropForgets:
    def test_dropped_post_sheds_telemetry_maps(self):
        server = traced_server()
        stream = server.deploy_script(SOURCE)
        key = next(iter(stream.ingress))
        stream.ingress[key].post = lambda *a, **k: False  # force the drop path
        msg_id = stream.post(MimeMessage(TEXT_PLAIN, b"refused"))
        assert stream.stats.queue_drops == 1
        assert msg_id not in stream.pool
        # the regression: these two maps used to keep the id forever
        assert msg_id not in stream.tm.traced_ids
        assert msg_id not in stream.tm.enqueued


class TestPostMessageDeadline:
    def test_spurious_wakeups_do_not_burn_the_budget(self):
        q = MessageQueue(10)
        q.post_message("a", 10)  # full
        stop = threading.Event()

        def heckler():
            # notify repeatedly without freeing any room — each notify is
            # a spurious wakeup for the waiting producer
            while not stop.is_set():
                with q._not_full:
                    q._not_full.notify_all()
                time.sleep(0.01)

        t = threading.Thread(target=heckler)
        t.start()
        try:
            t0 = time.monotonic()
            assert not q.post_message("b", 10, timeout=0.3)
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            t.join()
        # pre-fix behaviour: the first notify (~10 ms in) ended the wait
        assert elapsed >= 0.25
        assert q.dropped == 1

    def test_wait_still_succeeds_when_room_appears(self):
        q = MessageQueue(10)
        q.post_message("a", 10)

        def consume_later():
            time.sleep(0.05)
            q.fetch_message()

        t = threading.Thread(target=consume_later)
        t.start()
        assert q.post_message("b", 10, timeout=2.0)
        t.join()

    def test_close_during_wait_raises(self):
        from repro.errors import QueueClosedError

        q = MessageQueue(10)
        q.post_message("a", 10)

        def close_later():
            time.sleep(0.05)
            q.close()

        t = threading.Thread(target=close_later)
        t.start()
        with pytest.raises(QueueClosedError):
            q.post_message("b", 10, timeout=2.0)
        t.join()


TINY_DEFS = """
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

TINY_SOURCE = TINY_DEFS + """
main stream squeeze{
  streamlet a = new-streamlet (fastsrc);
  streamlet b = new-streamlet (slowsink);
  channel t = new-channel (tiny);
  connect (a.po, b.pi, t);
}
"""


class _Fast(Streamlet):
    def process(self, port, message, ctx):
        return [("po", message)]


class _Slow(Streamlet):
    def process(self, port, message, ctx):
        time.sleep(0.002)
        return [("po", message)]


class TestThreadedStallRetryDrops:
    def test_drop_timeout_zero_leaks_nothing(self):
        server = build_server(drop_timeout=0.0)
        for d in parse_script(TINY_DEFS).streamlets:
            server.directory.advertise(d, _Fast if d.name == "fastsrc" else _Slow)
        stream = server.deploy_script(TINY_SOURCE)
        dropped_ids = []
        stream.drop_hook = lambda msg_id, message: dropped_ids.append(msg_id)
        stream.node("b").streamlet.pause()  # the consumer stops taking
        scheduler = OffLoop(stream)
        try:
            n = 30
            for i in range(n):
                stream.post(MimeMessage(TEXT_PLAIN, f"b{i}".encode() * 60))
            scheduler.drain(timeout=5)  # b's channel holds what fits
            stream.resume_all()
            assert scheduler.drain(timeout=30)
        finally:
            scheduler.stop()  # ends the stream
        assert stream.stats.queue_drops > 0  # the squeeze really dropped
        assert len(stream.pool) == 0  # no pool leak
        # every drop fired the drop signal exactly once
        assert len(dropped_ids) == stream.stats.queue_drops
        assert len(set(dropped_ids)) == len(dropped_ids)
        report = check_conservation(stream)
        assert report.balanced
        assert report.delivered + stream.stats.queue_drops == n


class TestExecutorShutdown:
    def test_stop_shuts_the_executor_down_and_leaves_no_thread(self):
        from dataclasses import replace

        from repro.gateway import GatewayServer
        from repro.streamlets.basic import REDIRECTOR_DEF, Redirector

        before = set(threading.enumerate())
        gateway = GatewayServer()
        gateway.mobigate.directory.advertise(
            replace(REDIRECTOR_DEF, name="may_block"),
            type("MayBlock", (Redirector,), {"cooperative": False}),
        )
        mcl = """main stream off{
  streamlet a, b = new-streamlet (may_block);
  connect (a.po, b.pi);
}"""
        with gateway.run_in_thread() as handle:
            session = gateway.deploy(mcl, session_key="off")
            assert session.stepped_by == "executor"
            assert session.offer(MimeMessage(TEXT_PLAIN, b"x")) == "admitted"
            deadline = time.monotonic() + 10
            while session.stats.snapshot()["frames_out"] < 1:
                assert time.monotonic() < deadline, "the executor never stepped"
                time.sleep(0.005)
            assert any(t.name.startswith("gw-step") for t in threading.enumerate())
            executor = gateway.egress._executor
            assert executor is not None
            handle.stop()
        assert gateway.egress._executor is None
        assert executor._shutdown
        leftover = [t for t in threading.enumerate() if t not in before and t.is_alive()]
        assert leftover == [], leftover
