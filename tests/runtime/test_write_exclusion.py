"""A verb waits out the view visit in flight of a lent stream.

One owner per stream: a stream whose composition may block is lent
whole to its share on the gateway's executor, and a verb reaches it only
through the owner call (``tests/offloop.py``), which recalls the share
and runs on the loop once the stream is back.  This forces the
interleaving that ``test_reconfig_storm.py`` only samples: the share is
blocked inside the ``process`` of the chain's middle streamlet while the
test thread issues a rewrite through the owner call.  The verb must not
return while ``process`` is blocked, and returns within 5 s of the
release; it goes in after the visit in flight, not after the whole
share; the message is delivered once and the conservation ledger
balances.  A stress case races shares against verbs.
"""

import sys
import threading
import time

from repro.apps import build_server
from repro.errors import ReconfigurationError
from repro.faults import check_conservation
from repro.mcl.parser import parse_script
from repro.mime.mediatype import TEXT_PLAIN
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Streamlet

from tests.offloop import OffLoop

DEFS = """
streamlet hold{
  port{ in pi : */*; out po : */*; }
}
"""

SOURCE = DEFS + """
main stream gate{
  streamlet a, z, x = new-streamlet (redirector);
  streamlet mid = new-streamlet (hold);
  connect (a.po, mid.pi);
  connect (mid.po, z.pi);
}
"""


class _Hold(Streamlet):
    """Blocks in ``process`` until the test releases it."""

    cooperative = False
    entered = threading.Event()
    release = threading.Event()

    def process(self, port, message, ctx):
        type(self).entered.set()
        type(self).release.wait(10)
        return [("po", message)]


def _held_stream(**options):
    """The chain deployed with ``mid`` holding, lent to an off-loop share."""
    _Hold.entered.clear()
    _Hold.release.clear()
    server = build_server()
    (definition,) = parse_script(DEFS).streamlets
    server.directory.advertise(definition, _Hold)
    stream = server.deploy_script(SOURCE)
    return stream, OffLoop(stream, **options)


def _verb_while_held(offloop, verb) -> list:
    """Start the share; once ``mid`` holds, issue ``verb`` on another thread.

    Asserts that the verb has not returned while ``mid`` holds and that
    it returns within 5 s of the release; returns what it raised.
    """
    failures = []

    def run():
        try:
            verb()
        except Exception as exc:  # surfaced by the caller's asserts
            failures.append(exc)

    verbing = threading.Thread(target=run)
    try:
        offloop.kick()
        assert _Hold.entered.wait(5), "the middle streamlet never ran"
        verbing.start()
        verbing.join(0.3)
        assert verbing.is_alive(), "the verb returned while the share was in process"
    finally:
        _Hold.release.set()
        released = time.monotonic()
        verbing.join(5)
    assert not verbing.is_alive(), "the verb did not return after the release"
    assert time.monotonic() - released < 5
    return failures


def test_a_write_waits_out_the_step_in_flight():
    stream, offloop = _held_stream()
    try:
        stream.post(MimeMessage(TEXT_PLAIN, b"once"))
        assert _verb_while_held(offloop, lambda: stream.insert("mid.po", "z.pi", "x")) == []
        assert offloop.call(lambda: bool(stream.node("x").inputs))  # the insert went in
        assert offloop.drain(timeout=10)
        assert [m.body for m in offloop.collect()] == [b"once"]
        report = offloop.call(check_conservation, stream)
        assert report.balanced, report
        assert report.delivered == 1
    finally:
        offloop.stop()


def test_a_waiting_write_goes_before_the_next_visit():
    """The recall is read before every view visit: the verb goes next.

    Twenty one-message visits are queued behind the one in flight; the
    verb sees exactly the one that was in flight, not the whole share.
    """
    stream, offloop = _held_stream(batch=1)  # one message per visit
    try:
        offloop.call(lambda: [stream.post(MimeMessage(TEXT_PLAIN, b"m%d" % i))
                              for i in range(20)])  # one call: no share starts between
        seen = []

        def verb():
            seen.append(offloop.call(lambda: stream.node("mid").streamlet.processed))

        assert _verb_while_held(offloop, verb) == []
        assert seen == [1]  # the visit in flight, and not one more
        assert offloop.drain(timeout=10)
        assert len(offloop.collect()) == 20
        assert offloop.call(check_conservation, stream).balanced
    finally:
        offloop.stop()


CHAIN = """
main stream storm{
  streamlet a, b, c = new-streamlet (redirector);
  connect (a.po, b.pi);
}
"""


def test_writes_racing_steps_lose_and_reorder_nothing():
    """A stress case: more threads than cores, a short switch interval.

    The stream is lent to share after share while one thread posts and
    two rewrite it (PAUSE/RESUME, and splicing a redirector in and out),
    all through the owner call: every message arrives once, in order,
    and the ledger balances.
    """
    server = build_server()
    stream = server.deploy_script(CHAIN)
    offloop = OffLoop(stream)
    bodies = [f"m{i}".encode() for i in range(300)]
    delivered = []
    fed = threading.Event()
    stop = threading.Event()
    failures = []

    def guarded(work):
        def body():
            try:
                work()
            except Exception as exc:  # surfaced by the asserts below
                failures.append(exc)
                stop.set()
        return body

    def feed():
        for body in bodies:
            stream.post(MimeMessage(TEXT_PLAIN, body))
            offloop.kick()
        fed.set()

    def pause_resume():
        while not stop.is_set():
            stream.pause_all()
            stream.resume_all()

    def splice():
        while not stop.is_set():
            stream.insert("a.po", "b.pi", "c")
            while not stop.is_set():
                try:
                    stream.extract_streamlet("c")
                    break
                except ReconfigurationError:
                    pass  # c's input still holds a message: not yet

    threads = [threading.Thread(target=guarded(work))
               for work in (feed, pause_resume, splice)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not stop.is_set():
            offloop.kick()
            delivered.extend(offloop.collect())
            if fed.is_set() and len(delivered) == len(bodies):
                break
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(interval)
    try:
        assert failures == []
        assert not any(thread.is_alive() for thread in threads)
        assert offloop.drain(timeout=10)
        delivered.extend(offloop.collect())
        assert [m.body for m in delivered] == bodies
        report = offloop.call(check_conservation, stream)
        assert report.balanced, report
    finally:
        offloop.stop()
