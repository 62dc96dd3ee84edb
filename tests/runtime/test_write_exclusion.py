"""A write section waits out the view visit in flight.

One lock per stream (``RuntimeStream.topology_lock``): the scheduler holds
it for each view visit, and every rewrite takes it for its write section.
This forces the interleaving that ``test_reconfig_storm.py`` only samples:
thread A pumps a chain whose middle streamlet is blocked inside
``process``; thread B rewires the stream meanwhile.  B must not return
while the step is in flight, and once the step ends B completes, the
message is delivered once and the conservation ledger balances.  The
write goes in right after the visit in flight, not after the whole pump
(the turnstile), and a stress case races steps against rewrites.
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
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.streamlet import Streamlet

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

    entered = threading.Event()
    release = threading.Event()

    def process(self, port, message, ctx):
        type(self).entered.set()
        type(self).release.wait(10)
        return [("po", message)]


def _held_stream(**scheduler_options):
    """The chain deployed with ``mid`` holding, and its scheduler."""
    _Hold.entered.clear()
    _Hold.release.clear()
    server = build_server()
    (definition,) = parse_script(DEFS).streamlets
    server.directory.advertise(definition, _Hold)
    stream = server.deploy_script(SOURCE)
    return stream, InlineScheduler(stream, **scheduler_options)


def _write_while_held(scheduler, write) -> list:
    """Pump on one thread; once ``mid`` holds, ``write`` on another.

    Asserts that the write has not returned while ``mid`` holds, then
    releases it and returns what either thread raised.
    """
    failures = []

    def run(work):
        try:
            work()
        except Exception as exc:  # surfaced by the caller's asserts
            failures.append(exc)

    pumping = threading.Thread(target=run, args=(scheduler.pump,))
    writing = threading.Thread(target=run, args=(write,))
    try:
        pumping.start()
        assert _Hold.entered.wait(5), "the middle streamlet never ran"
        writing.start()
        writing.join(0.3)
        assert writing.is_alive(), "the write returned while a step was in flight"
    finally:
        _Hold.release.set()
        writing.join(5)
        pumping.join(5)
    assert not writing.is_alive(), "the write did not return after the step ended"
    assert not pumping.is_alive()
    return failures


def test_a_write_waits_out_the_step_in_flight():
    stream, scheduler = _held_stream()
    stream.post(MimeMessage(TEXT_PLAIN, b"once"))
    assert _write_while_held(scheduler, lambda: stream.insert("mid.po", "z.pi", "x")) == []
    assert stream.node("x").inputs  # the insert went through
    scheduler.pump()
    delivered = stream.collect()
    assert [m.body for m in delivered] == [b"once"]
    report = check_conservation(stream)
    assert report.balanced, report
    assert report.delivered == 1
    stream.end()


def test_a_waiting_write_goes_before_the_next_visit():
    """The stream's lock is not fair; the turnstile makes the write go next.

    Without it the pumping thread, releasing the lock at the end of a
    visit, takes it straight back for the next one, and the write waits
    out the whole pump instead of the visit in flight.
    """
    stream, scheduler = _held_stream(batch=1)  # one message per visit
    for i in range(20):
        stream.post(MimeMessage(TEXT_PLAIN, b"m%d" % i))
    seen = []

    def write():
        with stream._write_access():
            seen.append(stream.node("mid").streamlet.processed)

    assert _write_while_held(scheduler, write) == []
    assert seen == [1]  # the visit in flight, and not one more
    scheduler.pump()
    assert len(stream.collect()) == 20
    assert check_conservation(stream).balanced
    stream.end()


CHAIN = """
main stream storm{
  streamlet a, b, c = new-streamlet (redirector);
  connect (a.po, b.pi);
}
"""


def test_writes_racing_steps_lose_and_reorder_nothing():
    """A stress case: more threads than cores, a short switch interval.

    One thread pumps and collects, one posts, and two rewrite the stream
    (PAUSE/RESUME, and splicing a redirector in and out): every message
    arrives once, in order, and the ledger balances.
    """
    server = build_server()
    stream = server.deploy_script(CHAIN)
    scheduler = InlineScheduler(stream)
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

    def pump():
        while not stop.is_set():
            scheduler.pump()
            delivered.extend(stream.collect())

    def feed():
        for body in bodies:
            stream.post(MimeMessage(TEXT_PLAIN, body))
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
               for work in (pump, feed, pause_resume, splice)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not stop.is_set():
            if fed.is_set() and len(delivered) == len(bodies):
                break
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(interval)
    assert failures == []
    assert not any(thread.is_alive() for thread in threads)
    scheduler.pump()
    delivered.extend(stream.collect())
    assert [m.body for m in delivered] == bodies
    report = check_conservation(stream)
    assert report.balanced, report
    stream.end()
