"""Admission to a lent session: staged on the loop, admitted when the stream is back.

A session whose composition may block lends its whole stream to one
share at a time on the pump's executor.  An offer or a shed made on the
loop meanwhile touches nothing of the stream: the run is stamped, staged
in a loop-side list that counts against the ingress bound, and admitted
(or shed) in order by the cycle that takes the stream back, before any
owner call waiting for it runs.  These tests hold the share inside a
blocking streamlet (the harness of ``tests/runtime/test_write_exclusion.py``)
so every offer below meets a lent stream.
"""

import threading
import time
from functools import partial

from repro.apps import build_server
from repro.events import DEFAULT_CATALOG
from repro.faults import check_conservation
from repro.gateway.session import ADMITTED, FULL
from repro.mcl.parser import parse_script
from repro.mime.mediatype import TEXT_PLAIN
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.store import Ledger, open_store

from tests.offloop import _KeepingSession
from tests.runtime.test_write_exclusion import DEFS, SOURCE, _Hold


EPOCH_SOURCE = DEFS + """
main stream gate{
  streamlet a, z, x = new-streamlet (redirector);
  streamlet mid = new-streamlet (hold);
  connect (a.po, mid.pi);
  connect (mid.po, z.pi);
  when (LOW_BANDWIDTH){
    insert (mid.po, z.pi, x);
  }
}"""


def _lent(*, limit=64, ledger=None, source=SOURCE):
    """The held chain as an off-loop session, its first share blocked in ``mid``.

    ``first`` is admitted before the loan; it is what the share holds.
    """
    _Hold.entered.clear()
    _Hold.release.clear()
    server = build_server()
    (definition,) = parse_script(DEFS).streamlets
    server.directory.advertise(definition, _Hold)
    stream = server.deploy_script(source)
    session = _KeepingSession(
        "lent", stream, InlineScheduler(stream), off_loop=True, requested="threaded",
        ingress_limit=limit, telemetry=server.telemetry, ledger=ledger,
    )
    on_loop = session.pump.run
    assert on_loop(partial(session.offer, _msg(b"first"), conn_id="c0")) == ADMITTED
    assert _Hold.entered.wait(5), "the share never reached mid"
    assert on_loop(lambda: session._share is not None)
    return stream, session, on_loop


def _msg(body: bytes) -> MimeMessage:
    return MimeMessage(TEXT_PLAIN, body)


def _delivered(session, on_loop, n: int) -> list[bytes]:
    """Wait until ``n`` messages were delivered; their bodies in delivery order."""
    deadline = time.monotonic() + 10
    while on_loop(lambda: len(session.kept)) < n:
        assert time.monotonic() < deadline, "the staged runs were never delivered"
        time.sleep(0.005)
    return on_loop(lambda: [m.body for m in session.kept])


def test_offers_and_a_shed_while_lent_are_staged_then_admitted_in_order():
    stream, session, on_loop = _lent()
    try:
        runs = [(_msg(b"s0"), _msg(b"s1")), (_msg(b"s2"),)]
        refused = _msg(b"shed")
        assert on_loop(partial(session.offer, *runs[0], conn_id="c1")) == ADMITTED
        assert on_loop(partial(session.shed, refused)) is None
        assert on_loop(partial(session.offer, *runs[1], conn_id="c2")) == ADMITTED
        offered_by = time.perf_counter()
        # nothing reached the stream: its pool holds only the held message
        assert on_loop(lambda: len(session._staged)) == 3
        assert on_loop(lambda: session.resident) == 1 + 3
        assert session.stats.frames_in == 4 and session.stats.shed == 1
        time.sleep(0.05)  # a stamp taken at admission would fall after the release
        _Hold.release.set()
        assert _delivered(session, on_loop, 4) == [b"first", b"s0", b"s1", b"s2"]
        for (message, conn_id) in ((runs[0][0], "c1"), (runs[0][1], "c1"), (runs[1][0], "c2")):
            origin_conn, stamp = message.headers.origin
            assert origin_conn == conn_id
            assert stamp is not None and stamp < offered_by  # stamped at the offer
        report = on_loop(partial(check_conservation, stream))
        assert report.balanced, report
        assert (report.admitted, report.delivered, report.dropped) == (5, 4, 1)
        assert on_loop(lambda: session.resident) == 0
    finally:
        _Hold.release.set()
        session.close()


def test_a_run_staged_before_a_verb_goes_in_before_it():
    """A reconfiguration waiting for the stream runs after the staged runs are
    admitted: a frame read before the verb is admitted under the old epoch."""
    stream, session, on_loop = _lent(source=EPOCH_SOURCE, limit=1 << 20)
    try:
        before, after = _msg(b"before"), _msg(b"after")
        assert on_loop(partial(session.offer, before)) == ADMITTED
        verb = threading.Thread(target=session.pump.run, args=(
            partial(stream.on_event, DEFAULT_CATALOG.make("LOW_BANDWIDTH")), session,
        ))
        verb.start()
        verb.join(0.2)
        assert verb.is_alive(), "the verb ran while the stream was lent"
        _Hold.release.set()
        verb.join(5)
        assert not verb.is_alive() and on_loop(lambda: stream.epoch) == 1
        assert on_loop(partial(session.offer, after)) == ADMITTED
        assert _delivered(session, on_loop, 3) == [b"first", b"before", b"after"]
        assert before.headers.epoch is None  # admitted under epoch 0
        assert after.headers.epoch == 1
        assert on_loop(partial(check_conservation, stream)).balanced
    finally:
        _Hold.release.set()
        session.close()


def test_a_lent_session_is_full_at_its_bound_counting_what_is_staged():
    stream, session, on_loop = _lent(limit=3)
    try:
        assert on_loop(partial(session.offer, _msg(b"s0"))) == ADMITTED
        # resident: the held message (the pool at the loan) plus one staged
        assert on_loop(partial(session.offer, _msg(b"x"), _msg(b"y"))) == FULL
        assert on_loop(partial(session.offer, _msg(b"s1"))) == ADMITTED
        assert on_loop(partial(session.offer, _msg(b"z"))) == FULL
        assert on_loop(lambda: session.room) == 0
        assert session.stats.frames_in == 3
        _Hold.release.set()
        assert _delivered(session, on_loop, 3) == [b"first", b"s0", b"s1"]
        assert on_loop(lambda: session.room) == 3
        assert on_loop(partial(check_conservation, stream)).balanced
    finally:
        _Hold.release.set()
        session.close()


def test_a_run_offered_after_a_staged_one_never_overtakes_it():
    """Staged runs are admitted before the cycle lends the stream again, so
    a run offered once the share has landed goes in behind them."""
    stream, session, on_loop = _lent()
    try:
        assert on_loop(partial(session.offer, _msg(b"staged"))) == ADMITTED
        _Hold.release.set()
        late = []
        deadline = time.monotonic() + 5
        while on_loop(lambda: session._share is not None and not session._share.done()):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        for i in range(5):  # lent or not, each goes in behind the staged run
            assert on_loop(partial(session.offer, _msg(b"late%d" % i))) == ADMITTED
            late.append(b"late%d" % i)
        assert _delivered(session, on_loop, 7) == [b"first", b"staged", *late]
        assert on_loop(partial(check_conservation, stream)).balanced
    finally:
        _Hold.release.set()
        session.close()


def test_a_close_with_runs_staged_leaves_the_ledger_balanced(tmp_path):
    ledger = Ledger(open_store("file", str(tmp_path / "ledger.wal")))
    try:
        stream, session, on_loop = _lent(ledger=ledger)
        assert on_loop(partial(session.offer, _msg(b"s0"), _msg(b"s1"))) == ADMITTED
        on_loop(partial(session.shed, _msg(b"gone")))
        closer = threading.Thread(target=session.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive(), "the close did not wait for the share in flight"
        _Hold.release.set()
        closer.join(5)
        assert not closer.is_alive()
        assert stream.ended and session._staged == []
        report = check_conservation(stream)
        assert report.balanced, report
        assert report.admitted == 4 and report.residual == 0
        assert report.delivered + report.dropped == 4
        folded = ledger.fold().session("lent").totals
        assert (folded.admitted, folded.delivered, folded.dropped) == (
            report.admitted, report.delivered, report.dropped
        )
    finally:
        _Hold.release.set()
        ledger.close()
