"""GatewaySession admission: bounded ingress, shed, conservation."""

from functools import partial

import pytest

from repro.apps import build_server
from repro.errors import QueueClosedError
from repro.faults.invariant import assert_conservation, check_conservation
from repro.gateway.session import ADMITTED, FULL, GatewaySession
from repro.mime.message import MimeMessage

MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""


class _InertScheduler:
    """Never moves a message — keeps admitted traffic resident forever."""

    def pump(self, *, max_rounds=None) -> int:
        return 0


def deploy_session(ingress_limit=2):
    server = build_server()
    stream = server.deploy_script(MCL)
    session = GatewaySession(
        "k1", stream, _InertScheduler(), ingress_limit=ingress_limit
    )
    return server, stream, session


def message(tag: str = "m") -> MimeMessage:
    return MimeMessage("text/plain", tag.encode())


def on_loop(session, method, *messages):
    """Admit (or shed) on the session's pump loop, its stream's owner."""
    return session.pump.run(partial(method, *messages))


class TestBoundedOffer:
    def test_admits_until_the_ingress_bound_then_reports_full(self):
        _server, stream, session = deploy_session(ingress_limit=2)
        try:
            assert on_loop(session, session.offer, message("a")) == ADMITTED
            assert on_loop(session, session.offer, message("b")) == ADMITTED
            assert session.resident == 2
            assert on_loop(session, session.offer, message("c")) == FULL
            # FULL admits nothing: the ledger only saw the two residents
            assert check_conservation(stream).admitted == 2
        finally:
            session.close()

    def test_abandoned_full_offer_is_shed_into_the_ledger(self):
        _server, stream, session = deploy_session(ingress_limit=1)
        try:
            assert on_loop(session, session.offer, message("a")) == ADMITTED
            assert on_loop(session, session.offer, message("b")) == FULL
            on_loop(session, session.shed, message("b"))
            assert session.stats.shed == 1
            report = assert_conservation(stream)
            assert report.admitted == 2
            assert stream.stats.queue_drops == 1
            assert report.residual == 1
        finally:
            session.close()
        # ending the stream drains the resident message as an end drop;
        # the ledger must still balance
        report = assert_conservation(stream)
        assert report.residual == 0
        assert stream.stats.end_drops == 1

    def test_a_closed_session_refuses_a_shed_as_it_refuses_an_offer(self):
        _server, stream, session = deploy_session()
        session.close()
        for method in (session.offer, session.shed):
            with pytest.raises(QueueClosedError):
                method(message("late"))
        assert (stream.stats.queue_drops, session.stats.shed) == (0, 0)

    def test_session_stamps_runtime_session_header(self):
        _server, stream, session = deploy_session()
        try:
            msg = message("a")
            assert msg.session is None
            on_loop(session, session.offer, msg)
            assert msg.session == stream.session
        finally:
            session.close()

    def test_closed_session_refuses_offers(self):
        _server, _stream, session = deploy_session()
        session.close()
        with pytest.raises(QueueClosedError):
            on_loop(session, session.offer, message("a"))
