"""GatewaySession admission: bounded ingress, retry, shed, conservation."""

import threading

import pytest

from repro.apps import build_server
from repro.errors import QueueClosedError
from repro.faults.invariant import assert_conservation, check_conservation
from repro.gateway.session import ADMITTED, FULL, RETRY, SHED, GatewaySession
from repro.mime.message import MimeMessage

MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""


class _InertScheduler:
    """Never moves a message — keeps admitted traffic resident forever."""

    def stop(self) -> None:
        pass


def deploy_session(ingress_limit=2):
    server = build_server()
    stream = server.deploy_script(MCL)
    session = GatewaySession(
        "k1", stream, _InertScheduler(), ingress_limit=ingress_limit
    )
    return server, stream, session


def message(tag: str = "m") -> MimeMessage:
    return MimeMessage("text/plain", tag.encode())


class TestBoundedOffer:
    def test_admits_until_the_ingress_bound_then_reports_full(self):
        _server, stream, session = deploy_session(ingress_limit=2)
        try:
            assert session.offer(message("a")).status == ADMITTED
            assert session.offer(message("b")).status == ADMITTED
            assert session.resident == 2
            assert session.offer(message("c")).status == FULL
            # FULL admits nothing: the ledger only saw the two residents
            assert check_conservation(stream).admitted == 2
        finally:
            session.close()

    def test_abandoned_full_offer_is_shed_into_the_ledger(self):
        _server, stream, session = deploy_session(ingress_limit=1)
        try:
            assert session.offer(message("a")).status == ADMITTED
            ticket = session.offer(message("b"))
            assert ticket.status == FULL
            shed = session.abandon(ticket, message("b"))
            assert shed.status == SHED
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

    def test_session_stamps_runtime_session_header(self):
        _server, stream, session = deploy_session()
        try:
            msg = message("a")
            assert msg.session is None
            session.offer(msg)
            assert msg.session == stream.session
        finally:
            session.close()

    def test_closed_session_refuses_offers(self):
        _server, _stream, session = deploy_session()
        session.close()
        with pytest.raises(QueueClosedError):
            session.offer(message("a"))


class TestContention:
    def test_contended_queue_yields_retry_then_admits(self):
        _server, stream, session = deploy_session(ingress_limit=4)
        queue = next(iter(stream.ingress.values())).queue
        held = threading.Event()
        release = threading.Event()

        def hold():
            with queue._lock:
                held.set()
                release.wait(5)

        t = threading.Thread(target=hold)
        t.start()
        assert held.wait(5)
        try:
            ticket = session.offer(message("a"))
            assert ticket.status == RETRY
            assert ticket.entries  # already admitted to the pool
        finally:
            release.set()
            t.join(timeout=5)
        try:
            ticket = session.retry(ticket, message("a"))
            assert ticket.status == ADMITTED
            assert_conservation(stream)
        finally:
            session.close()

    def test_abandoned_retry_releases_the_admitted_id(self):
        _server, stream, session = deploy_session(ingress_limit=4)
        queue = next(iter(stream.ingress.values())).queue
        held = threading.Event()
        release = threading.Event()

        def hold():
            with queue._lock:
                held.set()
                release.wait(5)

        t = threading.Thread(target=hold)
        t.start()
        assert held.wait(5)
        try:
            ticket = session.offer(message("a"))
            assert ticket.status == RETRY
        finally:
            release.set()
            t.join(timeout=5)
        try:
            session.abandon(ticket, message("a"))
            report = assert_conservation(stream)
            assert stream.stats.queue_drops == 1
            assert report.residual == 0
        finally:
            session.close()

    def test_a_contended_run_whose_session_closes_is_dropped(self):
        # the run is pooled but was never queued: close() must release it
        # through the drop path before the final ledger sync, or the ended
        # stream keeps a pool entry that nothing will ever settle
        _server, stream, session = deploy_session(ingress_limit=4)
        queue = next(iter(stream.ingress.values())).queue
        held = threading.Event()
        release = threading.Event()

        def hold():
            with queue._lock:
                held.set()
                release.wait(5)

        t = threading.Thread(target=hold)
        t.start()
        assert held.wait(5)
        try:
            ticket = session.offer(message("a"))
            assert ticket.status == RETRY
        finally:
            release.set()
            t.join(timeout=5)
        session.close()
        with pytest.raises(QueueClosedError):
            session.retry(ticket, message("a"))
        report = check_conservation(stream)
        assert (report.residual, report.dropped, report.balanced) == (0, 1, True)
        assert len(stream.pool) == 0
