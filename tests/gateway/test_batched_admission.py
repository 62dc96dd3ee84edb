"""Batched admission is admission.

The data plane offers a read's frames as one run per session
(``DataPlane._ingest``).  These tests drive the same scripted reads
through that path and through the reference — every frame offered
alone, in read order — and require the same per-session deliveries
(bodies and connections, in order), park points, ``SessionStats`` and
conservation reports.  Two routing checks over real sockets follow: the
connection a message came in on travels in ``HeaderMap.origin``, not in
anything a client or a streamlet can write.
"""

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.errors import QueueClosedError
from repro.faults.invariant import check_conservation
from repro.gateway import FULL, GatewayConfig, GatewayServer
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_message
from tests.gateway.test_data_plane import MCL, WireClient, deploy

KEYS = ("a", "b")


def one_offer_per_frame(plane, conn, frames: deque):
    """The reference: each frame enters its session alone, in read order."""
    while frames:
        message = frames.popleft()
        session = plane._gateway.route(message.headers.session)
        if session is None:
            plane._refuse(conn, "unrouted")
            continue
        parked = plane._offer(conn, session, [message], 0.0)
        if parked is not None:
            return parked
    return None


def in_runs(plane, conn, frames: deque):
    return plane._ingest(conn, frames)


@dataclass
class Script:
    """Reads as ``(conn_id, "a1 b1 a2 ...")`` — session key, then body."""

    reads: list[tuple[str, str]]
    limit: int = 64
    #: called as ``unblock(gateway, script, parked_session)`` at every park
    unblock: object = None
    #: called as ``setup(gateway, script)`` before the first read
    setup: object = None
    holders: list = field(default_factory=list)


def drain(gateway: GatewayServer, session) -> None:
    """Let a paused session's stream run until nothing is resident, then pause it."""
    gateway.raise_event("RESUME", session_key=session.key)
    wait_until(lambda: session.resident == 0)
    gateway.raise_event("PAUSE", session_key=session.key)


def wait_until(predicate, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


class HeldLock:
    """Hold a session's ingress queue lock on another thread for ``seconds``."""

    def __init__(self, session, seconds=0.05):
        self.queue = next(iter(session.stream.ingress.values())).queue
        self.held = threading.Event()
        self.thread = threading.Thread(target=self._hold, args=(seconds,))
        self.thread.start()
        assert self.held.wait(5)

    def _hold(self, seconds):
        with self.queue._lock:
            self.held.set()
            time.sleep(seconds)

    def done(self):
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def drive(ingest, script: Script) -> dict:
    gateway = GatewayServer(config=GatewayConfig(session_ingress_limit=script.limit))
    delivered: list = []
    gateway.egress.bridge = delivered.extend  # the pump's hand-over, captured
    sessions = {key: gateway.deploy(MCL, session_key=key) for key in KEYS}
    errors: list = []
    conns = {cid: SimpleNamespace(conn_id=cid, write=errors.append) for cid in ("c1", "c2")}
    parks, admitted_at_parks = [], []
    try:
        for key in KEYS:  # nothing moves unless the script says so
            gateway.raise_event("PAUSE", session_key=key)
        if script.setup is not None:
            script.setup(gateway, script)
        for conn_id, read in script.reads:
            frames = deque(
                MimeMessage("text/plain", word[1:].encode(), session=word[0])
                for word in read.split()
            )
            parked = ingest(gateway.data, conns[conn_id], frames)
            while parked is not None:
                session, run, _t0 = parked
                parks.append((session.key, run[0].body, FULL))
                admitted_at_parks.append({k: s.stats.frames_in for k, s in sessions.items()})
                script.unblock(gateway, script, session)
                deadline = time.monotonic() + 10
                try:
                    status = FULL
                    while status == FULL:
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                        status = session.offer(*run, conn_id=conn_id)
                except QueueClosedError:
                    pass
                parked = ingest(gateway.data, conns[conn_id], frames)
        live = [s for s in sessions.values() if not s.closed]
        for session in live:
            gateway.raise_event("RESUME", session_key=session.key)
        wait_until(
            lambda: all(s.resident == 0 for s in live)
            and len(delivered) == sum(s.stats.frames_in for s in live)
        )
        by_session = {key: [] for key in KEYS}
        for session, conn_id, (_head, payload) in delivered:
            by_session[session.key].append((conn_id, payload))
        return {
            "delivered": by_session,
            "parks": parks,
            "admitted_at_parks": admitted_at_parks,
            "errors": len(errors),
            "stats": {
                key: {k: s.stats.snapshot()[k] for k in ("frames_in", "parked", "shed")}
                for key, s in sessions.items()
            },
            "conservation": {key: check_conservation(s.stream) for key, s in sessions.items()},
        }
    finally:
        for holder in script.holders:
            holder.done()
        for key in list(gateway.sessions):
            gateway.undeploy(key, record=False)


def assert_same(script_factory) -> dict:
    reference = drive(one_offer_per_frame, script_factory())
    batched = drive(in_runs, script_factory())
    assert batched == reference
    for report in batched["conservation"].values():
        assert report.balanced
    return batched


class TestRunsMatchOneOfferPerFrame:
    def test_one_session(self):
        outcome = assert_same(lambda: Script([
            ("c1", " ".join(f"a{i}" for i in range(10))),
            ("c1", " ".join(f"a{i}" for i in range(10, 15))),
        ]))
        assert [body for _c, body in outcome["delivered"]["a"]] == [
            f"{i}".encode() for i in range(15)
        ]
        assert outcome["parks"] == []

    def test_sessions_interleaved_in_one_read(self):
        outcome = assert_same(lambda: Script([
            ("c1", "a1 b1 a2 x9 b2 a3 b3"),  # x: no such session
            ("c2", "b4 a4"),
        ]))
        assert outcome["errors"] == 1
        assert outcome["delivered"]["a"] == [
            ("c1", b"1"), ("c1", b"2"), ("c1", b"3"), ("c2", b"4")
        ]
        assert outcome["stats"]["b"]["frames_in"] == 4

    def test_a_run_that_crosses_the_ingress_limit_mid_read(self):
        outcome = assert_same(lambda: Script(
            [("c1", "a1 b1 a2 a3 b2 a4 b3 a5")],
            limit=3,
            unblock=lambda gateway, _script, session: drain(gateway, session),
        ))
        assert outcome["parks"] == [("a", b"4", "full")]
        assert outcome["stats"]["a"] == {"frames_in": 5, "parked": 1, "shed": 0}

    def test_a_contended_ingress_lock(self):
        def setup(gateway, script):
            script.holders.append(HeldLock(gateway.sessions["a"]))

        outcome = assert_same(lambda: Script([("c1", "a1 b1 a2 b2 a3")], setup=setup))
        assert outcome["parks"] == []  # the read waits out the lock
        assert [body for _c, body in outcome["delivered"]["a"]] == [b"1", b"2", b"3"]

    def test_a_contended_lock_on_a_later_session_holds_back_what_was_read_after(self):
        def setup(gateway, script):
            script.holders.append(HeldLock(gateway.sessions["b"]))

        outcome = assert_same(lambda: Script([("c1", "a1 b1 a2 b2 a3")], setup=setup))
        # a2, read after b1, is offered only once b1's post got the lock
        assert outcome["parks"] == []
        assert [body for _c, body in outcome["delivered"]["a"]] == [b"1", b"2", b"3"]
        assert [body for _c, body in outcome["delivered"]["b"]] == [b"1", b"2"]

    def test_a_session_closed_mid_read(self):
        outcome = assert_same(lambda: Script(
            [("c1", "a1 b1 a2 a3 b2"), ("c2", "a4")],
            limit=2,
            unblock=lambda gateway, _script, session: gateway.undeploy(session.key),
        ))
        assert outcome["parks"] == [("a", b"3", "full")]
        report = outcome["conservation"]["a"]
        assert (report.admitted, report.residual, report.dropped) == (2, 0, 2)
        assert outcome["errors"] == 1  # a4, offered to the closed session
        assert [body for _c, body in outcome["delivered"]["b"]] == [b"1", b"2"]


XML_MCL = """main stream xs{
  streamlet x = new-streamlet (xml_streamer);
}"""


class TestOriginRouting:
    def test_an_emission_built_from_its_parents_headers_goes_back_on_its_connection(self):
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle, mcl=XML_MCL)
            idle, sender = WireClient(handle.data_address), WireClient(handle.data_address)
            try:
                document = MimeMessage(
                    "application/xml", b"<doc><p>1</p><p>2</p><p>3</p></doc>", session=key
                )
                sender.send(document)
                fragments = [sender.recv_frame() for _ in range(3)]
                assert [f.headers.get("X-MobiGATE-XSeq") for f in fragments] == [
                    "0/3", "1/3", "2/3"
                ]
                idle.send(MimeMessage("application/xml", b"<one/>", session=key))
                assert idle.recv_frame().headers.get("X-MobiGATE-XSeq") == "0/1"
            finally:
                idle.close()
                sender.close()

    def test_a_client_header_naming_another_connection_routes_nowhere_else(self):
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle)
            first, second = WireClient(handle.data_address), WireClient(handle.data_address)
            try:
                first.send(MimeMessage("text/plain", b"warm", session=key))
                assert first.recv_frame().body == b"warm"  # the first accepted: c1
                forged = MimeMessage("text/plain", b"mine", session=key)
                forged.headers.set("X-MobiGATE-Connection", "c1")
                second.send(forged)
                echo = second.recv_frame()
                assert serialize_message(echo) == serialize_message(forged)
                first.send(MimeMessage("text/plain", b"after", session=key))
                assert first.recv_frame().body == b"after"  # nothing else came to c1
            finally:
                first.close()
                second.close()
