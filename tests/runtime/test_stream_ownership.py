"""One owner per stream: two threads are never inside one stream at once.

A stream takes no lock; the rule that replaces the locks is that only
its owner touches it — the gateway's event loop, or the one share the
whole stream is lent to.  A tracker wraps the calls that touch a
stream's interior (``InlineScheduler.pump``, ``RuntimeStream.collect``,
``_write_access``, ``admit`` and ``post``) and records every time a
thread enters one while another thread is inside the same stream.  It
drives three cases through a real gateway:

* the reconfiguration storm's shape: closed-loop echoes through the
  ``session_churn`` composition while another thread raises events;
* a ``text_compress`` session, lent to shares on the executor, taking
  ``reconfigure``, ``stats`` and ``introspect`` while its shares run;
* a durable restart whose ledger holds pending retries;
* an unscoped event and ``introspect`` racing the deploy of a session
  stepped on the executor;
* a supervised lent session whose retry comes due while a reconfigure
  removes the retry's target.
"""

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from repro.gateway import GatewayConfig, GatewayServer
from repro.gateway.session import EgressPump
from repro.mcl.parser import parse_script
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_message
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.stream import RuntimeStream
from repro.runtime.streamlet import Streamlet
from repro.store import Ledger, open_store

from tests.gateway.test_data_plane import WireClient, deploy, tagged
from tests.gateway.test_reconfig_storm import CHURN_MCL
from tests.runtime.test_write_exclusion import DEFS, _Hold


class Tracker:
    """Which threads are inside which stream, and every overlap seen."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inside: dict[int, dict[int, int]] = defaultdict(dict)
        #: per stream name, the threads that ever entered it
        self.threads: dict[str, set[int]] = defaultdict(set)
        self.overlaps: list[tuple[str, str]] = []

    def enter(self, stream) -> None:
        me = threading.get_ident()
        with self._lock:
            inside = self._inside[id(stream)]
            others = [ident for ident, depth in inside.items() if depth and ident != me]
            if others:
                self.overlaps.append((stream.name, threading.current_thread().name))
            inside[me] = inside.get(me, 0) + 1
            self.threads[stream.name].add(me)

    def leave(self, stream) -> None:
        with self._lock:
            self._inside[id(stream)][threading.get_ident()] -= 1


@pytest.fixture
def tracker(monkeypatch):
    tracker = Tracker()

    def tracked(method, stream_of):
        def call(self, *args, **kwargs):
            stream = stream_of(self)
            tracker.enter(stream)
            try:
                return method(self, *args, **kwargs)
            finally:
                tracker.leave(stream)
        return call

    for name in ("collect", "admit", "post"):
        monkeypatch.setattr(
            RuntimeStream, name, tracked(getattr(RuntimeStream, name), lambda s: s)
        )
    monkeypatch.setattr(
        InlineScheduler, "pump", tracked(InlineScheduler.pump, lambda s: s._stream)
    )
    write_access = RuntimeStream._write_access

    @contextmanager
    def tracked_write(self):
        tracker.enter(self)
        try:
            with write_access(self):
                yield
        finally:
            tracker.leave(self)

    monkeypatch.setattr(RuntimeStream, "_write_access", tracked_write)
    return tracker


def test_the_storm_shape_keeps_one_owner(tracker):
    with GatewayServer(config=GatewayConfig(supervise=True)).run_in_thread() as handle:
        key = deploy(handle, mcl=CHURN_MCL)
        session = handle.gateway.sessions[key]
        stop = threading.Event()
        failures = []
        commits = []

        def storm():
            try:
                while not stop.is_set() and len(commits) < 40:
                    event = "HIGH_BANDWIDTH" if session.stream.epoch % 2 else "LOW_BANDWIDTH"
                    commits.append(handle.gateway.raise_event(event, session_key=key))
            except Exception as exc:  # surfaced below
                failures.append(exc)

        def closed_loop(conn):
            client = WireClient(handle.data_address, timeout=20.0)
            try:
                for i in range(150):
                    body = b"c%d-%04d" % (conn, i)
                    client.send(tagged(body, key))
                    assert client.recv_frame().body == body
            except Exception as exc:  # surfaced below
                failures.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=closed_loop, args=(c,)) for c in (0, 1)]
        threads.append(threading.Thread(target=storm))
        for thread in threads:
            thread.start()
        for thread in threads[:2]:
            thread.join(timeout=60)
        stop.set()
        threads[2].join(timeout=60)
        assert not failures, failures
        assert commits
        stats = handle.control({"op": "stats", "session": key})
        assert stats["conservation"]["balanced"], stats
    assert tracker.threads[session.stream.name]
    assert tracker.overlaps == []


TEXT_MCL = """streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
main stream packer{
  streamlet a, relay = new-streamlet (tap);
  streamlet tc = new-streamlet (text_compress);
  connect (a.po, tc.pi);
  when (LOW_BANDWIDTH){
    insert (a.po, tc.pi, relay);
  }
  when (HIGH_BANDWIDTH){
    remove (relay);
  }
}"""


def test_a_lent_session_takes_verbs_mid_share(tracker, monkeypatch):
    answered = []
    answer = EgressPump._answer

    def counted(self, session):
        answered.append(session.key)
        return answer(self, session)

    monkeypatch.setattr(EgressPump, "_answer", counted)
    frames, window = 60, 6
    with GatewayServer().run_in_thread() as handle:
        key = deploy(handle, mcl=TEXT_MCL)
        session = handle.gateway.sessions[key]
        assert session.stepped_by == "executor"
        client = WireClient(handle.data_address, timeout=20.0)
        received = []
        failures = []

        def traffic():
            try:
                sent = 0
                while len(received) < frames:
                    while sent < frames and sent - len(received) < window:
                        body = (b"line %d of a text that compresses. " % sent) * 200
                        message = MimeMessage("text/plain", body)
                        message.headers.session = key
                        client.send(message)
                        sent += 1
                    received.append(client.recv_frame())
            except Exception as exc:  # surfaced below
                failures.append(exc)

        sender = threading.Thread(target=traffic)
        sender.start()
        epoch = 0
        try:
            while sender.is_alive():
                event = "HIGH_BANDWIDTH" if epoch % 2 else "LOW_BANDWIDTH"
                reply = handle.control({"op": "reconfigure", "event": event, "session": key})
                assert reply["ok"], reply
                epoch = reply["epoch"]
                assert handle.control({"op": "stats", "session": key})["ok"]
                assert key in handle.control({"op": "introspect"})["sessions"]
                time.sleep(0.005)
            sender.join(timeout=60)
        finally:
            client.close()
        assert tracker.overlaps == []  # before what an overlap would break
        assert not failures, failures
        assert len(received) == frames and epoch >= 2
        stats = handle.control({"op": "stats", "session": key})
        assert stats["conservation"]["balanced"], stats
        assert stats["conservation"]["delivered"] == frames
    stream_threads = tracker.threads[session.stream.name]
    assert len(stream_threads) >= 2  # the loop and at least one share's thread
    assert key in answered  # at least one verb recalled a share and waited for it
    assert tracker.overlaps == []


MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""


def test_a_durable_restart_with_pending_retries_keeps_one_owner(tracker, tmp_path):
    wal = str(tmp_path / "ledger.wal")
    ledger = Ledger(open_store("file", wal))
    ledger.deployed("s-1", mcl=MCL, scheduler="threaded")
    ledger.counters("s-1", admitted=3)
    for n in range(3):
        frame = serialize_message(MimeMessage("text/plain", b"retry %d" % n))
        ledger.retry_scheduled(
            "s-1", f"msg-{n}", instance="r1", port="pi", attempt=1, frame=frame
        )
    ledger.close()
    config = GatewayConfig(store_backend="file", store_path=wal, supervise=True)
    gateway = GatewayServer(config=config)
    with gateway.run_in_thread() as handle:
        [outcome] = gateway.recovery.last_report.sessions
        assert outcome.restored and outcome.reinjected == 3
        client = WireClient(handle.data_address)
        try:
            for i in range(20):
                client.send(tagged(b"after-%d" % i, "s-1"))
                assert client.recv_frame().body == b"after-%d" % i
        finally:
            client.close()
        deadline = time.monotonic() + 5
        while True:
            reply = handle.control({"op": "recovery", "reconcile": True})
            if reply["reconcile"]["balanced"] or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert reply["reconcile"]["balanced"], reply
    assert tracker.threads
    assert tracker.overlaps == []


HELD_MCL = DEFS + """
main stream held{
  streamlet a, z = new-streamlet (redirector);
  streamlet mid = new-streamlet (hold);
  connect (a.po, mid.pi);
  connect (mid.po, z.pi);
}"""


def _advertise_hold(gateway) -> None:
    _Hold.entered.clear()
    _Hold.release.clear()
    (definition,) = parse_script(DEFS).streamlets
    gateway.mobigate.directory.advertise(definition, _Hold)


def _wait_for_a_queued_call(gateway, calls=1) -> None:
    deadline = time.monotonic() + 5
    while len(gateway.egress._calls) < calls:
        assert time.monotonic() < deadline, "the owner call never reached the loop"
        time.sleep(0.002)


UNSCOPED = {
    "pause": lambda handle: handle.gateway.raise_event("PAUSE"),
    "reconfigure": lambda handle: handle.control({"op": "reconfigure", "event": "PAUSE"}),
    "introspect": lambda handle: handle.control({"op": "introspect"}),
}


@pytest.mark.parametrize("verb", sorted(UNSCOPED))
def test_an_unscoped_call_racing_a_deploy_touches_no_lent_stream(tracker, monkeypatch, verb):
    """A call over every session works the sessions out on the loop.

    Session ``a``'s share is held in ``process``; an unscoped call waits
    for it, and meanwhile session ``b`` is deployed: it joins the pump
    and the table, but is not lent while the call waits.  When the call
    runs no stream of the pump is lent, and it reaches ``b`` too.
    """
    lent_when_run = []
    real_raise, real_introspect = GatewayServer._raise_event, GatewayServer.introspect

    def lent(gateway):
        lent_when_run.append(sorted(
            (s.key, s._share is not None) for s in gateway.egress._sessions
        ))

    def raise_checked(self, name, session=None):
        lent(self)
        return real_raise(self, name, session)

    def introspect_checked(self):
        lent(self)
        return real_introspect(self)

    monkeypatch.setattr(GatewayServer, "_raise_event", raise_checked)
    monkeypatch.setattr(GatewayServer, "introspect", introspect_checked)
    with GatewayServer().run_in_thread() as handle:
        gateway = handle.gateway
        _advertise_hold(gateway)
        gateway.deploy(HELD_MCL, session_key="a")
        assert gateway.sessions["a"].stepped_by == "executor"
        client = WireClient(handle.data_address, timeout=20.0)
        results = []
        calling = threading.Thread(target=lambda: results.append(UNSCOPED[verb](handle)))
        try:
            client.send(tagged(b"held", "a"))
            assert _Hold.entered.wait(5), "a's share never reached mid"
            calling.start()
            _wait_for_a_queued_call(gateway)
            gateway.deploy(HELD_MCL, session_key="b")  # while the call waits
            calling.join(0.2)
            assert calling.is_alive(), "the call ran while a was lent"
            assert not gateway.sessions["b"]._share, "b was lent while an unscoped call waited"
        finally:
            _Hold.release.set()
            calling.join(10)
        try:
            [result] = results
            assert lent_when_run == [[("a", False), ("b", False)]]
            if verb == "pause":
                assert result == 2  # both sessions, b included
            elif verb == "reconfigure":
                assert result["ok"] and result["delivered"] == 2, result
            else:
                assert set(result["sessions"]) == {"a", "b"}
            gateway.raise_event("RESUME")
            assert client.recv_frame().body == b"held"
            client.send(tagged(b"to b", "b"))
            assert client.recv_frame().body == b"to b"
        finally:
            client.close()
    assert tracker.overlaps == []


class _Flaky(Streamlet):
    """Fails the first message whose body is ``fail``; forwards the rest."""

    cooperative = False
    failed = 0

    def process(self, port, message, ctx):
        if message.body == b"fail" and not type(self).failed:
            type(self).failed += 1
            raise RuntimeError("the first 'fail' fails")
        return [("po", message)]


FLAKY_MCL = DEFS + """
streamlet flaky{
  port{ in pi : */*; out po : */*; }
}
main stream flaky_chain{
  streamlet a, z = new-streamlet (redirector);
  streamlet mid = new-streamlet (hold);
  streamlet f = new-streamlet (flaky);
  connect (a.po, mid.pi);
  connect (mid.po, f.pi);
  connect (f.po, z.pi);
  when (LOW_BANDWIDTH){
    remove (f);
  }
}"""


class _HoldOnce(_Hold):
    """Holds only the message whose body is ``hold``."""

    def process(self, port, message, ctx):
        if message.body != b"hold":
            return [("po", message)]
        return super().process(port, message, ctx)


def test_a_retry_due_during_a_share_meets_the_commit_that_removed_its_target(tracker):
    """A lent supervised session: ``fail`` fails at ``f`` and waits out its
    backoff while ``hold`` holds the share; the retry comes due, then a
    reconfigure that removes ``f`` recalls the share.  The commit runs on
    the loop once the share is back, and the next share's retry finds its
    target gone: dead-lettered, never stranded in a channel outside the
    topology.
    """
    _Flaky.failed = 0
    with GatewayServer(config=GatewayConfig(supervise=True)).run_in_thread() as handle:
        gateway = handle.gateway
        _Hold.entered.clear()
        _Hold.release.clear()
        for definition in parse_script(FLAKY_MCL).streamlets:
            cls = {"hold": _HoldOnce, "flaky": _Flaky}[definition.name]
            gateway.mobigate.directory.advertise(definition, cls)
        gateway.deploy(FLAKY_MCL, session_key="s")
        session = gateway.sessions["s"]
        assert session.stepped_by == "executor"
        client = WireClient(handle.data_address, timeout=20.0)
        replies = []
        try:
            client.send(tagged(b"fail", "s"))
            client.send(tagged(b"hold", "s"))
            assert _Hold.entered.wait(5), "the share never reached mid"
            assert _Flaky.failed == 1 and session.supervisor.pending_retries == 1
            due = session.supervisor.next_due()
            while session.stream._clock.now() <= due:  # the retry comes due mid-share
                time.sleep(0.01)
            reconfiguring = threading.Thread(target=lambda: replies.append(handle.control(
                {"op": "reconfigure", "event": "LOW_BANDWIDTH", "session": "s"}
            )))
            reconfiguring.start()
            _wait_for_a_queued_call(gateway)
            reconfiguring.join(0.2)
            assert reconfiguring.is_alive(), "the reconfigure ran while the share was lent"
        finally:
            _Hold.release.set()
            reconfiguring.join(10)
        try:
            assert replies and replies[0]["ok"] and replies[0]["epoch"] == 1, replies
            assert client.recv_frame().body == b"hold"
            deadline = time.monotonic() + 5
            while True:
                letters = handle.control({"op": "dead_letters", "session": "s"})
                if letters["dead_letters"] or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            [letter] = letters["dead_letters"]
            assert letter["instance"] == "f" and letter["reason"] == "retry target detached"
            stats = handle.control({"op": "stats", "session": "s"})
            assert stats["conservation"]["balanced"], stats
            assert stats["conservation"]["residual"] == 0
        finally:
            client.close()
    assert tracker.overlaps == []
