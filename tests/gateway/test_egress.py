"""The gateway-wide egress stage: group commit, batch bridge, lifecycle, containment."""

import sys
import threading
import time
from functools import partial

from repro.apps import build_server
from repro.faults.invariant import check_conservation
from repro.gateway import GatewayConfig, GatewayServer
from repro.gateway.data_plane import COALESCE_BELOW
from repro.gateway.session import (
    ADMITTED, EgressPump, GatewaySession, SessionStats,
)
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.store.base import MemoryStore
from repro.store.ledger import Ledger

from tests.gateway.test_data_plane import (
    MCL,
    WORKER_MCL,
    WireClient,
    deploy,
    offer_worker_redirector,
    tagged,
)


def egress_threads() -> int:
    return sum(t.name == "gw-egress" for t in threading.enumerate())


def worker_threads() -> int:
    """Threads of the pump's executor, which steps sessions that may block."""
    return sum(t.name.startswith("gw-step") for t in threading.enumerate())


def wait_until(predicate, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


class SpyStore(MemoryStore):
    """Logs ``counters`` appends and flushes; a flush can be held open."""

    def __init__(self, log: list):
        super().__init__()
        self.log = log
        self.hold = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def append(self, record: dict) -> int:
        if record["ev"] == "counters":
            assert record["delivered"] > 0
            self.log.append(("counters", record["session"]))
        return super().append(record)

    def flush(self) -> None:
        if self.hold:
            self.entered.set()
            assert self.release.wait(10)
        self.log.append(("flush", None))
        super().flush()


class TestGroupCommit:
    def test_frames_leave_after_one_flush_covering_every_session_of_the_cycle(self):
        log: list = []
        store = SpyStore(log)
        ledger = Ledger(store)
        pump = EgressPump()
        pump.bridge = lambda frames: log.extend(
            ("frame", session.key) for session, _conn, _frame in frames
        )
        server = build_server()
        sessions = []
        for key in "abc":
            stream = server.deploy_script(MCL.replace("chain", f"chain_{key}"))
            sessions.append(GatewaySession(
                key, stream, InlineScheduler(stream), ledger=ledger, pump=pump
            ))
        a, b, c = sessions
        try:
            # hold the pump inside the commit of a's cycle, make b and c
            # ready meanwhile: the next cycle must serve both
            store.hold = True
            assert pump.run(partial(a.offer, MimeMessage("text/plain", b"1"))) == ADMITTED
            assert store.entered.wait(10)
            # offered on the loop, which runs them once the held cycle ends
            later = [pump.call(partial(s.offer, MimeMessage("text/plain", body)))
                     for s, body in ((b, b"2"), (c, b"3"))]
            store.hold = False
            store.release.set()
            assert [offer.result(10) for offer in later] == [ADMITTED, ADMITTED]
            assert wait_until(lambda: sum(e[0] == "frame" for e in log) == 3), log
        finally:
            for session in sessions:
                session.close()
        log = log[: max(i for i, e in enumerate(log) if e[0] == "frame") + 1]
        assert log[:3] == [("counters", "a"), ("flush", None), ("frame", "a")]
        # two sessions, two counters records, ONE flush, then their frames
        assert sorted(log[3:5]) == [("counters", "b"), ("counters", "c")]
        assert log[5] == ("flush", None)
        assert sorted(log[6:]) == [("frame", "b"), ("frame", "c")]


class FakeTransport:
    def __init__(self, buffered=0, closing=False):
        self.buffered = buffered
        self.closing = closing

    def is_closing(self) -> bool:
        return self.closing

    def get_write_buffer_size(self) -> int:
        return self.buffered


class FakeWriter:
    def __init__(self, **transport):
        self.transport = FakeTransport(**transport)
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)


class FakeSession:
    def __init__(self):
        self.stats = SessionStats()


def data_plane(**config):
    """The data plane of a never-started gateway, writers to be faked in."""
    return GatewayServer(config=GatewayConfig(**config)).data


class TestWriteBatch:
    def test_unknown_and_closing_connections_are_orphans(self):
        plane = data_plane()
        closing = plane._writers["c2"] = FakeWriter(closing=True)
        session = FakeSession()
        plane._write_batch([(session, "c1", b"x"), (session, None, b"y"), (session, "c2", b"z")])
        assert session.stats.orphans == 3
        assert closing.writes == []
        assert plane.write_overflow_drops == 0

    def test_a_batch_that_overruns_the_write_buffer_drops_the_overflow(self):
        plane = data_plane(max_conn_write_buffer=100)
        slow = plane._writers["c1"] = FakeWriter()
        other = plane._writers["c2"] = FakeWriter()
        session = FakeSession()
        frame = b"f" * 60
        plane._write_batch([(session, "c1", frame)] * 4 + [(session, "c2", frame)])
        # 0 and 60 buffered admit a frame; 120 > 100 does not, twice
        assert slow.writes == [frame * 2]
        assert other.writes == [frame]
        assert plane.write_overflow_drops == 2
        assert session.stats.orphans == 2

    def test_bytes_already_in_the_transport_count_against_the_batch(self):
        plane = data_plane(max_conn_write_buffer=100)
        slow = plane._writers["c1"] = FakeWriter(buffered=101)
        session = FakeSession()
        plane._write_batch([(session, "c1", b"late")])
        assert slow.writes == []
        assert plane.write_overflow_drops == 1

    def test_small_frames_are_joined_and_large_ones_written_as_they_are(self):
        plane = data_plane()
        writer = plane._writers["c1"] = FakeWriter()
        session = FakeSession()
        large = b"L" * COALESCE_BELOW
        frames = [b"a", b"b", large, b"c"]
        plane._write_batch([(session, "c1", frame) for frame in frames])
        assert writer.writes == [b"ab", large, b"c"]
        assert writer.writes[1] is large  # no copy
        assert session.stats.orphans == 0

    def test_a_lone_large_frame_is_two_writes_and_its_payload_is_never_joined(self):
        plane = data_plane()
        writer = plane._writers["c1"] = FakeWriter()
        session = FakeSession()
        payload = b"P" * COALESCE_BELOW
        plane._write_batch([(session, "c1", (b"head\n\n", payload))])
        assert writer.writes == [b"head\n\n", payload]
        assert writer.writes[1] is payload

    def test_a_head_joins_the_small_frames_before_it_and_payloads_go_out_whole(self):
        plane = data_plane()
        writer = plane._writers["c1"] = FakeWriter()
        session = FakeSession()
        big, bigger = b"B" * COALESCE_BELOW, b"C" * (4 * COALESCE_BELOW)
        plane._write_batch([
            (session, "c1", (b"h1\n\n", b"small")),
            (session, "c1", (b"h2\n\n", big)),
            (session, "c1", (b"h3\n\n", bigger)),
            (session, "c1", (b"h4\n\n", b"")),
        ])
        assert writer.writes == [b"h1\n\nsmallh2\n\n", big, b"h3\n\n", bigger, b"h4\n\n"]
        assert writer.writes[1] is big and writer.writes[3] is bigger
        assert session.stats.orphans == 0

    def test_a_pair_counts_whole_against_the_write_buffer(self):
        plane = data_plane(max_conn_write_buffer=100)
        slow = plane._writers["c1"] = FakeWriter()
        session = FakeSession()
        frame = (b"h" * 10, b"p" * 50)
        plane._write_batch([(session, "c1", frame)] * 4)
        # 0 and 60 buffered admit a frame; 120 > 100 does not, twice
        assert slow.writes == [b"".join(frame) * 2]
        assert plane.write_overflow_drops == 2


class TestLifecycle:
    def test_eight_sessions_share_one_pump_thread_and_stop_ends_it(self):
        before = egress_threads()
        with GatewayServer().run_in_thread() as handle:
            keys = [deploy(handle) for _ in range(8)]
            assert egress_threads() == before
            client = WireClient(handle.data_address)
            try:
                for key in keys:
                    client.send(tagged(key.encode(), key))
                assert {client.recv_frame().body for _ in keys} == {k.encode() for k in keys}
            finally:
                client.close()
            assert egress_threads() == before
        assert egress_threads() == before

    def test_undeploy_under_traffic_neither_wedges_nor_delays_the_rest(self):
        before = egress_threads()
        with GatewayServer().run_in_thread() as handle:
            keys = [deploy(handle) for _ in range(4)]
            stop = threading.Event()
            rounds = dict.fromkeys(keys, 0)
            failures = []

            def echo(key):
                # a ping in flight when its session is undeployed is an end
                # drop: the doomed client may see an error frame, a close,
                # or nothing at all — only the survivors must not fail
                doomed = key == keys[0]
                client = WireClient(handle.data_address, timeout=1.0 if doomed else 5.0)
                try:
                    while not stop.is_set():
                        client.send(tagged(b"ping", key))
                        frame = client.recv_frame()
                        if frame is None or frame.body != b"ping":
                            return
                        rounds[key] += 1
                except OSError as exc:  # surfaced by the main thread
                    if not doomed:
                        failures.append(exc)
                finally:
                    client.close()

            threads = [threading.Thread(target=echo, args=(key,)) for key in keys]
            for thread in threads:
                thread.start()
            try:
                assert wait_until(lambda: min(rounds.values()) >= 20)
                started = time.monotonic()
                assert handle.control({"op": "undeploy", "session": keys[0]})["ok"]
                assert time.monotonic() - started < 2.0
                mark = dict(rounds)
                survivors = keys[1:]
                assert wait_until(
                    lambda: all(rounds[k] >= mark[k] + 20 for k in survivors), timeout=5.0
                ), (mark, rounds)
                assert egress_threads() == before
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not failures, failures
            assert not any(thread.is_alive() for thread in threads)

    def test_never_started_gateway_holds_no_thread_after_its_last_undeploy(self):
        before = egress_threads()
        gateway = GatewayServer()  # no loop, no bridge: frames are orphans
        session = gateway.deploy(MCL, session_key="walk")
        assert egress_threads() == before + 1
        offer = partial(session.offer, MimeMessage("text/plain", b"x"))
        assert gateway.egress.run(offer) == ADMITTED
        assert wait_until(lambda: session.resident == 0)
        assert wait_until(lambda: session.stats.orphans == 1)
        gateway.undeploy("walk", record=False)
        assert egress_threads() == before

    def test_a_session_deployed_before_start_moves_onto_the_loop(self):
        before = egress_threads()
        gateway = GatewayServer()
        gateway.deploy(MCL, session_key="early")  # cycles on a private loop
        assert egress_threads() == before + 1
        with gateway.run_in_thread() as handle:
            assert egress_threads() == before  # start() bound the gateway's loop
            client = WireClient(handle.data_address)
            try:
                for i in range(5):
                    client.send(tagged(b"e%d" % i, "early"))
                    assert client.recv_frame().body == b"e%d" % i
            finally:
                client.close()
            assert egress_threads() == before

    def test_concurrent_deploys_and_undeploys_before_start_leave_no_thread(self):
        # the private loop starts with the first attach and ends with the
        # last detach: four threads race both edges many times over
        before = egress_threads()
        gateway = GatewayServer()
        failures = []

        def churn(n):
            try:
                for i in range(10):
                    key = f"s{n}-{i}"
                    session = gateway.deploy(MCL, session_key=key)
                    offer = partial(session.offer, MimeMessage("text/plain", b"x"))
                    assert gateway.egress.run(offer) == ADMITTED
                    assert wait_until(lambda: session.stats.orphans == 1, timeout=5.0)
                    gateway.undeploy(key, record=False)
            except Exception as exc:  # surfaced by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=churn, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert gateway.sessions == {}
        assert egress_threads() == before


class TestIgnoredOutcomes:
    def test_offers_whose_outcome_is_ignored_never_strand_a_run(self):
        # the layer walk's pattern: threads offer into a never-started
        # gateway's pump-stepped session, wait for room, and never read
        # what the offer returned; every admitted run must still move
        gateway = GatewayServer()
        delivered: list = []
        gateway.egress.bridge = delivered.extend
        session = gateway.deploy(MCL, session_key="walk")
        deadline = time.monotonic() + 10.0

        def offer_all():
            for i in range(500):
                while session.room <= 0:
                    if time.monotonic() >= deadline:
                        return
                    time.sleep(0)
                gateway.egress.run(partial(session.offer, MimeMessage("text/plain", b"%d" % i)))

        threads = [threading.Thread(target=offer_all) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert wait_until(lambda: session.resident == 0), session.resident
            frames_in = session.stats.frames_in
            assert wait_until(lambda: len(delivered) == frames_in), (len(delivered), frames_in)
            assert check_conservation(session.stream).balanced
        finally:
            gateway.undeploy("walk", record=False)


class TestPumpStepping:
    def test_eight_pumped_sessions_hold_one_thread_and_a_ninth_adds_only_its_workers(self):
        pumps, workers = egress_threads(), worker_threads()
        with offer_worker_redirector(GatewayServer()).run_in_thread() as handle:
            keys = [deploy(handle) for _ in range(8)]
            client = WireClient(handle.data_address)
            try:
                for round_ in range(10):
                    for key in keys:
                        client.send(tagged(b"%d" % round_, key))
                    for _ in keys:
                        assert client.recv_frame().body == b"%d" % round_
                    assert egress_threads() == pumps
                    assert worker_threads() == workers
                ninth = deploy(handle, mcl=WORKER_MCL)
                client.send(tagged(b"ninth", ninth))
                assert client.recv_frame().body == b"ninth"
                assert egress_threads() == pumps
                # the executor, not a thread per instance (r0 and r1): one
                # share in flight, and a thread starts only when none is
                # idle (a finished share's thread turns idle just after
                # its landing is queued, so a second one may start)
                assert 1 <= worker_threads() - workers <= 2
            finally:
                client.close()
            for key in keys + [ninth]:
                assert handle.control({"op": "undeploy", "session": key})["ok"]
            assert egress_threads() == pumps
            assert worker_threads() == workers

    def test_resume_wakes_a_pumped_session_without_waiting_for_the_heartbeat(self):
        # a RESUME posts nothing, so neither queue waiter fires: only the
        # topology wakeup can tell the pump the parked message may move
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle, scheduler="inline")
            session = handle.gateway.sessions[key]
            assert handle.control({"op": "reconfigure", "event": "PAUSE", "session": key})["ok"]
            client = WireClient(handle.data_address, timeout=5.0)
            try:
                client.send(tagged(b"parked", key))
                assert wait_until(lambda: session.resident == 1)
                # input a paused stream cannot take must not spin the pump
                time.sleep(0.05)
                cycles = handle.gateway.egress.stats()["cycles"]
                time.sleep(0.2)
                assert handle.gateway.egress.stats()["cycles"] - cycles <= 1
                resumed = time.monotonic()
                assert handle.control(
                    {"op": "reconfigure", "event": "RESUME", "session": key}
                )["ok"]
                assert client.recv_frame().body == b"parked"
                assert time.monotonic() - resumed < 1.0
            finally:
                client.close()

    def test_a_flooded_session_yields_after_its_quantum(self):
        from repro.gateway.session import PUMP_QUANTUM

        server = build_server()
        pump = EgressPump()
        batches: list[int] = []
        pump.bridge = lambda frames: batches.append(len(frames))
        stream = server.deploy_script(MCL)
        hold = threading.Event()
        collect = stream.collect

        def held_collect():
            assert hold.wait(10)
            return collect()

        stream.collect = held_collect
        session = GatewaySession(
            "flood", stream, InlineScheduler(stream, batch=1), pump=pump
        )
        try:
            # the first cycle waits inside collect while the flood is admitted
            flood = [pump.call(partial(session.offer, MimeMessage("text/plain", b"%d" % i)))
                     for i in range(3 * PUMP_QUANTUM)]
            hold.set()
            assert [offer.result(10) for offer in flood] == [ADMITTED] * (3 * PUMP_QUANTUM)
            assert wait_until(lambda: sum(batches) == 3 * PUMP_QUANTUM), batches
        finally:
            session.close()
        # one round moves one message per node: no cycle carried more than
        # a quantum, and the leftovers re-marked the session by themselves
        assert max(batches) <= PUMP_QUANTUM, batches
        assert len(batches) >= 3


class TestContainment:
    def test_one_sessions_fault_does_not_silence_the_others(self):
        before = egress_threads()
        with GatewayServer().run_in_thread() as handle:
            gateway = handle.gateway
            broken, healthy = deploy(handle), deploy(handle)

            def explode():
                raise RuntimeError("collect blew up")

            gateway.sessions[broken].stream.collect = explode
            client = WireClient(handle.data_address)
            try:
                client.send(tagged(b"lost", broken))
                assert wait_until(lambda: gateway.egress.faults >= 1)
                for i in range(10):
                    client.send(tagged(b"m%d" % i, healthy))
                    assert client.recv_frame().body == b"m%d" % i
            finally:
                client.close()
            assert egress_threads() == before
            faults = [
                e for e in gateway.telemetry.recorder.events()
                if e["category"] == "egress_fault"
            ]
            assert faults and all(e["session"] == broken for e in faults)
            assert "collect blew up" in faults[0]["error"]
            assert handle.control({"op": "introspect"})["egress_faults"] >= 1
