"""End-to-end data-plane tests over real loopback sockets."""

import asyncio
import logging
import socket
import time
from collections import deque
from dataclasses import replace
from functools import partial
from unittest.mock import Mock

import pytest

from repro.faults.invariant import check_conservation
from repro.faults.plan import FaultPlan
from repro.gateway import ERROR_HEADER, GatewayConfig, GatewayServer
from repro.gateway.data_plane import _Connection
from repro.mime.headers import HeaderMap
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message
from repro.streamlets.basic import REDIRECTOR_DEF, Redirector

MCL = """main stream chain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""

#: the same chain built from a redirector that does not declare itself
#: cooperative: the gateway must step it on the egress pump's executor
WORKER_MCL = MCL.replace("(redirector)", "(worker_redirector)")


class WorkerRedirector(Redirector):
    """The redirector without the promise never to wait."""

    cooperative = False


def offer_worker_redirector(gateway: GatewayServer) -> GatewayServer:
    """Advertise the redirector a second time, as ``worker_redirector``."""
    gateway.mobigate.directory.advertise(
        replace(REDIRECTOR_DEF, name="worker_redirector"), WorkerRedirector
    )
    return gateway


class WireClient:
    """A blocking test client speaking the gateway's frame protocol."""

    def __init__(self, address, timeout=10.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.assembler = FrameAssembler()
        self.pending = []

    def send(self, message: MimeMessage) -> None:
        self.sock.sendall(serialize_message(message))

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv_frame(self) -> MimeMessage | None:
        """The next frame, or None once the gateway closes the connection."""
        while not self.pending:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.pending = self.assembler.feed(chunk)
        return self.pending.pop(0)

    def close(self) -> None:
        self.sock.close()


def tagged(body: bytes, session: str | None) -> MimeMessage:
    message = MimeMessage("application/octet-stream", body)
    if session is not None:
        message.headers.session = session
    return message


def deploy(handle, *, scheduler="threaded", mcl=MCL) -> str:
    reply = handle.control({"op": "deploy", "mcl": mcl, "scheduler": scheduler})
    assert reply["ok"], reply
    return reply["session"]


def poll_stats(handle, key, predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    stats = handle.control({"op": "stats", "session": key})
    while not predicate(stats):
        assert time.monotonic() < deadline, f"stats never converged: {stats}"
        time.sleep(0.02)
        stats = handle.control({"op": "stats", "session": key})
    return stats


class TestEcho:
    def test_roundtrip_threaded(self):
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle)
            client = WireClient(handle.data_address)
            try:
                client.send(tagged(b"ping", key))
                echo = client.recv_frame()
                assert echo is not None and echo.body == b"ping"
                # the gateway's internal connection stamp must not leak out
                assert echo.headers.get("X-MobiGATE-Connection") is None
            finally:
                client.close()
            stats = poll_stats(
                handle, key, lambda s: s["conservation"]["residual"] == 0
            )
            assert stats["conservation"]["balanced"], stats

    def test_roundtrip_worker_stepped(self):
        with offer_worker_redirector(GatewayServer()).run_in_thread() as handle:
            key = deploy(handle, mcl=WORKER_MCL)
            client = WireClient(handle.data_address)
            try:
                for i in range(5):
                    client.send(tagged(f"m{i}".encode(), key))
                assert [client.recv_frame().body for _ in range(5)] == [
                    f"m{i}".encode() for i in range(5)
                ]
            finally:
                client.close()
            stats = poll_stats(
                handle, key, lambda s: s["conservation"]["residual"] == 0
            )
            assert stats["stepped_by"] == "executor"
            assert stats["conservation"]["balanced"], stats

    def test_roundtrip_inline_scheduler(self):
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle, scheduler="inline")
            client = WireClient(handle.data_address)
            try:
                for i in range(5):
                    client.send(tagged(f"m{i}".encode(), key))
                bodies = {client.recv_frame().body for _ in range(5)}
                assert bodies == {f"m{i}".encode() for i in range(5)}
            finally:
                client.close()

    def test_two_sessions_route_independently(self):
        with GatewayServer().run_in_thread() as handle:
            key_a, key_b = deploy(handle), deploy(handle)
            assert key_a != key_b
            a, b = WireClient(handle.data_address), WireClient(handle.data_address)
            try:
                a.send(tagged(b"for-a", key_a))
                b.send(tagged(b"for-b", key_b))
                assert a.recv_frame().body == b"for-a"
                assert b.recv_frame().body == b"for-b"
            finally:
                a.close()
                b.close()


class TestProtocolErrors:
    def test_unrouted_session_gets_error_frame_and_connection_survives(self):
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle)
            client = WireClient(handle.data_address)
            try:
                client.send(tagged(b"lost", "ghost-session"))
                error = client.recv_frame()
                assert error is not None
                assert "ghost-session" in error.headers.get(ERROR_HEADER)
                # framing is intact: the same connection still works
                client.send(tagged(b"found", key))
                assert client.recv_frame().body == b"found"
            finally:
                client.close()

    def test_missing_session_header_gets_error_frame(self):
        with GatewayServer().run_in_thread() as handle:
            deploy(handle)
            client = WireClient(handle.data_address)
            try:
                client.send(tagged(b"anon", None))
                error = client.recv_frame()
                assert error.headers.get(ERROR_HEADER) is not None
            finally:
                client.close()

    def test_malformed_frame_answers_error_and_closes(self):
        with GatewayServer().run_in_thread() as handle:
            deploy(handle)
            client = WireClient(handle.data_address)
            try:
                client.send_raw(b"this is not a header line\n\n")
                error = client.recv_frame()
                assert error is not None
                assert error.headers.get(ERROR_HEADER) is not None
                assert client.recv_frame() is None  # gateway closed it
            finally:
                client.close()

    def test_frames_read_with_a_malformed_one_are_still_admitted(self):
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle)
            client = WireClient(handle.data_address)
            try:
                good = serialize_message(tagged(b"before", key))
                client.send_raw(good + b"this is not a header line\n\n")
                stats = poll_stats(
                    handle, key, lambda s: s["conservation"]["residual"] == 0
                    and s["frames_in"] == 1,
                )
                assert stats["conservation"]["admitted"] == 1
                assert stats["conservation"]["balanced"], stats
            finally:
                client.close()

    def test_oversized_declaration_rejected(self):
        config = GatewayConfig(max_frame_bytes=1024)
        with GatewayServer(config=config).run_in_thread() as handle:
            key = deploy(handle)
            client = WireClient(handle.data_address)
            try:
                message = tagged(b"x", key)
                raw = serialize_message(message)
                head, _, _body = raw.partition(b"\n\n")
                head = head.replace(b"Content-Length: 1", b"Content-Length: 999999")
                client.send_raw(head + b"\n\n")
                error = client.recv_frame()
                assert error is not None
                assert error.headers.get(ERROR_HEADER) is not None
                assert client.recv_frame() is None
            finally:
                client.close()


class TestBackpressure:
    def test_saturated_session_parks_then_sheds_into_the_ledger(self):
        config = GatewayConfig(
            session_ingress_limit=2,
            park_timeout=0.08,
        )
        with GatewayServer(config=config).run_in_thread() as handle:
            key = deploy(handle)
            # freeze the stream: admitted messages stay resident, so the
            # session saturates and later frames park and shed
            paused = handle.control({"op": "reconfigure", "event": "PAUSE", "session": key})
            assert paused["ok"] and paused["delivered"] == 1, paused
            n_sent = 8
            client = WireClient(handle.data_address)
            try:
                for i in range(n_sent):
                    client.send(tagged(f"m{i}".encode(), key))
                # every frame lands in the ledger: 2 resident + 6 shed
                stats = poll_stats(
                    handle, key,
                    lambda s: s["conservation"]["admitted"] == n_sent,
                )
                assert stats["parked"] > 0
                assert stats["shed"] == n_sent - 2
                assert stats["conservation"]["queue_drops"] == n_sent - 2
                assert stats["conservation"]["balanced"], stats

                resumed = handle.control(
                    {"op": "reconfigure", "event": "RESUME", "session": key}
                )
                assert resumed["ok"], resumed
                survivors = {client.recv_frame().body for _ in range(2)}
                assert survivors == {b"m0", b"m1"}
            finally:
                client.close()
            stats = poll_stats(
                handle, key, lambda s: s["conservation"]["residual"] == 0
            )
            assert stats["conservation"]["balanced"], stats

    def test_a_run_parked_when_its_session_is_undeployed_gets_an_error_frame(self):
        config = GatewayConfig(session_ingress_limit=1, park_timeout=10.0)
        with GatewayServer(config=config).run_in_thread() as handle:
            key = deploy(handle)
            session = handle.gateway.sessions[key]
            assert handle.control({"op": "reconfigure", "event": "PAUSE", "session": key})["ok"]
            client = WireClient(handle.data_address, timeout=5.0)
            try:
                client.send(tagged(b"m0", key))  # resident: the stream end-drops it
                client.send(tagged(b"m1", key))  # parked behind it, never admitted
                deadline = time.monotonic() + 5.0
                while session.stats.parked == 0:
                    assert time.monotonic() < deadline, "m1 never parked"
                    time.sleep(0.005)
                assert handle.control({"op": "undeploy", "session": key})["ok"]
                error = client.recv_frame()
                assert error is not None
                assert "is closed" in error.headers.get(ERROR_HEADER)
            finally:
                client.close()
            assert handle.gateway.data.unrouted_frames == 1
            assert handle.gateway.data.frame_errors == 1

    def test_a_run_whose_park_ends_after_the_undeploy_is_refused_not_shed(self):
        # the budget is spent once the session is closed: the shed refuses,
        # as the re-offer does, and nothing is dropped into the ended stream
        gateway = GatewayServer(config=GatewayConfig(park_timeout=0.0))
        session = gateway.deploy(MCL, session_key="gone")
        gateway.undeploy("gone", record=False)
        conn, written = _Connection(gateway.data), []
        conn.transport, conn.write = Mock(), written.append
        parked = (session, [tagged(b"late", "gone")], time.perf_counter())
        asyncio.run(conn._settle(parked, deque()))
        assert (session.stream.stats.queue_drops, session.stats.shed) == (0, 0)
        assert gateway.data.unrouted_frames == 1
        assert [b"is closed" in frame for frame in written] == [True]


class TestLinkOutage:
    def test_scripted_outage_stalls_reads_then_recovers(self):
        plan = FaultPlan()
        plan.link_outage(at=0.0, duration=0.5)
        gateway = GatewayServer(fault_plan=plan)
        begin = time.monotonic()
        with gateway.run_in_thread() as handle:
            key = deploy(handle)
            client = WireClient(handle.data_address)
            try:
                client.send(tagged(b"through the outage", key))
                echo = client.recv_frame()
                assert echo.body == b"through the outage"
            finally:
                client.close()
            # the echo cannot have completed before the outage window closed
            assert time.monotonic() - begin >= 0.45
            assert gateway.fault_gate.stalls >= 1
            assert plan.link_faults[0].applied


class TestLargeFrames:
    def test_frames_larger_than_the_receive_buffer_echo_byte_for_byte(self):
        config = GatewayConfig(read_chunk_bytes=4096)
        with GatewayServer(config=config).run_in_thread() as handle:
            key = deploy(handle)
            client = WireClient(handle.data_address)
            bodies = [bytes([i]) * 70_000 + b"tail-%d" % i for i in range(4)]
            try:
                for body in bodies:  # written back to back: frames share reads
                    client.send(tagged(body, key))
                assert [client.recv_frame().body for _ in bodies] == bodies
            finally:
                client.close()

    def test_a_64k_frame_written_one_byte_per_send_still_echoes(self):
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle)
            client = WireClient(handle.data_address, timeout=60.0)
            client.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            body = bytes(range(256)) * 256
            raw = serialize_message(tagged(body, key))
            try:
                for at in range(len(raw)):
                    client.sock.send(raw[at : at + 1])
                assert client.recv_frame().body == body
            finally:
                client.close()


def settle_tasks() -> list:
    """Pause tasks of data-plane connections alive on the running loop."""
    return [t for t in asyncio.all_tasks() if "_Connection" in repr(t.get_coro())]


class TestAbandonedPeers:
    """ROADMAP item 8's cases that live on the connection object: however a
    peer leaves, nothing of its connection is left behind."""

    @staticmethod
    async def gateway(**config):
        gateway = GatewayServer(config=GatewayConfig(**config))
        await gateway.start()
        session = gateway.deploy(MCL, session_key="s")
        return gateway, session

    @staticmethod
    async def closed(gateway, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while gateway.data.open_connections:
            assert asyncio.get_running_loop().time() < deadline, "connection never closed"
            await asyncio.sleep(0.005)

    @staticmethod
    def nothing_left(gateway, stream, caplog):
        assert gateway.data.open_connections == 0
        assert gateway.data._conn_gauge.value == 0
        assert settle_tasks() == []
        assert check_conservation(stream).balanced
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_disconnect_mid_header_and_mid_body(self, caplog):
        async def scenario():
            gateway, session = await self.gateway()
            try:
                whole = serialize_message(tagged(b"x" * 1000, "s"))
                for cut in (17, whole.index(b"\n\n") + 2 + 10):  # mid-header, mid-body
                    _reader, writer = await asyncio.open_connection(*gateway.data.address)
                    writer.write(whole[:cut])
                    await writer.drain()
                    while gateway.data.open_connections == 0:
                        await asyncio.sleep(0.005)
                    writer.close()
                    await self.closed(gateway)
                assert gateway.data.connections_served == 2
                assert session.stats.frames_in == 0 and gateway.data.frame_errors == 0
                self.nothing_left(gateway, session.stream, caplog)
            finally:
                await gateway.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())

    def test_disconnect_while_a_frame_is_parked(self, caplog):
        async def scenario():
            gateway, session = await self.gateway(
                session_ingress_limit=1, park_timeout=0.1
            )
            try:
                gateway.raise_event("PAUSE", session_key="s")
                _reader, writer = await asyncio.open_connection(*gateway.data.address)
                for i in range(3):
                    writer.write(serialize_message(tagged(b"m%d" % i, "s")))
                await writer.drain()
                while session.stats.parked == 0:
                    await asyncio.sleep(0.005)
                assert len(settle_tasks()) == 1
                writer.close()
                # a paused socket is not read, so the close is seen only once
                # the park budgets are spent: both frames are shed, in order
                await self.closed(gateway)
                assert session.stats.shed == 2
                report = check_conservation(session.stream)
                assert (report.admitted, session.stream.stats.queue_drops, report.residual) == (3, 2, 1)
                self.nothing_left(gateway, session.stream, caplog)
            finally:
                await gateway.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())

    def test_a_fault_while_settling_closes_the_connection(self, caplog):
        async def scenario():
            gateway, session = await self.gateway(session_ingress_limit=1, park_timeout=60.0)
            try:
                gateway.raise_event("PAUSE", session_key="s")
                reader, writer = await asyncio.open_connection(*gateway.data.address)
                for i in range(2):
                    writer.write(serialize_message(tagged(b"m%d" % i, "s")))
                while session.stats.parked == 0:
                    await asyncio.sleep(0.001)
                session.offer = Mock(side_effect=RuntimeError("boom"))  # the re-offer
                # a paused transport nobody resumes would never see this end
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                await self.closed(gateway)
                assert session.offer.call_count == 1 and settle_tasks() == []
                assert gateway.data._conn_gauge.value == 0
                writer.close()
            finally:
                await gateway.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())
        (record,) = [r for r in caplog.records if r.name == "asyncio"]
        assert "settling a paused connection failed" in record.getMessage()
        assert "boom" in str(record.exc_info[1])

    def test_stop_with_a_parked_connection(self, caplog):
        async def scenario():
            gateway, session = await self.gateway(session_ingress_limit=1, park_timeout=60.0)
            stream = session.stream
            gateway.raise_event("PAUSE", session_key="s")
            _reader, writer = await asyncio.open_connection(*gateway.data.address)
            for i in range(3):
                writer.write(serialize_message(tagged(b"m%d" % i, "s")))
            await writer.drain()
            while session.stats.parked == 0:
                await asyncio.sleep(0.005)
            assert len(settle_tasks()) == 1
            await asyncio.wait_for(gateway.stop(), 5.0)  # not the park budget
            # the frame that was parking and the one read behind it are shed
            # into the ledger, not forgotten
            assert session.stats.shed == 2
            report = check_conservation(stream)
            assert (report.admitted, stream.stats.queue_drops, stream.stats.end_drops) == (3, 2, 1)
            self.nothing_left(gateway, stream, caplog)
            writer.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())


class TestTheDoor:
    def test_a_loop_that_posts_its_reads_ahead_is_refused(self, monkeypatch):
        # every connection reads into one buffer, which only a selector
        # loop (get_buffer, recv_into, buffer_updated back to back) allows
        async def start():
            monkeypatch.setattr(asyncio, "get_running_loop", lambda: Mock())
            try:
                await GatewayServer().data.start()
            finally:
                monkeypatch.undo()

        with pytest.raises(RuntimeError, match="selector loop"):
            asyncio.run(start())

    def test_content_session_is_derived_once_per_frame(self, monkeypatch):
        # once per distinct head per connection: the assembler warms the
        # parsed head's memo and every frame with that head is a copy of
        # it, memo included; the gateway's stamps then replace the memo,
        # which carries the derived key over, so neither routing nor
        # admission derives it again
        derive, inside, derived = HeaderMap.session.fget, [], []

        def counting(headers):
            if "session" not in headers._memo and inside:
                derived.append(headers)
            return derive(headers)

        def read(nbytes):  # the read callback alone, on the pump's loop
            inside.append(True)
            try:
                connection.buffer_updated(nbytes)
            finally:
                inside.clear()

        monkeypatch.setattr(HeaderMap, "session", property(counting, HeaderMap.session.fset))
        gateway = GatewayServer()  # never started: the callbacks are driven by hand
        session = gateway.deploy(MCL, session_key="s")
        run_on_loop = gateway.egress.run  # admission is the pump loop's
        try:
            connection = _Connection(gateway.data)
            run_on_loop(partial(connection.connection_made, Mock()))
            raw = serialize_message(tagged(b"x", "s")) * 3
            gateway.data._recv_view[: len(raw)] = raw
            run_on_loop(partial(read, len(raw)))
            assert session.stats.frames_in == 3
            assert len(derived) == 1
            run_on_loop(partial(connection.connection_lost, None))
        finally:
            gateway.undeploy("s", record=False)
