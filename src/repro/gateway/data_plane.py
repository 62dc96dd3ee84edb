"""The data plane: the asyncio socket listener clients actually talk to.

One ``asyncio.start_server`` accept loop; one read task per connection.
The per-connection pipeline is::

    socket bytes ──► FrameAssembler (incremental, validated Content-Length)
                ──► route by Content-Session ──► GatewaySession.offer()
                        │ ADMITTED                  │ FULL / RETRY
                        ▼                           ▼
                  stream ingress            park: stop reading this socket
                                            (TCP backpressure), re-probe
                                            until room or the park budget
                                            expires ──► shed into the
                                            drop ledger

Because parking happens *inside* the read task, a saturated session
freezes exactly the sockets feeding it: the kernel's receive window
closes and the client blocks in ``send`` — end-to-end backpressure with
no gateway-side buffering beyond the bounded session.

Egress rides the gateway's one pump thread: each pump cycle crosses to
the loop **once** (:meth:`DataPlane.egress_bridge`), carrying every frame
of the cycle; :meth:`DataPlane._write_batch` groups them by the
connection named in the message's ``X-MobiGATE-Connection`` stamp and
writes each connection once.  A connection that already buffers
``max_conn_write_buffer`` bytes — the transport's buffer plus what this
batch has queued for it — has further frames dropped (slow-reader
protection) rather than growing without bound.

Protocol errors (malformed framing, oversized declarations) poison the
connection's assembler; the plane answers with one ``text/plain`` error
frame carrying ``X-MobiGATE-Error`` and closes the socket.  Frames whose
``Content-Session`` matches no deployed session get the same error frame
but keep the connection open — framing is still intact.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro.errors import MimeError, QueueClosedError
from repro.gateway.config import GatewayConfig
from repro.gateway.session import ADMITTED, CONNECTION_HEADER, SHED
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

ERROR_HEADER = "X-MobiGATE-Error"

#: egress frames shorter than this are joined into one ``write`` per
#: connection and batch; from here up the join is a copy worth more than
#: the call it saves, so the frame is written as it is
COALESCE_BELOW = 16 * 1024


def _error_frame(detail: str) -> bytes:
    message = MimeMessage("text/plain", detail.encode("utf-8"))
    message.headers.set(ERROR_HEADER, detail[:200])
    return serialize_message(message)


class DataPlane:
    """The client-facing TCP listener."""

    def __init__(self, gateway, config: GatewayConfig):
        self._gateway = gateway
        self._config = config
        self._server: asyncio.AbstractServer | None = None
        self._conn_ids = itertools.count(1)
        self._writers: dict[str, asyncio.StreamWriter] = {}
        telemetry = gateway.telemetry
        if telemetry.enabled:
            self._conn_gauge = telemetry.gateway_connections_gauge()
            self._frames_in = telemetry.gateway_frames_counter("in")
            self._frames_out = telemetry.gateway_frames_counter("out")
            self._bytes_in = telemetry.gateway_bytes_counter("in")
            self._bytes_out = telemetry.gateway_bytes_counter("out")
            self._bp_counter = telemetry.gateway_backpressure_counter
            self._error_counter = telemetry.gateway_frame_errors_counter()
            self._admission_hist = telemetry.gateway_admission_histogram()
            self._egress_write_hist = telemetry.gateway_egress_write_histogram()
        else:
            self._conn_gauge = None
            self._frames_in = self._frames_out = None
            self._bytes_in = self._bytes_out = None
            self._bp_counter = None
            self._error_counter = None
            self._admission_hist = None
            self._egress_write_hist = None
        # observability independent of telemetry (bench + control plane)
        self.connections_served = 0
        self.frame_errors = 0
        self.unrouted_frames = 0
        self.write_overflow_drops = 0

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the client-facing listener."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._config.data_host,
            self._config.data_port,
            limit=max(self._config.read_chunk_bytes, 1 << 16),
            backlog=self._config.listen_backlog,
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral port requests."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("data plane is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def open_connections(self) -> int:
        return len(self._writers)

    async def stop(self) -> None:
        """Close the listener and every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()

    # -- per-connection read loop ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_id = f"c{next(self._conn_ids)}"
        self._writers[conn_id] = writer
        self.connections_served += 1
        if self._conn_gauge is not None:
            self._conn_gauge.inc()
        assembler = FrameAssembler(
            max_frame_bytes=self._config.max_frame_bytes,
            max_header_bytes=self._config.max_header_bytes,
        )
        gate = self._gateway.fault_gate
        try:
            while True:
                await gate.wait_clear()
                chunk = await reader.read(self._config.read_chunk_bytes)
                if not chunk:
                    return
                if self._bytes_in is not None:
                    self._bytes_in.inc(len(chunk))
                try:
                    messages = assembler.feed(chunk)
                except MimeError as exc:
                    self._count_error()
                    writer.write(_error_frame(f"bad frame: {exc}"))
                    return  # framing is lost; the finally clause closes
                for message in messages:
                    await self._ingest(conn_id, message, writer)
        except (ConnectionResetError, BrokenPipeError):  # client vanished
            return
        finally:
            self._writers.pop(conn_id, None)
            if self._conn_gauge is not None:
                self._conn_gauge.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _ingest(
        self, conn_id: str, message: MimeMessage, writer: asyncio.StreamWriter
    ) -> None:
        admission_hist = self._admission_hist
        if admission_hist is not None:
            t0 = time.perf_counter()
        if self._frames_in is not None:
            self._frames_in.inc()
        key = message.session
        session = self._gateway.route(key) if key else None
        if session is None:
            self.unrouted_frames += 1
            self._count_error()
            writer.write(_error_frame(f"no session {key!r} deployed"))
            return
        message.headers.set(CONNECTION_HEADER, conn_id)
        try:
            ticket = session.offer(message)
        except QueueClosedError:
            self.unrouted_frames += 1
            self._count_error()
            writer.write(_error_frame(f"session {key!r} is closed"))
            return
        if ticket.status in (ADMITTED, SHED):
            if ticket.status == ADMITTED and admission_hist is not None:
                admission_hist.observe(time.perf_counter() - t0)
            return
        # park: this await IS the socket read pause — no further bytes are
        # read from this connection until the session makes room or the
        # budget expires
        if self._bp_counter is not None:
            self._bp_counter("parked").inc()
        session.stats.inc("parked")
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._config.park_timeout
        while loop.time() < deadline:
            await asyncio.sleep(self._config.park_poll_interval)
            try:
                ticket = session.retry(ticket, message)
            except QueueClosedError:
                self.unrouted_frames += 1
                self._count_error()
                return
            if ticket.status in (ADMITTED, SHED):
                if ticket.status == ADMITTED:
                    if self._bp_counter is not None:
                        self._bp_counter("resumed").inc()
                    if admission_hist is not None:
                        # the park wait is part of the admission latency
                        admission_hist.observe(time.perf_counter() - t0)
                return
        session.abandon(ticket, message)
        if self._bp_counter is not None:
            self._bp_counter("shed").inc()

    def _count_error(self) -> None:
        self.frame_errors += 1
        if self._error_counter is not None:
            self._error_counter.inc()

    # -- egress (entered via call_soon_threadsafe from the pump thread) ----------------

    def egress_bridge(self, loop: asyncio.AbstractEventLoop):
        """The pump's hand-over: one loop crossing per batch of frames."""

        def bridge(frames: list) -> None:
            # stamp on the pump thread so the measured egress-write latency
            # includes the loop hop the handoff pays
            loop.call_soon_threadsafe(self._write_batch, frames, time.perf_counter())

        return bridge

    def _write_batch(self, frames: list, handoff_at: float | None = None) -> None:
        """Write one pump cycle's ``(session, conn_id, frame)`` triples."""
        if handoff_at is not None and self._egress_write_hist is not None:
            self._egress_write_hist.observe(time.perf_counter() - handoff_at)
        limit = self._config.max_conn_write_buffer
        size = 0
        # conn_id -> [writer, bytes buffered incl. this batch, frames to write]
        queued: dict[str, list] = {}
        for session, conn_id, frame in frames:
            entry = queued.get(conn_id)
            if entry is None:
                writer = self._writers.get(conn_id) if conn_id else None
                if writer is None or writer.transport.is_closing():
                    session.stats.inc("orphans")
                    continue
                entry = queued[conn_id] = [
                    writer, writer.transport.get_write_buffer_size(), []
                ]
            if entry[1] > limit:
                self.write_overflow_drops += 1
                session.stats.inc("orphans")
                continue
            entry[1] += len(frame)
            entry[2].append(frame)
            size += len(frame)
        written = 0
        for writer, _buffered, chunks in queued.values():
            written += len(chunks)
            small: list[bytes] = []
            for frame in chunks:
                if len(frame) < COALESCE_BELOW:
                    small.append(frame)
                    continue
                if small:
                    writer.write(b"".join(small))
                    small = []
                writer.write(frame)
            if small:
                writer.write(b"".join(small))
        if written and self._frames_out is not None:
            self._frames_out.inc(written)
            self._bytes_out.inc(size)
