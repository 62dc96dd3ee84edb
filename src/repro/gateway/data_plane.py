"""The data plane: the asyncio socket listener clients actually talk to.

One ``loop.create_server`` listener, one :class:`asyncio.BufferedProtocol`
object per connection, no task on the fast path.  The kernel fills the
plane's receive buffer (``read_chunk_bytes``) and each frame the read
completes is admitted inside that callback::

    recv_into ──► FrameAssembler.feed ──► route by Content-Session
                                      ──► GatewaySession.offer()
                        │ ADMITTED                  │ FULL / RETRY
                        ▼                           ▼
                  stream ingress            park: pause_reading(); one task
                                            re-probes until room or the park
                                            budget is spent (──► shed into the
                                            drop ledger), offers the frames read
                                            behind it, then resume_reading()

A parked connection is not read, so a saturated session freezes exactly
the sockets feeding it: the client's TCP window closes, and nothing is
buffered here beyond the bounded session.  A scripted link outage is the
same pause.  Every connection reads into the one buffer: a selector loop
runs ``get_buffer``, ``recv_into`` and ``buffer_updated`` back to back
and the assembler keeps no reference into the chunk (a proactor loop
posts its reads ahead, so :meth:`DataPlane.start` refuses one).

Egress crosses from the pump thread once per cycle (``_write_batch``).  A
framing error gets one ``X-MobiGATE-Error`` frame and a closed socket; a
frame for an undeployed session the same frame on an open one.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections.abc import Iterator

from repro.errors import MimeError, QueueClosedError
from repro.gateway.config import GatewayConfig
from repro.gateway.session import ADMITTED, CONNECTION_HEADER, SHED
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

ERROR_HEADER = "X-MobiGATE-Error"

#: egress buffers shorter than this are joined into one ``write`` per
#: connection and batch; from here up the join is a copy worth more than
#: the call it saves, so the buffer is written as it is
COALESCE_BELOW = 16 * 1024


def _error_frame(detail: str) -> bytes:
    message = MimeMessage("text/plain", detail.encode("utf-8"))
    message.headers.set(ERROR_HEADER, detail[:200])
    return serialize_message(message)


class _Connection(asyncio.BufferedProtocol):
    """One client connection: its assembler, and its pause while one lasts.

    Also what the plane registers under the connection id for egress:
    ``transport`` and ``write`` are all :meth:`DataPlane._write_batch` uses.
    """

    def __init__(self, plane: DataPlane):
        self._plane = plane
        self.conn_id = f"c{next(plane._conn_ids)}"
        self._assembler = FrameAssembler(
            max_frame_bytes=plane._config.max_frame_bytes,
            max_header_bytes=plane._config.max_header_bytes,
        )
        self._frame_started: float | None = None  # first byte of a frame left open
        self._paused: asyncio.Task | None = None  # exists while reads are paused

    def connection_made(self, transport: asyncio.Transport) -> None:
        plane = self._plane
        self.transport = transport
        self.write = transport.write
        plane._writers[self.conn_id] = self
        plane.connections_served += 1
        if plane._conn_gauge is not None:
            plane._conn_gauge.inc()
        self._admit([])  # nothing to offer yet, but the link may be down

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._plane._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        plane = self._plane
        read_at = time.perf_counter() if plane._assembly_hist is not None else None
        try:
            messages = self._assembler.feed(plane._recv_view[:nbytes])
        except MimeError as exc:
            plane._count_error()
            self.write(_error_frame(f"bad frame: {exc}"))
            self.transport.close()  # framing is lost
            return
        if read_at is not None:  # telemetry is on
            done, first = time.perf_counter(), self._frame_started or read_at
            for _ in messages:
                plane._assembly_hist.observe(done - first)
                first = read_at  # the later frames of a read began in it
            self._frame_started = first if self._assembler.pending_bytes else None
            plane._bytes_in.inc(nbytes)
            plane._frames_in.inc(len(messages))
        self._admit(messages)

    def connection_lost(self, exc: Exception | None) -> None:
        plane = self._plane
        del plane._writers[self.conn_id]
        if plane._conn_gauge is not None:
            plane._conn_gauge.dec()
        if self._paused is not None:
            self._paused.cancel()

    def _admit(self, messages: list[MimeMessage]) -> None:
        """Offer what a read completed; pause reads behind a frame that has
        to park, or while the link is down."""
        plane, frames = self._plane, iter(messages)
        parked = plane._ingest(self, frames)
        if parked is not None or plane._gateway.fault_gate.blocked:
            self.transport.pause_reading()
            self._paused = asyncio.get_running_loop().create_task(self._settle(parked, frames))

    async def _settle(self, parked: tuple | None, frames: Iterator[MimeMessage]) -> None:
        """Reads are paused while this runs: the parked frame is re-probed
        until admitted or its budget is spent (then shed), the ``frames``
        read behind it are offered in order, an outage is sat out.  Once the
        connection is lost (a cancel) nothing waits: what is not admitted at
        once is shed, so every frame read is in the stream or its ledger."""
        plane, loop = self._plane, asyncio.get_running_loop()
        config, bp = plane._config, plane._bp_counter
        gone: asyncio.CancelledError | None = None
        try:
            while parked is not None:
                session, ticket, message, t0 = parked
                deadline = loop.time() + config.park_timeout
                while ticket.status not in (ADMITTED, SHED):
                    if gone is not None or loop.time() >= deadline:
                        ticket = session.abandon(ticket, message)
                        if bp is not None:
                            bp("shed").inc()
                        break
                    try:
                        await asyncio.sleep(config.park_poll_interval)
                        ticket = session.retry(ticket, message)
                    except asyncio.CancelledError as exc:
                        gone = exc
                    except QueueClosedError:
                        plane.unrouted_frames += 1
                        plane._count_error()
                        break
                if ticket.status == ADMITTED:
                    if bp is not None:
                        bp("resumed").inc()
                    if plane._admission_hist is not None:
                        # the park wait is part of the admission latency
                        plane._admission_hist.observe(time.perf_counter() - t0)
                parked = plane._ingest(self, frames)
            if gone is not None:
                raise gone
            await plane._gateway.fault_gate.wait_clear()
            self.transport.resume_reading()
        except Exception as exc:  # a connection nobody reads must not stay open
            loop.call_exception_handler(
                {"message": "settling a paused connection failed", "exception": exc}
            )
            self.transport.abort()
        finally:
            self._paused = None


class DataPlane:
    """The client-facing TCP listener."""

    def __init__(self, gateway, config: GatewayConfig):
        self._gateway = gateway
        self._config = config
        self._server: asyncio.AbstractServer | None = None
        self._conn_ids = itertools.count(1)
        #: conn id -> the connection (anything with ``transport`` and ``write``)
        self._writers: dict[str, _Connection] = {}
        #: what every connection reads into (module docstring)
        self._recv_view = memoryview(bytearray(config.read_chunk_bytes))
        telemetry = gateway.telemetry  # the disabled kind hands out None for each
        self._conn_gauge = telemetry.gateway_connections_gauge()
        self._frames_in = telemetry.gateway_frames_counter("in")
        self._frames_out = telemetry.gateway_frames_counter("out")
        self._bytes_in = telemetry.gateway_bytes_counter("in")
        self._bytes_out = telemetry.gateway_bytes_counter("out")
        self._bp_counter = telemetry.gateway_backpressure_counter if telemetry.enabled else None
        self._error_counter = telemetry.gateway_frame_errors_counter()
        self._assembly_hist = telemetry.gateway_frame_assembly_histogram()
        self._admission_hist = telemetry.gateway_admission_histogram()
        self._egress_write_hist = telemetry.gateway_egress_write_histogram()
        # observability independent of telemetry (bench + control plane)
        self.connections_served = 0
        self.frame_errors = 0
        self.unrouted_frames = 0
        self.write_overflow_drops = 0

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the client-facing listener."""
        loop = asyncio.get_running_loop()
        if not isinstance(loop, asyncio.SelectorEventLoop):
            raise RuntimeError("the data plane's shared receive buffer needs a selector loop")
        self._server = await loop.create_server(
            lambda: _Connection(self),
            self._config.data_host,
            self._config.data_port,
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
        """Close the listener and every connection; no pause task outlives it."""
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        connections = list(self._writers.values())
        paused = [conn._paused for conn in connections if conn._paused is not None]
        for conn in connections:
            conn.transport.abort()  # connection_lost follows on the next turn
        await asyncio.gather(asyncio.sleep(0), *paused, return_exceptions=True)
        await server.wait_closed()

    # -- admission (inside the read callback, or the pause task) -----------------------

    def _ingest(self, conn: _Connection, frames: Iterator[MimeMessage]) -> tuple | None:
        """Route and offer ``frames`` in order up to the first that has to
        wait: its park state, with ``frames`` left just behind it."""
        admission_hist = self._admission_hist
        for message in frames:
            t0 = time.perf_counter() if admission_hist is not None else 0.0
            headers = message.headers
            key = headers.session  # the stamps that follow carry the derived key over
            session = self._gateway.route(key) if key else None
            if session is None:
                self._refuse(conn, f"no session {key!r} deployed")
                continue
            headers.set(CONNECTION_HEADER, conn.conn_id)
            try:
                ticket = session.offer(message)
            except QueueClosedError:
                self._refuse(conn, f"session {key!r} is closed")
                continue
            if ticket.status == ADMITTED:
                if admission_hist is not None:
                    admission_hist.observe(time.perf_counter() - t0)
            elif ticket.status != SHED:
                if self._bp_counter is not None:
                    self._bp_counter("parked").inc()
                session.stats.inc("parked")
                return session, ticket, message, t0
        return None

    def _refuse(self, conn: _Connection, detail: str) -> None:
        self.unrouted_frames += 1
        self._count_error()
        conn.write(_error_frame(detail))

    def _count_error(self) -> None:
        self.frame_errors += 1
        if self._error_counter is not None:
            self._error_counter.inc()

    # -- egress (entered via call_soon_threadsafe from the pump thread) ----------------

    def egress_bridge(self, loop: asyncio.AbstractEventLoop):
        """The pump's hand-over: one loop crossing per batch of frames, stamped on
        the pump thread so the egress-write latency includes the loop hop."""
        return lambda frames: loop.call_soon_threadsafe(
            self._write_batch, frames, time.perf_counter()
        )

    def _write_batch(self, frames: list, handoff_at: float | None = None) -> None:
        """Write one pump cycle's ``(session, conn_id, frame)`` triples, a
        ``frame`` being a ``(head, payload)`` pair or the wire bytes whole.
        Per connection, runs of buffers under ``COALESCE_BELOW`` are joined
        into one write; a connection already buffering
        ``max_conn_write_buffer`` bytes — its transport's plus this
        batch's — has further frames dropped."""
        if handoff_at is not None and self._egress_write_hist is not None:
            self._egress_write_hist.observe(time.perf_counter() - handoff_at)
        limit = self._config.max_conn_write_buffer
        size = written = 0
        # conn_id -> [writer, bytes buffered incl. this batch, buffers to write]
        queued: dict[str, list] = {}
        for session, conn_id, frame in frames:
            entry = queued.get(conn_id)
            if entry is None:
                writer = self._writers.get(conn_id) if conn_id else None
                if writer is None or writer.transport.is_closing():
                    session.stats.inc("orphans")
                    continue
                entry = queued[conn_id] = [writer, writer.transport.get_write_buffer_size(), []]
            if entry[1] > limit:
                self.write_overflow_drops += 1
                session.stats.inc("orphans")
                continue
            buffers = frame if frame.__class__ is tuple else (frame,)
            nbytes = sum(map(len, buffers))
            entry[2].extend(buffers)
            entry[1] += nbytes
            size += nbytes
            written += 1
        for writer, _buffered, chunks in queued.values():
            for large, run in itertools.groupby(chunks, lambda c: len(c) >= COALESCE_BELOW):
                if large:
                    for chunk in run:
                        writer.write(chunk)  # the object itself: no copy here
                else:
                    writer.write(b"".join(run))
        if written and self._frames_out is not None:
            self._frames_out.inc(written)
            self._bytes_out.inc(size)
