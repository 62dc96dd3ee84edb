"""The data plane: the asyncio socket listener clients actually talk to.

One ``loop.create_server`` listener, one :class:`asyncio.BufferedProtocol`
object per connection, no task on the fast path.  The kernel fills the
plane's receive buffer (``read_chunk_bytes``) and the frames the read
completes are admitted inside that callback, in read order::

    recv_into ──► FrameAssembler.feed ──► consecutive frames of one session,
                                          up to its room, are one run
                                      ──► GatewaySession.offer(*run) per run
                        │ ADMITTED                  │ FULL
                        ▼                           ▼
                  stream ingress            park: pause_reading(); one task
                  (one post per run)        re-offers until room or the park
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

Egress is written on the same loop: the pump's cycle calls
``_write_batch`` once, after the cycle's ledger flush.  A framing error
gets one ``X-MobiGATE-Error`` frame and a closed socket, after the
frames the read completed before it are offered; a frame for an
undeployed session the same frame on an open one.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque

from repro.errors import FrameError, QueueClosedError
from repro.gateway.config import GatewayConfig
from repro.gateway.session import ADMITTED, FULL, GatewaySession
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

ERROR_HEADER = "X-MobiGATE-Error"

#: how often a parked run is re-offered to its session (seconds)
PARK_POLL_INTERVAL = 0.002

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
            messages, broken = self._assembler.feed(plane._recv_view[:nbytes]), None
        except FrameError as exc:
            messages, broken = exc.frames, str(exc)
        if read_at is not None:  # telemetry is on
            done, first = time.perf_counter(), self._frame_started or read_at
            for _ in messages:
                plane._assembly_hist.observe(done - first)
                first = read_at  # the later frames of a read began in it
            self._frame_started = first if self._assembler.pending_bytes else None
            plane._bytes_in.inc(nbytes)
            plane._frames_in.inc(len(messages))
        self._admit(messages)
        if broken is not None:  # the frames before it are offered; framing is lost
            plane._count_error()
            self.write(_error_frame(f"bad frame: {broken}"))
            self.transport.close()

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
        plane, frames = self._plane, deque(messages)
        parked = plane._ingest(self, frames)
        if parked is not None or plane._gateway.fault_gate.blocked:
            self.transport.pause_reading()
            self._paused = asyncio.get_running_loop().create_task(self._settle(parked, frames))

    async def _settle(self, parked: tuple | None, frames: deque[MimeMessage]) -> None:
        """Reads are paused while this runs: the parked run is re-offered
        until admitted or its budget is spent (then shed), the ``frames``
        read behind it are offered in order, an outage is sat out.  Once the
        connection is lost (a cancel) nothing waits: what is not admitted at
        once is shed, so every frame read is in the stream or its ledger."""
        plane, loop = self._plane, asyncio.get_running_loop()
        config, bp = plane._config, plane._bp_counter
        gone: asyncio.CancelledError | None = None
        try:
            while parked is not None:
                session, run, t0 = parked
                deadline = loop.time() + config.park_timeout
                status = FULL
                while status == FULL:
                    if gone is not None or loop.time() >= deadline:
                        session.shed(*run)
                        if bp is not None:
                            bp("shed").inc(len(run))
                        break
                    try:
                        await asyncio.sleep(PARK_POLL_INTERVAL)
                        status = session.offer(*run, conn_id=self.conn_id)
                    except asyncio.CancelledError as exc:
                        gone = exc
                    except QueueClosedError:
                        for _ in run:
                            plane._refuse(self, f"session {session.key!r} is closed")
                        break
                if status == ADMITTED:
                    if bp is not None:
                        bp("resumed").inc()
                    # the park wait is part of the admission latency
                    plane._observe_admission(run, t0)
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
        # every instrument stays None when the gateway is unobserved
        self._conn_gauge = self._frames_in = self._frames_out = None
        self._bytes_in = self._bytes_out = self._bp_counter = self._error_counter = None
        self._assembly_hist = self._admission_hist = None
        telemetry = gateway.telemetry
        if telemetry is not None:
            self._conn_gauge = telemetry.gateway_connections_gauge()
            self._frames_in = telemetry.gateway_frames_counter("in")
            self._frames_out = telemetry.gateway_frames_counter("out")
            self._bytes_in = telemetry.gateway_bytes_counter("in")
            self._bytes_out = telemetry.gateway_bytes_counter("out")
            self._bp_counter = telemetry.gateway_backpressure_counter
            self._error_counter = telemetry.gateway_frame_errors_counter()
            self._assembly_hist = telemetry.gateway_frame_assembly_histogram()
            self._admission_hist = telemetry.gateway_admission_histogram()
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

    def _ingest(self, conn: _Connection, frames: deque[MimeMessage]) -> tuple | None:
        """Offer ``frames`` from the left, in read order, up to the first
        that has to wait: its park state, with ``frames`` left just behind it.

        Consecutive frames of one session, up to its room, are one run; a
        frame that finds the room used up is a run of one, and parks.
        """
        route = self._gateway.route
        while frames:
            t0 = time.perf_counter() if self._admission_hist is not None else 0.0
            key = frames[0].headers.session
            session = route(key)
            if session is None:
                frames.popleft()
                self._refuse(conn, f"no session {key!r} deployed")
                continue
            run, room = [frames.popleft()], session.room
            while frames and len(run) < room and frames[0].headers.session == key:
                run.append(frames.popleft())
            parked = self._offer(conn, session, run, t0)
            if parked is not None:
                return parked
        return None

    def _offer(self, conn: _Connection, session: GatewaySession, run: list, t0: float):
        """Offer one session's run: its park state if it has to wait, else None."""
        try:
            status = session.offer(*run, conn_id=conn.conn_id)
        except QueueClosedError:
            for _ in run:
                self._refuse(conn, f"session {session.key!r} is closed")
            return None
        if status == ADMITTED:
            self._observe_admission(run, t0)
        elif status == FULL:
            if self._bp_counter is not None:
                self._bp_counter("parked").inc()
            session.stats.parked += 1
            return session, run, t0
        return None

    def _observe_admission(self, run: list, t0: float) -> None:
        if self._admission_hist is not None:
            elapsed = time.perf_counter() - t0
            for _ in run:
                self._admission_hist.observe(elapsed)

    def _refuse(self, conn: _Connection, detail: str) -> None:
        self.unrouted_frames += 1
        self._count_error()
        conn.write(_error_frame(detail))

    def _count_error(self) -> None:
        self.frame_errors += 1
        if self._error_counter is not None:
            self._error_counter.inc()

    # -- egress (the pump's bridge, called inside its cycle on the loop) ---------------

    def _write_batch(self, frames: list) -> None:
        """Write one pump cycle's ``(session, conn_id, frame)`` triples, a
        ``frame`` being a ``(head, payload)`` pair or the wire bytes whole.
        Per connection, runs of buffers under ``COALESCE_BELOW`` are joined
        into one write; a connection already buffering
        ``max_conn_write_buffer`` bytes — its transport's plus this
        batch's — has further frames dropped."""
        limit = self._config.max_conn_write_buffer
        size = written = 0
        # conn_id -> [writer, bytes buffered incl. this batch, buffers to write]
        queued: dict[str, list] = {}
        for session, conn_id, frame in frames:
            entry = queued.get(conn_id)
            if entry is None:
                writer = self._writers.get(conn_id) if conn_id else None
                if writer is None or writer.transport.is_closing():
                    session.stats.orphans += 1
                    continue
                entry = queued[conn_id] = [writer, writer.transport.get_write_buffer_size(), []]
            if entry[1] > limit:
                self.write_overflow_drops += 1
                session.stats.orphans += 1
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
