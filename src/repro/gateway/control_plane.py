"""The control plane: a localhost management API, split from the data path.

The MobiGATE proxy follows the dual-router shape: the data listener faces
clients and moves frames; this second, loopback-only server carries the
management verbs.  The protocol is deliberately minimal — one JSON object
per line in, one JSON object per line out — so ``nc``/``socat``, the
bench, and the tests all speak it without a client library.

Request: ``{"op": <verb>, ...}``.  Response: ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``.  Verbs:

``health``
    Liveness + the data plane's address, session and connection counts.
``deploy``
    ``{"mcl": source, "session"?: key, "scheduler"?: "threaded"|"inline",
    "stream"?: name}`` — compile, verify, and deploy an MCL script as a
    new gateway session; returns the routing key clients must put in
    ``Content-Session``.  ``"threaded"`` (the default) starts a worker
    thread per streamlet only where a streamlet may need one; see
    :meth:`~repro.gateway.server.GatewayServer.deploy`.
``reconfigure``
    ``{"event": name, "session"?: key}`` — raise a context event (scoped
    to one session's stream when given); compiled ``when`` handlers run
    as :class:`~repro.runtime.reconfig.ReconfigTransaction` epochs.
``set_param``
    ``{"session": key, "instance": id, "key": k, "value": v}`` — the
    §8.2.1 per-streamlet control interface.
``stats``
    ``{"session": key}`` — stream statistics, gateway boundary counters,
    and the message-conservation ledger (with its ``balanced`` verdict).
``sessions``
    List every deployed session's summary.
``telemetry``
    A JSON snapshot of the metrics registry (empty when telemetry is the
    null twin).
``introspect``
    Live-state snapshot: per-session queue depths/watermarks, who steps
    the session (``stepped_by``) with worker states and utilization or
    the egress pump's own figures, RCU snapshot versions, the session
    table, data-plane connection counts, and flight-recorder health.
``attribution``
    ``{"session"?: key}`` — the per-hop latency attribution tables
    (queue_wait / service / egress histogram summaries) plus the
    component decomposition against the measured end-to-end latency.
``events``
    ``{"cursor"?: n, "limit"?: n}`` — the flight recorder's tail: events
    with seq > cursor, the cursor to resume from, and the eviction gap.
``metrics``
    The registry rendered in Prometheus text format.
``undeploy``
    ``{"session": key}`` — close a session and release its stream.
    Writes the ledger's ``undeployed`` record: crash recovery will not
    restore a deliberately undeployed session.
``dead_letters``
    ``{"session": key}`` — list the session supervisor's parked dead
    letters (id, failing instance/port, attempts, reason) plus the
    pool's capacity bound and eviction count.
``requeue``
    ``{"session": key, "msg_id": id}`` — take one parked dead letter
    and re-inject it through the ordinary admission path (gateway
    headers stripped), without restarting anything.  A session at its
    ingress bound re-parks the entry and reports the refusal.
``recovery``
    ``{"reconcile"?: true}`` — what crash recovery did at boot (per
    session: restored?, frozen in-flight, re-parked, re-injected); with
    ``reconcile`` also folds the ledger and balances the cross-crash
    conservation equation against live residency.
``drain``
    Graceful shutdown: stop intake, wait for sessions to quiesce,
    flush and close the ledger.  Responds first, then drains.

Mutating verbs run in the default executor: deployment takes runtime
locks and joins threads, which must not stall the event loop that is
concurrently moving data frames.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.errors import MobiGateError
from repro.gateway.config import GatewayConfig

#: ceiling on one control line (requests carry whole MCL scripts)
MAX_CONTROL_LINE = 1 << 20


class ControlPlane:
    """The loopback line-delimited-JSON management server."""

    def __init__(self, gateway, config: GatewayConfig):
        self._gateway = gateway
        self._config = config
        self._server: asyncio.AbstractServer | None = None
        self.requests_served = 0
        self.request_failures = 0

    async def start(self) -> None:
        """Bind the loopback management listener."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._config.control_host,
            self._config.control_port,
            limit=MAX_CONTROL_LINE,
        )

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("control plane is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Close the listener (in-flight requests finish on their own)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request loop ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_encode({"ok": False, "error": "request line too long"}))
                    return
                if not line:
                    return
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                writer.write(_encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, line: bytes) -> dict:
        self.requests_served += 1
        try:
            request = json.loads(line)
        except ValueError as exc:
            self.request_failures += 1
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(request, dict) or not isinstance(request.get("op"), str):
            self.request_failures += 1
            return {"ok": False, "error": "request must be an object with an 'op' string"}
        op = request["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            self.request_failures += 1
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return await handler(request)
        except MobiGateError as exc:
            self.request_failures += 1
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        except (KeyError, TypeError, ValueError) as exc:
            self.request_failures += 1
            return {"ok": False, "error": f"bad request: {exc}"}

    # -- verbs -------------------------------------------------------------------------

    async def _op_health(self, request: dict) -> dict:
        gateway = self._gateway
        return {
            "ok": True,
            "uptime_s": gateway.uptime(),
            "sessions": len(gateway.sessions),
            "connections": gateway.data.open_connections,
            "data_address": list(gateway.data.address),
            "frame_errors": gateway.data.frame_errors,
            "unrouted_frames": gateway.data.unrouted_frames,
        }

    async def _op_deploy(self, request: dict) -> dict:
        mcl = request["mcl"]
        if not isinstance(mcl, str) or not mcl.strip():
            return {"ok": False, "error": "'mcl' must be a non-empty MCL source string"}
        scheduler = request.get("scheduler", "threaded")
        if scheduler not in ("threaded", "inline"):
            return {"ok": False, "error": f"unknown scheduler {scheduler!r}"}
        loop = asyncio.get_running_loop()
        session = await loop.run_in_executor(
            None,
            lambda: self._gateway.deploy(
                mcl,
                session_key=request.get("session"),
                stream=request.get("stream"),
                scheduler=scheduler,
            ),
        )
        return {
            "ok": True,
            "session": session.key,
            "stream": session.stream.name,
            "epoch": session.stream.epoch,
        }

    async def _op_reconfigure(self, request: dict) -> dict:
        event = request["event"]
        key = request.get("session")
        loop = asyncio.get_running_loop()
        delivered = await loop.run_in_executor(
            None, lambda: self._gateway.raise_event(event, session_key=key)
        )
        response: dict = {"ok": True, "event": event, "delivered": delivered}
        if key is not None:
            session = self._gateway.route(key)
            if session is not None:
                response["epoch"] = session.stream.epoch
        return response

    async def _op_set_param(self, request: dict) -> dict:
        session = self._require_session(request)
        if isinstance(session, dict):
            return session
        session.stream.set_param(request["instance"], request["key"], request["value"])
        return {"ok": True}

    async def _op_stats(self, request: dict) -> dict:
        session = self._require_session(request)
        if isinstance(session, dict):
            return session
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, lambda: self._gateway.describe(session))

    async def _op_sessions(self, request: dict) -> dict:
        return {
            "ok": True,
            "sessions": [s.describe() for s in self._gateway.sessions.values()],
        }

    async def _op_telemetry(self, request: dict) -> dict:
        telemetry = self._gateway.telemetry
        if not telemetry.enabled:
            return {"ok": True, "enabled": False, "snapshot": {}}
        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(None, telemetry.snapshot)
        return {"ok": True, "enabled": True, "snapshot": snapshot}

    async def _op_introspect(self, request: dict) -> dict:
        loop = asyncio.get_running_loop()
        state = await loop.run_in_executor(None, self._gateway.introspect)
        return {"ok": True, **state}

    async def _op_attribution(self, request: dict) -> dict:
        from repro.telemetry.attribution import decompose, summarize

        telemetry = self._gateway.telemetry
        if not telemetry.enabled:
            return {"ok": True, "enabled": False, "components": {}, "decomposition": {}}
        key = request.get("session")
        stream_name = None
        if key is not None:
            session = self._gateway.route(key)
            if session is None:
                self.request_failures += 1
                return {"ok": False, "error": f"no session {key!r}"}
            stream_name = session.stream.name
        loop = asyncio.get_running_loop()

        def _gather() -> dict:
            telemetry.flush()
            registry = telemetry.registry
            return {
                "components": summarize(registry, stream=stream_name),
                "decomposition": decompose(registry, stream=stream_name),
            }

        tables = await loop.run_in_executor(None, _gather)
        return {"ok": True, "enabled": True, **tables}

    async def _op_events(self, request: dict) -> dict:
        cursor = request.get("cursor", 0)
        limit = request.get("limit")
        if not isinstance(cursor, int) or cursor < 0:
            return {"ok": False, "error": "'cursor' must be a non-negative integer"}
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            return {"ok": False, "error": "'limit' must be a non-negative integer"}
        recorder = self._gateway.telemetry.recorder
        tail = recorder.tail(cursor, limit=limit)
        return {"ok": True, "enabled": recorder.enabled, **tail}

    async def _op_metrics(self, request: dict) -> dict:
        telemetry = self._gateway.telemetry
        if not telemetry.enabled:
            return {"ok": True, "enabled": False, "metrics": ""}
        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(None, telemetry.prometheus)
        return {"ok": True, "enabled": True, "metrics": text}

    async def _op_undeploy(self, request: dict) -> dict:
        key = request["session"]
        loop = asyncio.get_running_loop()
        removed = await loop.run_in_executor(None, lambda: self._gateway.undeploy(key))
        if not removed:
            return {"ok": False, "error": f"no session {key!r}"}
        return {"ok": True, "session": key}

    async def _op_dead_letters(self, request: dict) -> dict:
        session = self._require_session(request)
        if isinstance(session, dict):
            return session
        supervisor = session.supervisor
        if supervisor is None:
            return {
                "ok": True,
                "session": session.key,
                "supervised": False,
                "dead_letters": [],
            }
        pool = supervisor.dead_letters
        return {
            "ok": True,
            "session": session.key,
            "supervised": True,
            "capacity": pool.capacity,
            "evicted": pool.evicted,
            "dead_letters": [
                {
                    "msg_id": entry.msg_id,
                    "instance": entry.instance,
                    "port": entry.port,
                    "attempts": entry.attempts,
                    "reason": entry.reason,
                    "has_message": entry.message is not None,
                }
                for entry in pool
            ],
        }

    async def _op_requeue(self, request: dict) -> dict:
        from repro.gateway.session import (
            ADMITTED,
            CONNECTION_HEADER,
            FULL,
            INGRESS_HEADER,
            RETRY,
        )

        session = self._require_session(request)
        if isinstance(session, dict):
            return session
        msg_id = request["msg_id"]
        supervisor = session.supervisor
        if supervisor is None:
            return {"ok": False, "error": f"session {session.key!r} is not supervised"}
        if msg_id not in supervisor.dead_letters:
            return {"ok": False, "error": f"no dead letter with id {msg_id!r}"}
        entry = supervisor.dead_letters.take(msg_id)
        message = entry.message
        if message is None:
            supervisor.dead_letters.add(entry)  # keep it inspectable
            return {
                "ok": False,
                "error": f"dead letter {msg_id!r} carries no message payload",
            }
        message.headers.remove(CONNECTION_HEADER)
        message.headers.remove(INGRESS_HEADER)
        # admission must happen on this (the event-loop) thread; the
        # non-blocking offer path makes that safe without an executor
        ticket = session.offer(message)
        attempts = 0
        while ticket.status == RETRY and attempts < 64:
            await asyncio.sleep(0.002)
            ticket = session.retry(ticket, message)
            attempts += 1
        if ticket.status in (FULL, RETRY):
            supervisor.dead_letters.add(entry)  # no room: park it again
            return {
                "ok": False,
                "error": f"session {session.key!r} refused the requeue "
                f"({ticket.status}); the entry is parked again",
            }
        # ADMITTED or SHED: the copy re-entered the stream (a shed is
        # re-admitted then dropped with accounting) — settle the park
        if session.ledger.enabled:
            session.ledger.requeue(session.key, msg_id)
        return {
            "ok": True,
            "session": session.key,
            "msg_id": msg_id,
            "status": ticket.status,
        }

    async def _op_recovery(self, request: dict) -> dict:
        gateway = self._gateway
        report = gateway.recovery.last_report
        response: dict = {
            "ok": True,
            "enabled": gateway.ledger.enabled,
            "recovery": report.describe() if report is not None else None,
        }
        if request.get("reconcile"):
            loop = asyncio.get_running_loop()
            reconciled = await loop.run_in_executor(None, gateway.recovery.reconcile)
            response["reconcile"] = reconciled.describe()
        return response

    async def _op_drain(self, request: dict) -> dict:
        loop = asyncio.get_running_loop()
        # respond first: the drain closes this very listener
        loop.call_later(0.05, lambda: loop.create_task(self._gateway.drain()))
        return {"ok": True, "draining": True}

    def _require_session(self, request: dict):
        key = request["session"]
        session = self._gateway.route(key)
        if session is None:
            self.request_failures += 1
            return {"ok": False, "error": f"no session {key!r}"}
        return session


def _encode(response: dict) -> bytes:
    return json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"


# ---------------------------------------------------------------------------
# synchronous convenience client
# ---------------------------------------------------------------------------


def control_request(
    address: tuple[str, int], request: dict, *, timeout: float = 10.0
) -> dict:
    """One blocking request/response round against a control plane.

    Convenience for tests, benches, and scripts running outside the
    gateway's event loop; opens a fresh connection per call.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        buf = bytearray()
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("control connection closed mid-response")
            buf += chunk
    return json.loads(buf.decode("utf-8"))
