"""The gateway proper: both planes, the session table, and the runtime bridge.

:class:`GatewayServer` is the deployable artifact of :mod:`repro.gateway`.
It owns one :class:`~repro.runtime.server.MobiGateServer` (the streamlet
runtime), an asyncio **data plane** clients stream MIME frames to, and a
loopback **control plane** management tools speak JSON to.  Frames are
routed by their ``Content-Session`` header to :class:`GatewaySession`
objects, each wrapping one deployed stream plus the scheduler the egress
pump steps it with.

Two ways to run it::

    # inside an existing event loop
    gateway = GatewayServer()
    await gateway.start()
    gateway.deploy(MCL_SOURCE)          # or via the control API
    ...
    await gateway.stop()

    # from synchronous code (tests, benches, the example)
    with GatewayServer().run_in_thread() as handle:
        reply = handle.control({"op": "deploy", "mcl": MCL_SOURCE})
        ...  # connect sockets to handle.data_address

``deploy``, ``undeploy``, ``raise_event`` and ``describe`` may be called
from any thread: each runs on the loop as an owner call
(:mod:`repro.gateway.session`, "One owner per stream") and waits for it.
Compiled stream names are made unique per deployment so the same MCL
script can back many concurrent sessions.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import signal
import threading
import time
from dataclasses import asdict, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.apps import build_server
from repro.errors import MobiGateError
from repro.faults.invariant import DROP_KINDS, check_conservation
from repro.gateway.config import GatewayConfig
from repro.gateway.control_plane import ControlPlane, control_request
from repro.gateway.data_plane import DataPlane
from repro.gateway.faults import LinkOutageGate
from repro.gateway.session import EgressPump, GatewaySession
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.server import MobiGateServer
from repro.store.base import open_store
from repro.store.ledger import Ledger
from repro.store.recovery import RecoveryManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.telemetry import Telemetry


def serve_forever(loop: asyncio.AbstractEventLoop) -> None:
    """Run ``loop`` until it is stopped, then close it: a loop thread's body."""
    try:
        loop.run_forever()
    finally:
        loop.close()


def _cooperative_only(table, directory) -> bool:
    """Whether ``table`` can only ever instantiate cooperative streamlets.

    Looks at every definition the composition starts with and every one
    a ``when`` handler may ``new`` later, so the answer holds across
    reconfigurations.  A factory that is not a class declaring
    ``cooperative`` (a closure, say) counts as one that may block.
    """
    definitions = list(table.instances.values()) + table.handler_streamlet_defs()
    return all(
        getattr(directory.factory_for(definition), "cooperative", False)
        for definition in definitions
    )


class GatewayServer:
    """A MobiGATE proxy node: data plane + control plane + session table."""

    def __init__(
        self,
        *,
        config: GatewayConfig | None = None,
        server: MobiGateServer | None = None,
        telemetry: "Telemetry | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ):
        self.config = config if config is not None else GatewayConfig()
        # NULL_TELEMETRY resolves to None in the server; the gateway shares it
        self.mobigate = server if server is not None else build_server(telemetry=telemetry)
        self.telemetry = self.mobigate.telemetry
        #: ``Content-Session`` key -> session (read by the data plane per frame)
        self.sessions: dict[str, GatewaySession] = {}
        self.data = DataPlane(self, self.config)
        self.control = ControlPlane(self, self.config)
        self.fault_gate = LinkOutageGate(fault_plan, telemetry=self.telemetry)
        #: durable state plane: no store, no ledger and no recovery
        self.ledger: Ledger | None = None
        self.recovery: RecoveryManager | None = None
        if self.config.store_backend is not None:
            store = open_store(
                self.config.store_backend,
                self.config.store_path,
                fsync=self.config.store_fsync,
                telemetry=self.telemetry,
            )
            self.ledger = Ledger(store)
            self.recovery = RecoveryManager(self, self.ledger)
        #: the egress stage every session shares; start() binds it to the
        #: running loop (before that a mark cycles it inline on the calling
        #: thread, and with no connection to write to, frames count as orphans)
        self.egress = EgressPump()
        self.egress.bridge = self.data._write_batch
        self._sessions_gauge = (
            self.telemetry.gateway_sessions_gauge() if self.telemetry is not None else None
        )
        self._deploy_lock = threading.Lock()
        self._stream_ids = itertools.count(1)
        self._started_at: float | None = None

    # -- lifecycle (event-loop thread) --------------------------------------------------

    async def start(self) -> None:
        """Bind both planes on the running loop.

        With a durable ledger, crash recovery runs first, on the loop —
        before either plane listens — so restored sessions exist (and
        their pending retries are re-injected) before any new frame can
        race them, and no cycle runs until it is done.
        """
        loop = asyncio.get_running_loop()
        self.egress.bind(loop)
        self.fault_gate.start(loop)
        if self.recovery is not None:
            self.recovery.recover()
        await self.data.start()
        await self.control.start()
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Close both planes, then every session and its stream.

        A stop is a *clean* exit, not a decommissioning: sessions are
        closed without ``undeployed`` ledger records, so a later restart
        against the same store recovers them.
        """
        await self.control.stop()
        await self.data.stop()
        await self._undeploy_all()
        if self.ledger is not None:
            self.ledger.close()

    async def _undeploy_all(self) -> None:
        """Close every session without an ``undeployed`` record (stop, drain)."""
        for key, session in list(self.sessions.items()):
            await self.owned(partial(self._undeploy, key, False), session)

    async def owned(self, fn, *sessions: GatewaySession, every: bool = False):
        """The owner call awaited on the loop: ``fn()`` once none of ``sessions``
        (with ``every``, of every session) is lent."""
        return await asyncio.wrap_future(self.egress.call(fn, *sessions, every=every))

    async def drain(self) -> dict:
        """Graceful shutdown: quiesce, flush the ledger, then stop.

        Stops intake first (the data plane closes, so nothing new is
        admitted), waits up to ``config.drain_timeout`` for every
        session's pool to empty, mirrors final counters, and closes
        everything — the SIGTERM path for a durable gateway.  Returns
        the per-session residency left when the wait ended (all zero on
        a clean drain).
        """
        await self.data.stop()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while loop.time() < deadline:
            if all(s.resident == 0 for s in self.sessions.values()):
                break
            await asyncio.sleep(0.02)
        leftover = {key: s.resident for key, s in self.sessions.items()}
        await self.control.stop()
        await self._undeploy_all()
        if self.ledger is not None:
            self.ledger.flush()
            self.ledger.close()
        return leftover

    def uptime(self) -> float:
        """Seconds since :meth:`start` bound the planes (0 before that)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- deployment (any thread) --------------------------------------------------------

    def deploy(
        self,
        mcl: str,
        *,
        session_key: str | None = None,
        stream: str | None = None,
        scheduler: str = "threaded",
    ) -> GatewaySession:
        """Compile, verify, deploy, and start one session from MCL source.

        The compiled stream is renamed to a per-deployment unique name, so
        one script can be deployed many times; the returned session's
        ``key`` (``session_key`` or the runtime's generated session id) is
        what clients must carry in ``Content-Session``.

        ``scheduler`` (``"threaded"`` or ``"inline"``) is recorded, not
        obeyed: every session is stepped by the egress pump.  A
        composition that can only ever hold cooperative streamlets (see
        :attr:`~repro.runtime.streamlet.Streamlet.cooperative`) is stepped
        on the event loop; any other on the pump's executor, so a
        streamlet that waits stalls only its own session.  The ledger
        records the requested value, so a recovery redeploy makes the
        same choice.  The stream is built on the calling thread; the
        session joins the pump and the session table on the loop.
        """
        if scheduler not in ("threaded", "inline"):
            raise MobiGateError(f"unknown scheduler {scheduler!r}")
        with self._deploy_lock:
            if session_key is not None and session_key in self.sessions:
                raise MobiGateError(f"session {session_key!r} already deployed")
            compiled = self.mobigate.compile(mcl)
            if stream is not None:
                try:
                    table = compiled.tables[stream]
                except KeyError:
                    raise MobiGateError(f"script defines no stream {stream!r}") from None
            else:
                table = compiled.main_table()
            table = replace(
                table,
                stream_name=f"{table.stream_name}~g{next(self._stream_ids)}",
            )
            runtime_stream = self.mobigate.deploy_table(table, start=True)
            try:
                key = session_key if session_key is not None else runtime_stream.session
                if key is None or key in self.sessions:
                    raise MobiGateError(f"cannot key session as {key!r}")
                off_loop = not _cooperative_only(table, self.mobigate.directory)
                engine = InlineScheduler(runtime_stream)
                supervisor = None
                if self.config.supervise:
                    from repro.faults.supervisor import Supervisor

                    supervisor = Supervisor(
                        runtime_stream,
                        events=self.mobigate.events,
                        telemetry=self.telemetry,
                        ledger=self.ledger,
                        scope=key,
                        dead_letter_capacity=self.config.dead_letter_capacity,
                    )
                    supervisor.attach()
                # last, because nothing below can fail: a session that is
                # never closed would stay attached to the shared pump
                session = GatewaySession(
                    key,
                    runtime_stream,
                    engine,
                    ingress_limit=self.config.session_ingress_limit,
                    off_loop=off_loop,
                    requested=scheduler,
                    telemetry=self.telemetry,
                    ledger=self.ledger,
                    pump=self.egress,
                )
                if supervisor is not None:
                    session.attach_supervisor(supervisor)
            except Exception:
                self.mobigate.undeploy(runtime_stream.name)
                raise
            self.egress.run(partial(self.sessions.__setitem__, key, session))
        if self.ledger is not None:
            self.ledger.deployed(key, mcl=mcl, scheduler=scheduler)
        if self._sessions_gauge is not None:
            self._sessions_gauge.inc()
        return session

    def undeploy(self, key: str, *, record: bool = True) -> bool:
        """Close one session and release its stream; False if unknown.

        ``record=True`` (the operator/default path) writes the ledger's
        ``undeployed`` record, so crash recovery will *not* restore the
        session.  Internal shutdown paths (stop, drain) pass False —
        a stopped session is still recoverable.  An owner call, under the
        deploy lock, so it never falls between a deploy's key check and
        its publication of the session.
        """
        with self._deploy_lock:
            session = self.sessions.get(key)
            return session is not None and self.egress.run(
                partial(self._undeploy, key, record), session
            )

    def _undeploy(self, key: str, record: bool) -> bool:
        session = self.sessions.pop(key, None)
        if session is None:
            return False
        session.close()
        if record and self.ledger is not None:
            self.ledger.undeployed(key)
        try:
            self.mobigate.undeploy(session.stream.name)
        except MobiGateError:  # already released (e.g. double shutdown)
            pass
        if self._sessions_gauge is not None:
            self._sessions_gauge.dec()
        return True

    # -- routing and management ---------------------------------------------------------

    def route(self, key: str | None) -> GatewaySession | None:
        """The session owning ``key``, or None (the data plane's hot path)."""
        return self.sessions.get(key)

    def require(self, key: str) -> GatewaySession:
        """The session keyed ``key``; :class:`MobiGateError` if there is none."""
        session = self.sessions.get(key)
        if session is None:
            raise MobiGateError(f"no session {key!r}")
        return session

    def raise_event(self, name: str, *, session_key: str | None = None) -> int:
        """Raise a context event to one session's stream when keyed, else to every one's.

        Compiled ``when`` handlers run as reconfiguration transactions on
        the receiving stream; returns the number of deliveries.  An owner
        call over the session keyed, or over every session.
        """
        sessions = [] if session_key is None else [self.require(session_key)]
        raise_it = partial(self._raise_event, name, *sessions)
        return self.egress.run(raise_it, *sessions, every=not sessions)

    def _raise_event(self, name: str, session: GatewaySession | None = None) -> int:
        """On the loop: ``name`` to ``session``'s stream, or to every session's.

        An unscoped event reaches the streams of the session table as it
        stands on the loop, not every stream the event manager knows: a
        stream whose deploy has not published its session yet is left alone.
        """
        events = self.mobigate.events
        events.catalog.category_of(name)  # an unknown event fails with no session too
        sessions = list(self.sessions.values()) if session is None else [session]
        return sum(events.raise_event(name, source=s.stream.name) for s in sessions)

    def describe(self, session: GatewaySession) -> dict:
        """One session's full ledger: gateway counters, stream stats, conservation.

        An owner call.
        """
        return self.egress.run(partial(self._describe, session), session)

    def _describe(self, session: GatewaySession) -> dict:
        report = check_conservation(session.stream)
        stats = asdict(session.stream.stats)
        return {
            "ok": True,
            **session.describe(),
            "stream_stats": stats,
            "conservation": {
                "admitted": report.admitted,
                "delivered": report.delivered,
                "absorbed": report.absorbed,
                "dead_letters": report.dead_letters,
                **{kind: stats[kind] for kind in DROP_KINDS},
                "residual": report.residual,
                "missing": report.missing,
                "balanced": report.balanced,
                "ledger": report.describe(),
            },
        }

    def introspect(self) -> dict:
        """The live-state snapshot behind the ``introspect`` control verb.

        Per session: queue depths/watermarks, who runs its share
        (``stepped_by``), the ``pump``'s own figures, the topology snapshot
        version, and the session ledger; plus data-plane connection
        counts and flight-recorder health.  It reads every stream: run it
        as an owner call over every session (:meth:`owned`).
        """
        sessions: dict[str, dict] = {}
        pump_stats = self.egress.stats()
        for key, session in list(self.sessions.items()):
            stream = session.stream
            sessions[key] = {
                **session.describe(),
                "snapshot_version": stream.snapshot_version,
                "queues": stream.queue_introspect(),
                "pump": pump_stats,
            }
        recorder = self.telemetry.recorder if self.telemetry is not None else None
        return {
            "sessions": sessions,
            "open_connections": self.data.open_connections,
            "connections_served": self.data.connections_served,
            "uptime_seconds": self.uptime(),
            "egress_faults": self.egress.faults,
            "recorder": {
                "enabled": False, "recorded": 0, "dropped": 0, "retained": 0, "dumps": {},
            } if recorder is None else {
                "enabled": True,
                "recorded": recorder.recorded,
                "dropped": recorder.dropped,
                "retained": len(recorder),
                "dumps": dict(recorder.dumps),
            },
        }

    # -- synchronous driver -------------------------------------------------------------

    def run_in_thread(self, *, timeout: float = 10.0) -> "GatewayHandle":
        """Start the gateway on a fresh event loop in a daemon thread.

        Blocks until both planes are bound (or raises the boot error), and
        returns a :class:`GatewayHandle` for synchronous callers.  When
        called from the main thread, ``SIGTERM`` is wired to
        :meth:`drain` — a terminated gateway process quiesces and
        flushes its ledger instead of abandoning in-flight state; the
        previous handler is restored by :meth:`GatewayHandle.stop`.
        """
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=serve_forever, args=(loop,), name="gateway-loop", daemon=True
        )
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(self.start(), loop).result(timeout)
        except concurrent.futures.TimeoutError:
            raise MobiGateError("gateway failed to start within the timeout") from None
        except Exception as exc:
            loop.call_soon_threadsafe(loop.stop)
            raise MobiGateError(f"gateway failed to start: {exc}") from exc
        previous_term = None
        if threading.current_thread() is threading.main_thread():

            def _on_term(signum, frame) -> None:
                def _drain_then_stop() -> None:
                    task = loop.create_task(self.drain())
                    task.add_done_callback(lambda _t: loop.stop())

                loop.call_soon_threadsafe(_drain_then_stop)

            try:
                previous_term = signal.signal(signal.SIGTERM, _on_term)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                previous_term = None
        return GatewayHandle(self, loop, thread, previous_term=previous_term)


class GatewayHandle:
    """Synchronous remote control for a gateway running on its own loop thread."""

    def __init__(
        self,
        gateway: GatewayServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        *,
        previous_term=None,
    ):
        self.gateway = gateway
        self._loop = loop
        self._thread = thread
        self._stopped = False
        self._previous_term = previous_term

    @property
    def data_address(self) -> tuple[str, int]:
        return self.gateway.data.address

    @property
    def control_address(self) -> tuple[str, int]:
        return self.gateway.control.address

    def control(self, request: dict, *, timeout: float = 10.0) -> dict:
        """One request against the control API, over a real socket."""
        return control_request(self.control_address, request, timeout=timeout)

    def stop(self, *, timeout: float = 10.0) -> None:
        """Stop the gateway, then the loop and its thread (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        if (
            self._previous_term is not None
            and threading.current_thread() is threading.main_thread()
        ):
            try:
                signal.signal(signal.SIGTERM, self._previous_term)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
            self._previous_term = None
        future = asyncio.run_coroutine_threadsafe(self.gateway.stop(), self._loop)
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
