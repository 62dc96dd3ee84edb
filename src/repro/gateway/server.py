"""The gateway proper: both planes, the session table, and the runtime bridge.

:class:`GatewayServer` is the deployable artifact of :mod:`repro.gateway`.
It owns one :class:`~repro.runtime.server.MobiGateServer` (the streamlet
runtime), an asyncio **data plane** clients stream MIME frames to, and a
loopback **control plane** management tools speak JSON to.  Frames are
routed by their ``Content-Session`` header to :class:`GatewaySession`
objects, each wrapping one deployed stream plus its scheduler.

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

Deployment is thread-safe and callable from any thread (the control
plane invokes it from an executor): compiled stream names are made unique
per deployment so the same MCL script can back many concurrent sessions.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import threading
from dataclasses import fields, replace
from typing import TYPE_CHECKING

from repro.apps import build_server
from repro.errors import MobiGateError
from repro.faults.invariant import check_conservation
from repro.gateway.config import GatewayConfig
from repro.gateway.control_plane import ControlPlane, control_request
from repro.gateway.data_plane import DataPlane
from repro.gateway.faults import LinkOutageGate
from repro.gateway.session import EgressPump, GatewaySession
from repro.mcl import astnodes as ast
from repro.runtime.scheduler import InlineScheduler, ThreadedScheduler
from repro.runtime.server import MobiGateServer
from repro.store.base import open_store
from repro.store.ledger import NULL_LEDGER, Ledger
from repro.store.recovery import RecoveryManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.telemetry import Telemetry


def _cooperative_only(table, directory) -> bool:
    """Whether ``table`` can only ever instantiate cooperative streamlets.

    Looks at every definition the composition starts with and every one
    a ``when`` handler may ``new`` later, so the answer holds across
    reconfigurations.  A factory that is not a class declaring
    ``cooperative`` (a closure, say) counts as one that may block.
    """
    definitions = list(table.instances.values()) + [
        table.streamlet_defs[action.definition]  # the compiler checked it exists
        for actions in table.handlers.values()
        for action in actions
        if isinstance(action, ast.NewInstances) and action.kind == "streamlet"
    ]
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
        if server is not None:
            self.mobigate = server
        elif telemetry is not None:
            self.mobigate = build_server(telemetry=telemetry)
        else:
            self.mobigate = build_server()
        self.telemetry = self.mobigate.telemetry
        #: ``Content-Session`` key -> session (read by the data plane per frame)
        self.sessions: dict[str, GatewaySession] = {}
        self.data = DataPlane(self, self.config)
        self.control = ControlPlane(self, self.config)
        self.fault_gate = LinkOutageGate(fault_plan, telemetry=self.telemetry)
        #: durable state plane (NULL_LEDGER when config names no backend)
        if self.config.store_backend is not None:
            store = open_store(
                self.config.store_backend,
                self.config.store_path,
                fsync=self.config.store_fsync,
                telemetry=self.telemetry,
            )
            self.ledger = Ledger(store)
        else:
            self.ledger = NULL_LEDGER
        self.recovery = RecoveryManager(self, self.ledger)
        #: the egress stage every session shares; its thread lives from the
        #: first deploy to the last undeploy, so stop()/drain() — which
        #: undeploy everything before closing the ledger — also end it
        self.egress = EgressPump(wake_timeout=self.config.egress_wake_timeout)
        self._sessions_gauge = (
            self.telemetry.gateway_sessions_gauge() if self.telemetry.enabled else None
        )
        self._deploy_lock = threading.Lock()
        self._stream_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started_at: float | None = None

    # -- lifecycle (event-loop thread) --------------------------------------------------

    async def start(self) -> None:
        """Bind both planes on the running loop.

        With a durable ledger, crash recovery runs first — before the
        data plane listens — so restored sessions exist (and their
        pending retries are re-injected) before any new frame can race
        them.  Recovery takes the deploy lock and joins threads, so it
        runs in the executor.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        # until here frames had nowhere to go (sessions deployed before
        # start() count them as orphans)
        self.egress.bridge = self.data.egress_bridge(loop)
        self.fault_gate.start(loop)
        if self.ledger.enabled:
            await loop.run_in_executor(None, self.recovery.recover)
        await self.data.start()
        await self.control.start()
        self._started_at = loop.time()

    async def stop(self) -> None:
        """Close both planes, then every session and its stream.

        A stop is a *clean* exit, not a decommissioning: sessions are
        closed without ``undeployed`` ledger records, so a later restart
        against the same store recovers them.
        """
        await self.control.stop()
        await self.data.stop()
        for key in list(self.sessions):
            self.undeploy(key, record=False)
        self.ledger.close()

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
        for key in list(self.sessions):
            self.undeploy(key, record=False)
        self.ledger.flush()
        self.ledger.close()
        return leftover

    def uptime(self) -> float:
        """Seconds since :meth:`start` bound the planes (0 before that)."""
        if self._loop is None or self._started_at is None:
            return 0.0
        return max(0.0, self._loop.time() - self._started_at)

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

        ``scheduler="threaded"`` asks for the thread-per-streamlet engine,
        and gets it wherever a streamlet may need a thread of its own.  A
        composition that can only ever hold cooperative streamlets (see
        :attr:`~repro.runtime.streamlet.Streamlet.cooperative`) is stepped
        by the egress pump instead, exactly as ``"inline"`` sessions are,
        and starts no ``streamlet-*`` thread.  The ledger records the
        requested value, so a recovery redeploy makes the same choice.
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
                pumped = scheduler == "inline" or (
                    scheduler == "threaded"
                    and _cooperative_only(table, self.mobigate.directory)
                )
                if pumped:
                    engine = InlineScheduler(runtime_stream)
                else:
                    engine = ThreadedScheduler(runtime_stream)
                    engine.start()
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
                    inline=pumped,
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
            self.sessions[key] = session
        if self.ledger.enabled:
            self.ledger.deployed(key, mcl=mcl, scheduler=scheduler)
        if self._sessions_gauge is not None:
            self._sessions_gauge.inc()
        return session

    def undeploy(self, key: str, *, record: bool = True) -> bool:
        """Close one session and release its stream; False if unknown.

        ``record=True`` (the operator/default path) writes the ledger's
        ``undeployed`` record, so crash recovery will *not* restore the
        session.  Internal shutdown paths (stop, drain) pass False —
        a stopped session is still recoverable.
        """
        with self._deploy_lock:
            session = self.sessions.pop(key, None)
        if session is None:
            return False
        session.close()
        if record and self.ledger.enabled:
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
        if key is None:
            return None
        return self.sessions.get(key)

    def raise_event(self, name: str, *, session_key: str | None = None) -> int:
        """Raise a context event, scoped to one session's stream when keyed.

        Compiled ``when`` handlers run as reconfiguration transactions on
        the receiving stream; returns the number of deliveries.
        """
        if session_key is None:
            delivered = self.mobigate.events.raise_event(name)
            affected = list(self.sessions.values())
        else:
            session = self.route(session_key)
            if session is None:
                raise MobiGateError(f"no session {session_key!r}")
            delivered = self.mobigate.events.raise_event(
                name, source=session.stream.name
            )
            affected = [session]
        # a committed handler may have added instances; threaded sessions
        # need workers spawned for them or their traffic stalls
        for touched in affected:
            ensure = getattr(touched.scheduler, "ensure_workers", None)
            if ensure is not None:
                ensure()
        return delivered

    def describe(self, session: GatewaySession) -> dict:
        """One session's full ledger: gateway counters, stream stats, conservation."""
        report = check_conservation(session.stream)
        stream_stats = session.stream.stats
        return {
            "ok": True,
            **session.describe(),
            "stream_stats": {
                f.name: getattr(stream_stats, f.name) for f in fields(stream_stats)
            },
            "conservation": {
                "admitted": report.admitted,
                "delivered": report.delivered,
                "absorbed": report.absorbed,
                "dead_letters": report.dead_letters,
                "queue_drops": report.queue_drops,
                "open_circuit_drops": report.open_circuit_drops,
                "failure_drops": report.failure_drops,
                "end_drops": report.end_drops,
                "residual": report.residual,
                "missing": report.missing,
                "balanced": report.balanced,
                "ledger": report.describe(),
            },
        }

    def introspect(self) -> dict:
        """The live-state snapshot behind the ``introspect`` control verb.

        Per session: queue depths/watermarks, who steps it — ``workers``
        with their states, or the ``pump``'s own figures for a
        pump-stepped session — the RCU snapshot version, and the
        session ledger; plus data-plane connection counts and
        flight-recorder health.
        """
        sessions: dict[str, dict] = {}
        pump_stats = self.egress.stats()
        for key, session in list(self.sessions.items()):
            stream = session.stream
            entry = {
                **session.describe(),
                "snapshot_version": stream.snapshot_version,
                "queues": stream.queue_introspect(),
            }
            if session.stepped_by == "pump":
                entry["pump"] = pump_stats
            else:
                entry["workers"] = session.scheduler.worker_states()
            sessions[key] = entry
        recorder = self.telemetry.recorder
        return {
            "sessions": sessions,
            "open_connections": self.data.open_connections,
            "connections_served": self.data.connections_served,
            "uptime_seconds": self.uptime(),
            "egress_faults": self.egress.faults,
            "recorder": {
                "enabled": recorder.enabled,
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
        started = threading.Event()
        boot_error: list[BaseException] = []

        def _run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surfaced to the caller below
                boot_error.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        thread = threading.Thread(target=_run, name="gateway-loop", daemon=True)
        thread.start()
        if not started.wait(timeout):
            raise MobiGateError("gateway failed to start within the timeout")
        if boot_error:
            raise MobiGateError(f"gateway failed to start: {boot_error[0]}")
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
