"""The Coordination Manager (section 3.3.1).

Deploys compiled configuration tables as live streams, holds the table per
running stream ("the configuration table acts as the routing table"), and
bridges the Event Manager to the streams: it subscribes each stream to the
categories of the events its handlers mention, so superfluous events never
reach it (section 6.4).
"""

from __future__ import annotations

from repro.errors import CompositionError
from repro.events import ContextEvent, EventCategory
from repro.mcl.config import ConfigurationTable
from repro.mime.registry import TypeRegistry, default_registry
from repro.runtime.events import EventManager
from repro.runtime.message_pool import MessagePool, PassMode
from repro.runtime.stream import RuntimeStream
from repro.runtime.streamlet_manager import StreamletManager
from repro.telemetry import Telemetry
from repro.util.clock import Clock, WallClock
from repro.util.ids import IdGenerator


class _StreamSubscriber:
    """Adapter presenting a RuntimeStream to the Event Manager."""

    def __init__(self, stream: RuntimeStream, counter=None):
        self.stream = stream
        self._counter = counter

    @property
    def name(self) -> str:
        return self.stream.name

    def on_event(self, event: ContextEvent) -> None:
        if self._counter is not None:
            self._counter.inc()
        self.stream.on_event(event)


class CoordinationManager:
    """Stream deployment and event routing."""

    def __init__(
        self,
        manager: StreamletManager,
        events: EventManager,
        *,
        registry: TypeRegistry | None = None,
        clock: Clock | None = None,
        pass_mode: PassMode = PassMode.REFERENCE,
        telemetry: Telemetry | None = None,
    ):
        self._manager = manager
        self._events = events
        self._registry = registry if registry is not None else default_registry()
        self._clock = clock if clock is not None else WallClock()
        self._pass_mode = pass_mode
        self._telemetry = telemetry
        self._streams: dict[str, RuntimeStream] = {}
        self._subscriptions: dict[str, list[tuple[EventCategory, _StreamSubscriber]]] = {}
        self._sessions = IdGenerator("sess")

    # -- deployment -----------------------------------------------------------------

    def deploy(self, table: ConfigurationTable, *, start: bool = True) -> RuntimeStream:
        """Instantiate a stream from its configuration table.

        A unique session id is generated per deployment (section 4.4.3) so
        messages from different streams stay distinguishable even through
        shared streamlet instances.
        """
        if table.stream_name in self._streams:
            raise CompositionError(f"stream {table.stream_name!r} already deployed")
        pool_gauge = (
            self._telemetry.pool_gauge(table.stream_name)
            if self._telemetry is not None
            else None
        )
        stream = RuntimeStream(
            table,
            self._manager,
            pool=MessagePool(self._pass_mode, gauge=pool_gauge),
            registry=self._registry,
            clock=self._clock,
            session=self._sessions.next(),
            telemetry=self._telemetry,
        )
        self._streams[stream.name] = stream
        self._subscribe_stream(stream)

        def report_fault(instance_id: str, exc: Exception, _name=stream.name) -> None:
            # scoped to the faulting stream so other streams are undisturbed
            self._events.raise_event("STREAMLET_FAULT", source=_name)

        stream.failure_hook = report_fault

        def escalate(kind: str, exc: Exception, _name=stream.name) -> None:
            # a rejected or rolled-back reconfiguration transaction becomes
            # a scoped context event (RECONFIG_REJECTED / RECONFIG_ROLLED_BACK)
            # instead of unwinding the monitor/event thread
            self._events.raise_event(kind, source=_name)

        stream.escalation_hook = escalate
        if start:
            stream.start()
        return stream

    def _subscribe_stream(self, stream: RuntimeStream) -> None:
        """Subscribe to the categories the handlers mention.

        Every stream additionally receives System Commands: PAUSE / RESUME
        / END have built-in runtime behaviour (section 6.4) regardless of
        what the script declares.
        """
        counter = (
            self._telemetry.event_counter(stream.name)
            if self._telemetry is not None
            else None
        )
        subscriber = _StreamSubscriber(stream, counter)
        categories: set[EventCategory] = {EventCategory.SYSTEM_COMMAND}
        for event_name in stream.table.handlers:
            categories.add(self._events.catalog.category_of(event_name))
        subs: list[tuple[EventCategory, _StreamSubscriber]] = []
        for category in sorted(categories):
            self._events.subscribe(category, subscriber)
            subs.append((category, subscriber))
        self._subscriptions[stream.name] = subs

    def undeploy(self, name: str) -> None:
        """End a stream and release its event subscriptions."""
        stream = self._streams.pop(name, None)
        if stream is None:
            raise CompositionError(f"stream {name!r} is not deployed")
        for category, subscriber in self._subscriptions.pop(name, []):
            self._events.unsubscribe(category, subscriber)
        stream.end()

    # -- queries -----------------------------------------------------------------------

    def stream(self, name: str) -> RuntimeStream:
        """The deployed stream named ``name``; CompositionError if absent."""
        try:
            return self._streams[name]
        except KeyError:
            raise CompositionError(f"stream {name!r} is not deployed") from None

    def deployed(self) -> list[str]:
        """Names of the currently deployed streams."""
        return list(self._streams)

    def __len__(self) -> int:
        return len(self._streams)
