"""The MobiGATE server facade (Figure 3-2, all components assembled).

``MobiGateServer`` wires the whole server side together: the Streamlet
Directory, the Streamlet Manager (with pooling), the Event Manager, the
MCL compiler (fed with the directory's definitions), the chapter-5
semantic verifier, and the Coordination Manager.  A typical session::

    server = MobiGateServer()
    register_builtin_streamlets(server.directory)   # repro.streamlets
    stream = server.deploy_script(MCL_SOURCE)
    scheduler = InlineScheduler(stream)
    stream.post(message)
    scheduler.pump()
    delivered = stream.collect()
    server.events.raise_event("LOW_BANDWIDTH")      # triggers when-blocks
"""

from __future__ import annotations

from repro.errors import MobiGateError
from repro.events import DEFAULT_CATALOG, EventCatalog
from repro.mcl.compiler import MclCompiler
from repro.mcl.config import CompiledScript, ConfigurationTable
from repro.mime.registry import TypeRegistry, default_registry
from repro.runtime.coordination import CoordinationManager
from repro.runtime.directory import StreamletDirectory
from repro.runtime.events import EventManager
from repro.runtime.message_pool import PassMode
from repro.runtime.stream import RuntimeStream
from repro.runtime.streamlet_manager import StreamletManager
from repro.semantics import verify
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.clock import Clock, WallClock


class MobiGateServer:
    """Everything in Figure 3-2, behind one object.

    Telemetry is **default-on**: unless a facade is passed, a fresh
    :class:`~repro.telemetry.Telemetry` (backed by the process-wide metric
    registry) observes every stream the server deploys.  Pass
    ``telemetry=NULL_TELEMETRY`` to run unobserved (the benchmark
    baseline): :attr:`telemetry` is then ``None``, and so is every
    component's observer below it.
    """

    def __init__(
        self,
        *,
        registry: TypeRegistry | None = None,
        catalog: EventCatalog | None = None,
        clock: Clock | None = None,
        pooling: bool = True,
        pass_mode: PassMode = PassMode.REFERENCE,
        verify_semantics: bool = True,
        terminal_definitions: frozenset[str] | set[str] = frozenset(),
        telemetry: Telemetry | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.catalog = catalog if catalog is not None else DEFAULT_CATALOG
        self.clock = clock if clock is not None else WallClock()
        if telemetry is None:
            telemetry = Telemetry()
        self.telemetry: Telemetry | None = None if telemetry is NULL_TELEMETRY else telemetry
        self.directory = StreamletDirectory()
        self.manager = StreamletManager(
            self.directory, pooling=pooling, telemetry=self.telemetry
        )
        self.events = EventManager(self.catalog)
        self.coordination = CoordinationManager(
            self.manager,
            self.events,
            registry=self.registry,
            clock=self.clock,
            pass_mode=pass_mode,
            telemetry=self.telemetry,
        )
        self._verify = verify_semantics
        self._terminals = frozenset(terminal_definitions)

    # -- compilation ---------------------------------------------------------------

    def compile(self, source: str) -> CompiledScript:
        """Compile MCL against the directory's advertised definitions."""
        compiler = MclCompiler(
            registry=self.registry,
            catalog=self.catalog,
            extra_streamlets=self.directory.definitions(),
        )
        return compiler.compile(source)

    # -- deployment -----------------------------------------------------------------

    def deploy_table(self, table: ConfigurationTable, *, start: bool = True) -> RuntimeStream:
        """Verify (chapter 5) and deploy one configuration table."""
        if self._verify:
            verify(table, terminal_definitions=self._terminals | self._default_terminals())
        return self.coordination.deploy(table, start=start)

    def deploy_script(self, source: str, *, stream: str | None = None, start: bool = True) -> RuntimeStream:
        """Compile, verify, and deploy one stream from MCL source.

        ``stream`` selects a stream by name; default is the script's main
        stream.
        """
        compiled = self.compile(source)
        if stream is not None:
            try:
                table = compiled.tables[stream]
            except KeyError:
                raise MobiGateError(f"script defines no stream {stream!r}") from None
        else:
            table = compiled.main_table()
        return self.deploy_table(table, start=start)

    def undeploy(self, name: str) -> None:
        """End a deployed stream and release its subscriptions."""
        self.coordination.undeploy(name)

    def _default_terminals(self) -> frozenset[str]:
        """Definitions flagged terminal by their interface: no output ports."""
        return frozenset(
            name
            for name, definition in self.directory.definitions().items()
            if not definition.outputs()
        )
