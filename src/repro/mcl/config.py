"""Configuration tables — the compiler's output, the coordinator's input.

The Coordination Manager "maintains a configuration table for each instance
of streamlet composition ... derived from the compilation of the MCL
script" (section 3.3).  A :class:`ConfigurationTable` records:

* which streamlet/channel instances exist and from which definitions,
* the initial link topology (who feeds whom through which channel),
* validated event handlers (the ``when`` blocks, kept as AST statements and
  replayed by the reconfiguration engine),
* the stream's *exposed* ports — unbound ports of connected instances,
  which become the composite streamlet interface under recursive
  composition (section 5.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mcl import astnodes as ast
from repro.mime.mediatype import MediaType


@dataclass(frozen=True)
class ChannelEntry:
    """A channel instance in a stream."""

    name: str
    definition: ast.ChannelDef
    auto: bool = False  # True for compiler-created default channels


@dataclass(frozen=True)
class Link:
    """One routed connection: source out-port → channel → sink in-port."""

    source: ast.PortRef
    sink: ast.PortRef
    channel: str
    mediatype: MediaType  # the type actually carried (the source port type)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.source} --[{self.channel}]--> {self.sink}"


@dataclass
class ConfigurationTable:
    """Everything the runtime needs to deploy and adapt one stream."""

    stream_name: str
    instances: dict[str, ast.StreamletDef] = field(default_factory=dict)
    channels: dict[str, ChannelEntry] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    handlers: dict[str, tuple[ast.Statement, ...]] = field(default_factory=dict)
    exposed_in: tuple[ast.PortRef, ...] = ()
    exposed_out: tuple[ast.PortRef, ...] = ()
    #: definitions visible to event-time instantiation (``new-streamlet``
    #: inside a ``when`` block), keyed by definition name
    streamlet_defs: dict[str, ast.StreamletDef] = field(default_factory=dict)
    channel_defs: dict[str, ast.ChannelDef] = field(default_factory=dict)

    # -- queries used by the analyses and the runtime -------------------------------

    def connected_instances(self) -> set[str]:
        """Instances that participate in at least one link."""
        names: set[str] = set()
        for link in self.links:
            names.add(link.source.instance)
            names.add(link.sink.instance)
        return names

    def dormant_instances(self) -> set[str]:
        """Declared but fully unconnected (optional/dashed entities)."""
        return set(self.instances) - self.connected_instances()

    def subscribed_events(self) -> frozenset[str]:
        """The canonical event names this stream handles."""
        return frozenset(self.handlers)

    def handler_streamlet_defs(self) -> list[ast.StreamletDef]:
        """Every streamlet definition a ``when`` handler may ``new`` later."""
        return [
            self.streamlet_defs[action.definition]  # the compiler checked it exists
            for actions in self.handlers.values()
            for action in actions
            if isinstance(action, ast.NewInstances) and action.kind == "streamlet"
        ]


@dataclass
class CompiledScript:
    """All stream tables from one source unit, plus the entry point."""

    tables: dict[str, ConfigurationTable]
    main: str | None

    def main_table(self) -> ConfigurationTable:
        """The configuration table of the main stream (KeyError if none)."""
        if self.main is None:
            raise KeyError("script has no main stream")
        return self.tables[self.main]
