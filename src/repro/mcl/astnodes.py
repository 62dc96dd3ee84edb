"""MCL abstract syntax (Figures 4-3, 4-4, 4-5).

Nodes are frozen dataclasses so parsed scripts hash/compare naturally —
the pretty-printer round-trip property (`parse(format(ast)) == ast`) relies
on structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from repro.mime.mediatype import MediaType


class PortDirection(Enum):
    """Whether a port consumes (IN) or produces (OUT) messages."""
    IN = "in"
    OUT = "out"


class StreamletKind(Enum):
    """STATELESS instances are poolable; STATEFUL ones are per-stream."""
    STATELESS = "STATELESS"
    STATEFUL = "STATEFUL"


class ChannelSync(Enum):
    """Channel timing discipline: SYNC (rendezvous) or ASYNC (buffered)."""
    SYNC = "SYNC"
    ASYNC = "ASYNC"


class ChannelCategory(Enum):
    """Disconnection semantics (section 4.2.2)."""

    S = "S"    # never holds pending units
    BB = "BB"  # break one end -> break both
    BK = "BK"  # keep target side on source disconnect (the default)
    KB = "KB"  # keep source side on target disconnect
    KK = "KK"  # cannot be disconnected at either side


@dataclass(frozen=True)
class PortDecl:
    direction: PortDirection
    name: str
    mediatype: MediaType


@dataclass(frozen=True)
class StreamletDef:
    """``streamlet name { port{...} attribute{...} }`` (Figure 4-3)."""

    name: str
    ports: tuple[PortDecl, ...]
    kind: StreamletKind = StreamletKind.STATELESS
    library: str = ""
    description: str = ""
    #: extension attributes feeding the chapter-5 analyses
    excludes: tuple[str, ...] = ()   # mutual exclusion partners (5.2.3)
    requires: tuple[str, ...] = ()   # mutual dependency partners (5.2.4)
    after: tuple[str, ...] = ()      # preorder: must come after these (5.2.5)

    @cached_property
    def _in_out(self) -> tuple[tuple[PortDecl, ...], tuple[PortDecl, ...]]:
        # computed once per definition: a definition is frozen, and
        # cached_property stores beside the fields without going through
        # the frozen __setattr__ (eq/hash/repr see the fields only)
        return (
            tuple(p for p in self.ports if p.direction is PortDirection.IN),
            tuple(p for p in self.ports if p.direction is PortDirection.OUT),
        )

    def inputs(self) -> tuple[PortDecl, ...]:
        """The declared input ports, in declaration order."""
        return self._in_out[0]

    def outputs(self) -> tuple[PortDecl, ...]:
        """The declared output ports, in declaration order."""
        return self._in_out[1]

    def port(self, name: str) -> PortDecl | None:
        """The port declaration named ``name``, or None."""
        for p in self.ports:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class ChannelDef:
    """``channel name { port{...} attribute{...} }`` (Figure 4-4)."""

    name: str
    in_port: PortDecl
    out_port: PortDecl
    sync: ChannelSync = ChannelSync.ASYNC
    category: ChannelCategory = ChannelCategory.BK
    buffer_kb: int = 100
    description: str = ""


# -- stream statements -----------------------------------------------------------


@dataclass(frozen=True)
class PortRef:
    """``instance.port``"""

    instance: str
    port: str

    def __str__(self) -> str:
        return f"{self.instance}.{self.port}"


@dataclass(frozen=True)
class NewInstances:
    """``streamlet a, b = new-streamlet (defname);`` (also channels)."""

    kind: str                 # "streamlet" | "channel"
    names: tuple[str, ...]
    definition: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RemoveInstance:
    kind: str                 # "streamlet" | "channel" | "extract"
    name: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Connect:
    """``connect (p.o, q.i [, chan]);`` — omitted chan = default channel."""

    source: PortRef
    sink: PortRef
    channel: str | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Disconnect:
    source: PortRef
    sink: PortRef
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DisconnectAll:
    instance: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Insert:
    """``insert (p.o, q.i, inst);`` — splice ``inst`` into an existing link."""

    source: PortRef
    sink: PortRef
    instance: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Replace:
    """``replace (old, new);`` — swap an instance, inheriting connections."""

    old: str
    new: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class When:
    """``when (EVENT) { actions }`` (section 4.2.3)."""

    event: str
    actions: tuple["Statement", ...]
    line: int = field(default=0, compare=False)


Statement = NewInstances | RemoveInstance | Connect | Disconnect | DisconnectAll | Insert | Replace | When


@dataclass(frozen=True)
class StreamDef:
    """``[main] stream name { statements }`` (Figure 4-5)."""

    name: str
    body: tuple[Statement, ...]
    is_main: bool = False


@dataclass(frozen=True)
class Script:
    """A whole MCL source unit."""

    streamlets: tuple[StreamletDef, ...] = ()
    channels: tuple[ChannelDef, ...] = ()
    streams: tuple[StreamDef, ...] = ()

    def streamlet(self, name: str) -> StreamletDef | None:
        """The streamlet definition named ``name``, or None."""
        for d in self.streamlets:
            if d.name == name:
                return d
        return None

    def channel(self, name: str) -> ChannelDef | None:
        """The channel definition named ``name``, or None."""
        for d in self.channels:
            if d.name == name:
                return d
        return None

    def stream(self, name: str) -> StreamDef | None:
        """The stream definition named ``name``, or None."""
        for d in self.streams:
            if d.name == name:
                return d
        return None

    def main_stream(self) -> StreamDef | None:
        """The ``main`` stream, or the only stream, or None."""
        for d in self.streams:
            if d.is_main:
                return d
        return self.streams[0] if len(self.streams) == 1 else None
