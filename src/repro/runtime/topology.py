"""The wiring of a stream as a value, and each MCL action as a step on it.

The thesis formalises a composition as a Z *Stream* state and every
reconfiguration as a schema operation on it — state in, state out
(§5.1, :mod:`repro.semantics.zmodel`).  This module is that state and
those operations for the runtime:

* :class:`Topology` — which instances exist (name → definition), which
  channels exist (declared, auto-created, and the ``__inN``/``__outN``
  edge carriers: definition, source, sink, ``closed``, contents) and the
  auto-channel counter.  It references no live ``Streamlet``,
  ``Channel`` or queue.
* :func:`apply` — the Figure 6-4 primitives, once: one dispatch over the
  handler actions, one category rule for detaching
  (:func:`repro.runtime.channel.detach_breaks`), one 4.4.1 type check
  per new link, raising what a refused primitive has always raised.

What a channel holds is tracked *symbolically*: ``contents`` is the
ordered list of original channels whose queued ids it now holds
(initially itself), and ``counts`` says how many ids each original held
when the value was captured.  A BB/KB detach is ``contents = []``, a
heal is ``downstream.contents += upstream.contents``, and ``pending`` is
a sum of captured counts — so moving messages is part of the value, not
a side effect, and a batch can be decided before anything live is
touched.  :meth:`repro.runtime.stream.RuntimeStream._realise` is the
only code that turns a value into live objects.

A transaction copies the value once and steps its private copy in
place, so a batch of *n* actions costs O(size + n), not O(size · n).
"""

from __future__ import annotations

from repro.errors import CompositionError, QueueClosedError, ReconfigurationError
from repro.mcl import astnodes as ast
from repro.mcl.compiler import DEFAULT_CHANNEL_DEF
from repro.mcl.config import ChannelEntry, ConfigurationTable, Link
from repro.mcl.typecheck import check_connection
from repro.mime.registry import TypeRegistry
from repro.runtime.channel import detach_breaks

#: pseudo-instances naming the far end of an edge carrier
INGRESS = "__ingress__"
EGRESS = "__egress__"

#: ingress/egress carriers: effectively unbounded so the harness never drops
EDGE_CHANNEL_DEF = ast.ChannelDef(
    name="__edge",
    in_port=ast.PortDecl(ast.PortDirection.IN, "cin", DEFAULT_CHANNEL_DEF.in_port.mediatype),
    out_port=ast.PortDecl(ast.PortDirection.OUT, "cout", DEFAULT_CHANNEL_DEF.out_port.mediatype),
    sync=ast.ChannelSync.ASYNC,
    category=ast.ChannelCategory.BK,
    buffer_kb=1 << 20,
    description="runtime edge channel",
)


class ChannelState:
    """One channel of a :class:`Topology`: definition, ends, and what it holds."""

    __slots__ = ("definition", "source", "sink", "closed", "contents")

    def __init__(self, definition: ast.ChannelDef, source=None, sink=None,
                 closed: bool = False, contents: list[str] | None = None):
        self.definition = definition
        self.source: ast.PortRef | None = source
        self.sink: ast.PortRef | None = sink
        #: the live queue was closed when the value was captured
        self.closed = closed
        #: original channels whose queued ids this one holds, oldest first
        self.contents: list[str] = contents if contents is not None else []


class Topology:
    """A stream's wiring as a value (see the module docstring).

    ``inputs``/``outputs`` index the channel table by port (instance →
    port → channel name, in attachment order) so a step finds the channel
    on a port without scanning; :meth:`wire` keeps them in step with the
    channels' ``source``/``sink``.  ``fresh`` names what this value
    introduced since it was captured: a name that is both live and fresh
    was removed and created again, and gets a new object.
    """

    def __init__(self, base: ConfigurationTable, registry: TypeRegistry):
        #: the compiled table: stream name, handlers, known definitions
        self.base = base
        self.registry = registry
        self.instances: dict[str, ast.StreamletDef] = {}
        self.channels: dict[str, ChannelState] = {}
        self.inputs: dict[str, dict[str, str]] = {}
        self.outputs: dict[str, dict[str, str]] = {}
        self.auto_counter = 0
        self.counts: dict[str, int] = {}
        self.fresh: set[str] = set()

    @classmethod
    def from_table(cls, table: ConfigurationTable, registry: TypeRegistry) -> "Topology":
        """The value a compiled table deploys as (the compiler checked its types)."""
        topology = cls(table, registry)
        for name, definition in table.instances.items():
            topology.add_instance(name, definition)
        for name, entry in table.channels.items():
            topology.add_channel(name, entry.definition)
        for link in table.links:
            topology.wire(link.channel, link.source, link.sink)
        for index, ref in enumerate(table.exposed_in):
            topology.add_channel(f"__in{index}", EDGE_CHANNEL_DEF)
            topology.wire(f"__in{index}", ast.PortRef(INGRESS, f"i{index}"), ref)
        for index, ref in enumerate(table.exposed_out):
            topology.add_channel(f"__out{index}", EDGE_CHANNEL_DEF)
            topology.wire(f"__out{index}", ref, ast.PortRef(EGRESS, f"o{index}"))
        return topology

    def copy(self) -> "Topology":
        """A private twin to step: the one copy a transaction makes."""
        twin = Topology(self.base, self.registry)
        twin.instances = dict(self.instances)
        twin.channels = {
            name: ChannelState(c.definition, c.source, c.sink, c.closed, list(c.contents))
            for name, c in self.channels.items()
        }
        twin.inputs = {name: dict(ports) for name, ports in self.inputs.items()}
        twin.outputs = {name: dict(ports) for name, ports in self.outputs.items()}
        twin.auto_counter = self.auto_counter
        return twin

    def settle(self) -> None:
        """Forget the capture: every channel holds exactly its own ids again."""
        self.counts = {}
        self.fresh = set()
        for name, channel in self.channels.items():
            channel.contents = [name]

    # -- building blocks of a step -------------------------------------------------

    def add_instance(self, name: str, definition: ast.StreamletDef) -> None:
        """Introduce an unwired instance."""
        self.instances[name] = definition
        self.inputs[name] = {}
        self.outputs[name] = {}
        self.fresh.add(name)

    def add_channel(self, name: str, definition: ast.ChannelDef) -> None:
        """Introduce an unattached, empty channel."""
        self.channels[name] = ChannelState(definition, contents=[name])
        self.fresh.add(name)

    def wire(self, name: str, source: ast.PortRef | None, sink: ast.PortRef | None) -> None:
        """Point channel ``name``'s ends (``None`` = unattached), index in step."""
        channel = self.channels[name]
        for index, old, new in (
            (self.outputs, channel.source, source), (self.inputs, channel.sink, sink)
        ):
            if old is new or old == new:
                continue  # an end that stays keeps its place in the port order
            ports = index.get(old.instance) if old is not None else None
            if ports is not None and ports.get(old.port) == name:
                del ports[old.port]
            ports = index.get(new.instance) if new is not None else None
            if ports is not None:
                ports[new.port] = name
        channel.source = source
        channel.sink = sink

    def pending(self, name: str) -> int:
        """Ids channel ``name`` holds, by the counts captured from the live queues."""
        counts = self.counts
        return sum(counts.get(origin, 0) for origin in self.channels[name].contents)

    def wired(self, instance: str) -> bool:
        """Whether any port of ``instance`` (edge carriers included) is attached."""
        return bool(self.inputs[instance] or self.outputs[instance])

    # -- the one renderer ------------------------------------------------------------

    def to_table(self) -> ConfigurationTable:
        """This wiring as a configuration table, for the chapter-5 analyses.

        Unattached channels carry no link and are left out; an edge
        carrier becomes an exposed port.
        """
        channels: dict[str, ChannelEntry] = {}
        links: list[Link] = []
        exposed_in: list[ast.PortRef] = []
        exposed_out: list[ast.PortRef] = []
        for name, definition in self.instances.items():
            for port, channel_name in self.outputs[name].items():
                channel = self.channels[channel_name]
                if channel.sink.instance == EGRESS:
                    exposed_out.append(channel.source)
                    continue
                channels[channel_name] = ChannelEntry(
                    name=channel_name, definition=channel.definition,
                    auto=channel_name.startswith("__"),
                )
                decl = definition.port(port)
                links.append(Link(
                    source=channel.source,
                    sink=channel.sink,
                    channel=channel_name,
                    mediatype=decl.mediatype if decl else None,  # type: ignore[arg-type]
                ))
            for channel_name in self.inputs[name].values():
                channel = self.channels[channel_name]
                if channel.source.instance == INGRESS:
                    exposed_in.append(channel.sink)
        base = self.base
        return ConfigurationTable(
            stream_name=base.stream_name,
            instances=dict(self.instances),
            channels=channels,
            links=links,
            handlers=dict(base.handlers),
            exposed_in=tuple(exposed_in),
            exposed_out=tuple(exposed_out),
            streamlet_defs=dict(base.streamlet_defs),
            channel_defs=dict(base.channel_defs),
        )


# ---------------------------------------------------------------------------
# The step function (Figure 6-4)
# ---------------------------------------------------------------------------


def apply(topology: Topology, action, *, force: bool = False, heal: bool = True) -> None:
    """Step ``topology`` in place by one MCL action.

    Raises exactly where, and what, the composition primitives always
    have; a raise leaves the value half-stepped, which is why a caller
    steps a private :meth:`Topology.copy` and throws it away on failure.
    ``force``/``heal`` are the ``remove_streamlet``/``extract_streamlet``
    arguments: skip the §6.6 pending-input refusal, and whether a
    single-in/single-out instance's neighbours are joined around it.
    """
    if isinstance(action, ast.NewInstances):
        for name in action.names:
            _new_instance(topology, action.kind, name, action.definition)
    elif isinstance(action, ast.Connect):
        _connect(topology, action.source, action.sink, action.channel)
    elif isinstance(action, ast.Disconnect):
        _disconnect(topology, action.source, action.sink)
    elif isinstance(action, ast.DisconnectAll):
        _disconnect_all(topology, action.instance)
    elif isinstance(action, ast.Insert):
        _insert(topology, action.source, action.sink, action.instance)
    elif isinstance(action, ast.Replace):
        _replace(topology, action.old, action.new)
    elif isinstance(action, ast.RemoveInstance):
        if action.kind == "channel":
            _remove_channel(topology, action.name)
        else:
            _remove(topology, action.name, extract=action.kind == "extract",
                    force=force, heal=heal)
    else:
        raise ReconfigurationError(f"illegal handler action {action!r}")


def _instance(t: Topology, name: str) -> ast.StreamletDef:
    try:
        return t.instances[name]
    except KeyError:
        raise CompositionError(
            f"no streamlet instance {name!r} in {t.base.stream_name}"
        ) from None


def _channel(t: Topology, name: str) -> ChannelState:
    try:
        return t.channels[name]
    except KeyError:
        raise CompositionError(
            f"no channel instance {name!r} in {t.base.stream_name}"
        ) from None


def _auto_channel(t: Topology) -> str:
    name = f"__rt_auto{t.auto_counter}"
    t.auto_counter += 1
    t.add_channel(name, DEFAULT_CHANNEL_DEF)
    return name


def _link(t: Topology, name: str, source: ast.PortRef, sink: ast.PortRef) -> None:
    """Join source → channel ``name`` → sink: the one way a link comes to exist."""
    check_connection(
        t.registry, t.instances[source.instance], source,
        t.instances[sink.instance], sink, t.channels[name].definition,
    )
    if t.outputs[source.instance].get(source.port, name) != name:
        raise CompositionError(f"port {source} is already connected")
    if t.inputs[sink.instance].get(sink.port, name) != name:
        raise CompositionError(f"port {sink} is already connected")
    t.wire(name, source, sink)


def _unlink(t: Topology, name: str) -> None:
    """Unattach channel ``name``; an auto-created one goes with its link."""
    t.wire(name, None, None)
    if name.startswith("__"):
        del t.channels[name]
        t.fresh.discard(name)


def _new_instance(t: Topology, kind: str, name: str, definition_name: str) -> None:
    if name in t.instances or name in t.channels:
        raise CompositionError(f"instance name {name!r} already in use")
    known = t.base.channel_defs if kind == "channel" else t.base.streamlet_defs
    definition = known.get(definition_name)
    if definition is None:
        raise CompositionError(f"unknown {kind} definition {definition_name!r}")
    if kind == "channel":
        t.add_channel(name, definition)
    else:
        t.add_instance(name, definition)


def _connect(t: Topology, source: ast.PortRef, sink: ast.PortRef, channel: str | None) -> None:
    _instance(t, source.instance)
    _instance(t, sink.instance)
    if channel is None:
        channel = _auto_channel(t)
    else:
        state = _channel(t, channel)
        if state.source is not None or state.sink is not None:
            raise CompositionError(f"channel {channel!r} already carries a connection")
    _link(t, channel, source, sink)


def _linked(t: Topology, source: ast.PortRef, sink: ast.PortRef, error) -> str:
    """The channel joining ``source`` to ``sink``; ``error`` if there is none."""
    _instance(t, source.instance)
    _instance(t, sink.instance)
    name = t.outputs[source.instance].get(source.port)
    if name is None or t.channels[name].sink != sink:
        raise error(f"no connection between {source} and {sink}")
    return name


def _disconnect(t: Topology, source: ast.PortRef, sink: ast.PortRef) -> None:
    name = _linked(t, source, sink, CompositionError)
    channel = t.channels[name]
    detach_breaks(name, channel.definition.category, "source", t.pending(name))
    # whichever end the category keeps, detaching that one next breaks it:
    # with both ends gone the pending units are lost in every category
    channel.contents = []
    _unlink(t, name)


def _disconnect_all(t: Topology, instance: str) -> None:
    _instance(t, instance)
    for name in list(t.outputs[instance].values()):
        channel = t.channels[name]
        if channel.sink.instance != EGRESS:
            _disconnect(t, channel.source, channel.sink)
    for name in list(t.inputs[instance].values()):
        channel = t.channels[name]
        if channel.source.instance != INGRESS:
            _disconnect(t, channel.source, channel.sink)


def _insert(t: Topology, source: ast.PortRef, sink: ast.PortRef, instance: str) -> None:
    """Splice ``instance`` into source→sink (Figure 7-4).

    The existing channel keeps feeding the sink — its pending units
    survive, as BK semantics promise, and stay ahead of anything the
    newcomer emits; a fresh channel joins the source to the newcomer.
    """
    _instance(t, source.instance)
    _instance(t, sink.instance)
    definition = _instance(t, instance)
    ins = definition.inputs()
    outs = definition.outputs()
    if len(ins) != 1 or len(outs) != 1:
        raise ReconfigurationError(
            f"insert target {instance} must have exactly one in and one out port"
        )
    name = _linked(t, source, sink, ReconfigurationError)
    if t.wired(instance):
        raise ReconfigurationError(f"insert target {instance} is already wired")
    channel = t.channels[name]
    if detach_breaks(name, channel.definition.category, "source", t.pending(name)):
        channel.contents = []  # BB/KB: detaching the producer loses what is pending
    _link(t, name, ast.PortRef(instance, outs[0].name), sink)
    _link(t, _auto_channel(t), source, ast.PortRef(instance, ins[0].name))


def _replace(t: Topology, old: str, new: str) -> None:
    """Swap ``old`` for the dormant ``new``, which inherits the wiring by port name."""
    _instance(t, old)
    definition = _instance(t, new)
    if t.wired(new):
        raise ReconfigurationError(f"replacement {new!r} is already wired")
    for index, direction, word in (
        (t.inputs, ast.PortDirection.IN, "input"), (t.outputs, ast.PortDirection.OUT, "output")
    ):
        for port in index[old]:
            decl = definition.port(port)
            if decl is None or decl.direction is not direction:
                raise ReconfigurationError(
                    f"replacement {new!r} lacks {word} port {port!r} of {old!r}"
                )
    for port, name in list(t.inputs[old].items()):
        t.wire(name, t.channels[name].source, ast.PortRef(new, port))
    for port, name in list(t.outputs[old].items()):
        t.wire(name, ast.PortRef(new, port), t.channels[name].sink)
    _discard_instance(t, old)


def _heal(t: Topology, instance: str) -> bool:
    """Join a single-in/single-out instance's neighbours around it.

    The predecessor inherits the *downstream* channel so messages the
    instance already emitted stay ahead of messages it never saw
    (message-loss avoidance); the upstream channel's pending units queue
    behind them.  False when the wiring shape does not allow a heal (the
    caller falls back to plain disconnection).
    """
    ins = [n for n in t.inputs[instance].values() if t.channels[n].source.instance != INGRESS]
    outs = [n for n in t.outputs[instance].values() if t.channels[n].sink.instance != EGRESS]
    if len(ins) != 1 or len(outs) != 1:
        return False
    (upstream,), (downstream,) = ins, outs
    up, down = t.channels[upstream], t.channels[downstream]
    if down.closed and t.pending(upstream):
        raise QueueClosedError("post on closed queue")
    predecessor = up.source
    down.contents += up.contents
    up.contents = []
    _unlink(t, upstream)
    t.wire(downstream, predecessor, down.sink)
    return True


def _remove(t: Topology, name: str, *, extract: bool, force: bool, heal: bool) -> None:
    """Take an instance out of the flow (Figure 6-8); ``extract`` keeps it dormant."""
    _instance(t, name)
    if not force:
        waiting = [n for n in t.inputs[name].values() if t.pending(n)]
        if waiting:
            raise ReconfigurationError(
                f"cannot {'extract' if extract else 'remove'} {name}: input "
                f"channel(s) {waiting} still hold messages (drain the stream "
                "first or pass force=True)"
            )
    if not (heal and _heal(t, name)):
        _disconnect_all(t, name)
    if not extract:
        # what is still attached is an edge carrier: it goes with the
        # instance, and what it holds is referenced nowhere — a drop
        for carrier in [*t.inputs[name].values(), *t.outputs[name].values()]:
            _unlink(t, carrier)
        _discard_instance(t, name)


def _discard_instance(t: Topology, name: str) -> None:
    del t.instances[name], t.inputs[name], t.outputs[name]
    t.fresh.discard(name)


def _remove_channel(t: Topology, name: str) -> None:
    state = _channel(t, name)
    if state.source is not None or state.sink is not None:
        raise CompositionError(f"channel {name!r} still carries a connection")
    del t.channels[name]
    t.fresh.discard(name)
