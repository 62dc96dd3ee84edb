"""The Streamlet base class (section 6.1, Figure 6-2).

A streamlet encapsulates one service entity.  Authors override
:meth:`Streamlet.process` — the Python rendering of ``processMsg()`` —
which receives a message from one input port and returns the messages to
emit, each tagged with an output port.  Streamlets never see channels,
queues, or neighbours: coordination is entirely the runtime's concern,
which is the thesis's separation-of-concerns principle made concrete.

Lifecycle (``pause`` / ``activate`` / ``end``) is a small state machine
guarded against illegal transitions; the reconfiguration engine drives it
during stream adaptation and the Figure 7-6 experiment times it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.errors import LifecycleError
from repro.mcl import astnodes as ast
from repro.mime.message import MimeMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.stream import RuntimeStream

#: what ``process`` returns: messages tagged with the output port to use
Emission = list[tuple[str, MimeMessage]]


class StreamletState(Enum):
    """Lifecycle states of Figure 6-2: created, active, paused, ended."""
    CREATED = "created"
    ACTIVE = "active"
    PAUSED = "paused"
    ENDED = "ended"


_ALLOWED = {
    StreamletState.CREATED: {StreamletState.ACTIVE, StreamletState.ENDED},
    StreamletState.ACTIVE: {StreamletState.PAUSED, StreamletState.ENDED},
    StreamletState.PAUSED: {StreamletState.ACTIVE, StreamletState.ENDED},
    StreamletState.ENDED: set(),
}


@dataclass
class StreamletContext:
    """What a streamlet may know about its surroundings.

    Deliberately narrow: the session it is serving, configuration
    parameters (the §8.2.1 "control interface" recommendation), and an
    emission counter — no references to other streamlets or channels.
    """

    instance_id: str
    session: str | None = None
    params: dict[str, object] = field(default_factory=dict)
    emitted: int = 0


class Streamlet:
    """Base class for every service entity.

    Subclasses set ``peer_id`` (class attribute) when the transformation
    needs reverse processing on the client — the runtime then pushes it
    onto the message's peer stack (section 6.5).

    Subclasses set ``cooperative = True`` to promise that ``process()``
    never waits — no sleep, no I/O, no lock held elsewhere — and does
    work bounded by the one message it was handed.  A gateway steps a
    composition made only of cooperative streamlets on its shared egress
    thread instead of giving each instance a worker thread, so a
    cooperative ``process()`` that does block silences every session of
    the gateway; the default is the safe one.
    """

    #: id of the client-side peer streamlet, or None for one-sided services
    peer_id: str | None = None
    #: ``process()`` never waits and is bounded by its one message (see above)
    cooperative: bool = False

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        self.instance_id = instance_id
        self.definition = definition
        self.state = StreamletState.CREATED
        self.processed = 0
        self._bound_stream: str | None = None

    @staticmethod
    def load() -> object:
        """Import and return what the implementation needs beyond its own
        module (a codec, and numpy under it); nothing by default.

        An implementation that has such code calls ``load`` when it is
        constructed.  The Streamlet Manager calls it at deploy for every
        definition only a ``when`` handler instantiates, so that code is
        in memory before a reconfiguration needs it, not imported inside
        the handler's write section.
        """
        return None

    # -- computation (override) ---------------------------------------------------

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        """Transform one message; return ``[(out_port, message), ...]``.

        The default forwards unchanged to the sole output port, which is
        the behaviour of the *redirector* measurement streamlet.
        """
        outs = self.definition.outputs()
        if len(outs) != 1:
            raise NotImplementedError(
                f"{type(self).__name__} must override process(): definition "
                f"{self.definition.name} has {len(outs)} output ports"
            )
        return [(outs[0].name, message)]

    def on_start(self, ctx: StreamletContext) -> None:
        """Hook: stream deployment finished; allocate per-stream state."""

    def on_end(self, ctx: StreamletContext) -> None:
        """Hook: stream ending; release state."""

    def reset(self) -> None:
        """Clear per-stream state so a pooled instance can be reused.

        Stateless streamlets usually need nothing; stateful ones are never
        pooled, but ``reset`` is still called defensively on release.
        """

    # -- lifecycle (pause / activate / end of Figure 6-2) ------------------------------

    def _transition(self, target: StreamletState) -> None:
        if target not in _ALLOWED[self.state]:
            raise LifecycleError(
                f"{self.instance_id}: illegal transition {self.state.value} -> {target.value}"
            )
        self.state = target

    def activate(self) -> None:
        """Transition to ACTIVE (legal from CREATED or PAUSED)."""
        self._transition(StreamletState.ACTIVE)

    def pause(self) -> None:
        """Transition to PAUSED (legal from ACTIVE)."""
        self._transition(StreamletState.PAUSED)

    def end(self) -> None:
        """Transition to ENDED (terminal; legal from any live state)."""
        self._transition(StreamletState.ENDED)

    @property
    def is_active(self) -> bool:
        return self.state is StreamletState.ACTIVE

    # -- pooling support -------------------------------------------------------------------

    @property
    def is_stateless(self) -> bool:
        return self.definition.kind is ast.StreamletKind.STATELESS

    def rebind(self, instance_id: str) -> None:
        """Re-identify a pooled instance for its next assignment."""
        self.instance_id = instance_id
        self.state = StreamletState.CREATED
        self.processed = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}({self.instance_id}, def={self.definition.name}, "
            f"{self.state.value})"
        )


class ForwardingStreamlet(Streamlet):
    """The *redirector* (section 7.2): parse, re-encapsulate, forward.

    It performs the two overhead-bearing steps every streamlet shares —
    reading the message (content type validated, headers walked, length
    stamped) and writing it to the output port — with no service logic,
    so timing a chain of these isolates the per-streamlet overhead of
    Figure 7-2.  Every step runs on every message; what a hop does not
    pay twice is *derivation*: the media type was parsed when the frame
    came in and stays on the header map's memo until a header changes,
    and re-stamping the length a message already carries stores nothing.
    """

    cooperative = True

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        """Parse the envelope, re-stamp it, and forward unchanged."""
        # "parse": validate the content type and walk the headers
        _ = message.content_type
        for _name, _value in message.headers:
            pass
        # "unparse": re-stamp the envelope
        message.stamp_length()
        return [(self.definition.outputs()[0].name, message)]
