"""The communicator: "sending messages onto the network" (section 7.5).

The terminal streamlet of a server-side stream.  It hands each message to
a transport callable — in this reproduction, the network emulator's
``send`` — and emits nothing, so its definition has no output ports and
the open-circuit analysis treats it as a legitimate sink.

The transport is injected through ``ctx.params['transport']`` (set by the
emulator after deployment); without one, the communicator counts the
message as delivered-to-nowhere, which keeps unit tests hermetic.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext

#: three wildcard input ports so branched compositions (image path, text
#: path, ...) can all terminate at one communicator; no output ports, so
#: the open-circuit analysis treats it as a legitimate sink
COMMUNICATOR_DEF = ast.StreamletDef(
    name="communicator",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi1", ANY),
        ast.PortDecl(ast.PortDirection.IN, "pi2", ANY),
        ast.PortDecl(ast.PortDirection.IN, "pi3", ANY),
    ),
    kind=ast.StreamletKind.STATEFUL,
    library="net/communicator",
    description="terminal streamlet: hand messages to the wireless link",
)

Transport = Callable[[MimeMessage], None]


class Communicator(Streamlet):
    """Terminal streamlet: hand each message to the injected transport.

    Declared cooperative: the transport is a callable the deployer
    injects, and it must hand the message on without waiting.
    """

    cooperative = True

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self.sent = 0
        self.bytes_sent = 0

    def reset(self) -> None:
        self.sent = 0
        self.bytes_sent = 0

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        transport: Transport | None = ctx.params.get("transport")
        self.sent += 1
        self.bytes_sent += message.total_size()
        if transport is not None:
            transport(message)
        return []
