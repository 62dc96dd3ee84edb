"""The power-saving streamlet ("a power-saving mechanism as discussed in
[Anastasi02]", section 4.3).

Radio transmission dominates handheld energy budgets, and waking the radio
per message is the worst case.  This streamlet *bundles* consecutive
messages into one multipart burst (``bundle`` size from ``ctx.params``,
default 4) so the client radio can sleep between bursts.  The client peer
(``unbundler``) splits bursts back into individual messages in order.

A bundle is also flushed early when ``flush()`` is called (the stream's
END handling) so no message is stranded — the section 6.6 loss-avoidance
rule applied to stateful streamlets.
"""

from __future__ import annotations

from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext

BUNDLE_HEADER = "X-MobiGATE-Bundle"
PEER_UNBUNDLER = "unbundler"

POWER_SAVING_DEF = ast.StreamletDef(
    name="powerSaving",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
    ),
    kind=ast.StreamletKind.STATEFUL,
    library="general/power_saving",
    description="bundle messages into bursts so the client radio can sleep",
)


class PowerSaving(Streamlet):
    """Bundle messages into bursts so the client radio can sleep."""
    peer_id = PEER_UNBUNDLER
    cooperative = True

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._buffer: list[MimeMessage] = []

    def reset(self) -> None:
        self._buffer.clear()

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        bundle_size = int(ctx.params.get("bundle", 4))
        if bundle_size <= 1:
            return [("po", message)]
        self._buffer.append(message)
        if len(self._buffer) < bundle_size:
            return []
        return self._flush_emission()

    def _flush_emission(self) -> Emission:
        if not self._buffer:
            return []
        parts = list(self._buffer)
        self._buffer.clear()
        bundle = MimeMessage.multipart(parts, session=parts[0].session)
        bundle.headers.set(BUNDLE_HEADER, str(len(parts)))
        return [("po", bundle)]

    def flush(self) -> Emission:
        """Emit a partial bundle (called on stream end / drain)."""
        return self._flush_emission()

    def on_end(self, ctx: StreamletContext) -> None:
        # anything left unbundled at teardown is surfaced via flush();
        # schedulers that tear down politely call flush() first
        self._buffer.clear()

    @property
    def buffered(self) -> int:
        return len(self._buffer)


def unbundle_message(message: MimeMessage) -> list[MimeMessage]:
    """The peer transformation: split a burst back into messages."""
    if message.headers.get(BUNDLE_HEADER) is None:
        return [message]
    return list(message.parts)
