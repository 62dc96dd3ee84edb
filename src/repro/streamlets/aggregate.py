"""The aggregator: "collecting and collating data from various sources"
(section 1.2.1's second service-entity kind).

Collects messages arriving on its input ports into a window (size from
``ctx.params['window']``, default 5) and emits one collated
``multipart/mixed`` digest per full window.  Unlike :mod:`merge` — which
re-joins parts of one original message by group id — the aggregator
combines *independent* messages (stock ticks, sensor readings, news
items) so one wireless burst replaces many.

``flush()`` emits a partial window at stream teardown/drain time.
"""

from __future__ import annotations

from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY, MULTIPART_MIXED
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext

AGGREGATE_COUNT = "X-MobiGATE-Aggregated"

AGGREGATOR_DEF = ast.StreamletDef(
    name="aggregator",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi1", ANY),
        ast.PortDecl(ast.PortDirection.IN, "pi2", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", MULTIPART_MIXED),
    ),
    kind=ast.StreamletKind.STATEFUL,
    library="general/aggregator",
    description="collect and collate data from various sources",
)


class Aggregator(Streamlet):
    """Collect independent messages into collated multipart digests."""

    cooperative = True

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._window: list[MimeMessage] = []

    def reset(self) -> None:
        self._window.clear()

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        window_size = int(ctx.params.get("window", 5))
        if window_size <= 1:
            return [("po", message)]
        self._window.append(message)
        if len(self._window) < window_size:
            return []
        return self._emit()

    def _emit(self) -> Emission:
        if not self._window:
            return []
        parts = list(self._window)
        self._window.clear()
        digest = MimeMessage.multipart(parts, session=parts[0].session)
        digest.headers.set(AGGREGATE_COUNT, str(len(parts)))
        return [("po", digest)]

    def flush(self) -> Emission:
        """Emit a partial window (stream teardown / drain)."""
        return self._emit()

    @property
    def pending(self) -> int:
        return len(self._window)
