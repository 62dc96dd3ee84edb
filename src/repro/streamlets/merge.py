"""The merge: "integrating different types of information into a whole body".

Stateful counterpart of the switch: it collects parts tagged with the same
group id (on any input port) and emits one ``multipart/mixed`` message when
the whole group — whose size travels in the count header — has arrived.
Untagged messages pass through unchanged.

Parts are re-assembled in arrival order, which together with FIFO channels
preserves the original part order for linear topologies; a group spread
over parallel branches may interleave, but group *membership* is exact.
"""

from __future__ import annotations

from repro.errors import RuntimeFault
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY, MULTIPART_MIXED
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext
from repro.streamlets.switch import COUNT_HEADER, GROUP_HEADER

MERGE_DEF = ast.StreamletDef(
    name="merge",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi1", ANY),
        ast.PortDecl(ast.PortDirection.IN, "pi2", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", MULTIPART_MIXED),
    ),
    kind=ast.StreamletKind.STATEFUL,
    library="general/merge",
    description="integrate different types of information into a whole body",
)


class Merge(Streamlet):
    """Collect switch-tagged parts back into multipart messages."""

    cooperative = True

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._pending: dict[str, tuple[int, list[MimeMessage]]] = {}

    def reset(self) -> None:
        self._pending.clear()

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        group = message.headers.get(GROUP_HEADER)
        if group is None:
            return [("po", message)]
        count_raw = message.headers.get(COUNT_HEADER)
        if count_raw is None:
            raise RuntimeFault(
                f"merge {self.instance_id}: part in group {group} lacks {COUNT_HEADER}"
            )
        count = int(count_raw)
        expected, parts = self._pending.get(group, (count, []))
        if expected != count:
            raise RuntimeFault(
                f"merge {self.instance_id}: group {group} count disagreement "
                f"({expected} vs {count})"
            )
        message.headers.remove(GROUP_HEADER)
        message.headers.remove(COUNT_HEADER)
        parts.append(message)
        if len(parts) < count:
            self._pending[group] = (expected, parts)
            return []
        del self._pending[group]
        merged = MimeMessage.multipart(parts, session=message.session)
        return [("po", merged)]

    @property
    def pending_groups(self) -> int:
        return len(self._pending)
