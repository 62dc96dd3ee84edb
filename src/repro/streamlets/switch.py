"""The switch: "dividing incoming messages based on the semantic type".

A multipart message is split into its parts; each part is routed to the
output port whose declared media type accepts it.  Parts are tagged with a
group id and the group size so the downstream :mod:`merge` streamlet can
re-assemble exactly the original grouping.  Non-multipart messages are
routed whole.

Parts no output port accepts go to the wildcard port if one exists;
otherwise they are dropped by the runtime's open-circuit accounting (the
chapter-5 analysis exists to catch that misconfiguration statically).
"""

from __future__ import annotations

from repro.mcl import astnodes as ast
from repro.mime.mediatype import (
    ANY,
    APPLICATION_POSTSCRIPT,
    IMAGE,
    MULTIPART_MIXED,
    TEXT,
)
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext
from repro.util.ids import IdGenerator

GROUP_HEADER = "X-MobiGATE-Part-Group"
COUNT_HEADER = "X-MobiGATE-Part-Count"

SWITCH_DEF = ast.StreamletDef(
    name="switch",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", MULTIPART_MIXED),
        ast.PortDecl(ast.PortDirection.OUT, "po_img", IMAGE),
        ast.PortDecl(ast.PortDirection.OUT, "po_ps", APPLICATION_POSTSCRIPT),
        ast.PortDecl(ast.PortDirection.OUT, "po_txt", TEXT),
    ),
    kind=ast.StreamletKind.STATELESS,
    library="general/switch",
    description="divide incoming messages based on the semantic type of the data",
)

_groups = IdGenerator("grp")


class ContentSwitch(Streamlet):
    """Route (parts of) messages by media type to typed output ports."""

    cooperative = True

    def _route(self, message: MimeMessage) -> str | None:
        """Best-matching output port for a message, most specific first."""
        best: tuple[int, str] | None = None
        for port in self.definition.outputs():
            pattern = port.mediatype
            if message.content_type.matches(pattern):
                # specificity: concrete subtype (2) > type wildcard (1) > */* (0)
                score = (pattern.maintype != "*") + (pattern.subtype != "*")
                if best is None or score > best[0]:
                    best = (score, port.name)
        return best[1] if best else None

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        if not message.is_multipart:
            out = self._route(message)
            return [(out, message)] if out else []
        parts = message.parts
        group = _groups.next()
        emissions: Emission = []
        for part in parts:
            out = self._route(part)
            if out is None:
                continue  # dropped; analysis should have routed everything
            part.headers.set(GROUP_HEADER, group)
            part.headers.set(COUNT_HEADER, str(len(parts)))
            if message.session is not None:
                part.headers.session = message.session
            emissions.append((out, part))
        return emissions
