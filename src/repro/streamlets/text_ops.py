"""PostScript-to-Text: "discarding some information on format and
converting documents to rich-text supported by most devices" (section 4.3).

The payload is a :class:`~repro.codecs.psdoc.PsDocument` (or its textual
wire form); the streamlet keeps the ``show`` text runs and drops the
formatting/graphics operators, retyping to ``text/richtext`` — which the
compatibility example of section 4.4.1 then feeds into the Text Compressor
(``text/richtext`` ≤ ``text``).

The document codec is imported when the streamlet is instantiated (at
deploy), not with the gateway.
"""

from __future__ import annotations

from repro.errors import CodecError
from repro.mcl import astnodes as ast
from repro.mime.mediatype import APPLICATION_POSTSCRIPT, TEXT_RICHTEXT
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext

POSTSCRIPT2TEXT_DEF = ast.StreamletDef(
    name="postscript2text",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", APPLICATION_POSTSCRIPT),
        ast.PortDecl(ast.PortDirection.OUT, "po", TEXT_RICHTEXT),
    ),
    kind=ast.StreamletKind.STATELESS,
    library="text/postscript2text",
    description="discard formatting and convert documents to rich text",
)


class Postscript2Text(Streamlet):
    """Strip formatting operators; keep the text runs as text/richtext."""

    @staticmethod
    def load() -> type:
        from repro.codecs.psdoc import PsDocument

        return PsDocument

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._document = self.load()

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        body = message.body
        if isinstance(body, self._document):
            document = body
        elif isinstance(body, bytes | bytearray):
            document = self._document.parse(bytes(body).decode("utf-8"))
        elif isinstance(body, str):
            document = self._document.parse(body)
        else:
            raise CodecError(
                f"postscript2text received undecodable {message.content_type} payload"
            )
        message.set_body(document.to_text().encode("utf-8"), TEXT_RICHTEXT)
        return [("po", message)]
