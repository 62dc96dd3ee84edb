"""The Text Compressor — "a generic text compressor ... with the potential
to reduce the data size by up to 75%" (section 7.5).

Compression happens in place: the payload becomes the MGTC container and a
``Content-Encoding: mobigate-lzh`` header marks it.  The client peer
(``text_decompress``) reverses it, keyed by the peer id the runtime pushes
(section 6.5).  Incompressible payloads are sent as stored-mode containers,
so the peer's behaviour is uniform.

The codec is imported when a compressor is instantiated (at deploy), not
with the gateway.
"""

from __future__ import annotations

from repro.errors import CodecError
from repro.mcl import astnodes as ast
from repro.mime.mediatype import TEXT
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext

CONTENT_ENCODING = "Content-Encoding"
ENCODING_NAME = "mobigate-lzh"
PEER_TEXT_DECOMPRESS = "text_decompress"

TEXT_COMPRESS_DEF = ast.StreamletDef(
    name="text_compress",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", TEXT),
        ast.PortDecl(ast.PortDirection.OUT, "po", TEXT),
    ),
    kind=ast.StreamletKind.STATELESS,
    library="text/compress",
    description="a generic text compressor (LZSS + canonical Huffman)",
)


class TextCompress(Streamlet):
    """Compress text payloads in place (LZSS + Huffman container)."""
    peer_id = PEER_TEXT_DECOMPRESS

    @staticmethod
    def load() -> type:
        from repro.codecs.textcodec import TextCodec

        return TextCodec

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._codec = self.load()()
        self.bytes_in = 0
        self.bytes_out = 0

    def reset(self) -> None:
        self.bytes_in = 0
        self.bytes_out = 0

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        from repro.streamlets.customize import NO_COMPRESS_HEADER

        if message.headers.get(NO_COMPRESS_HEADER) is not None:
            return [("po", message)]  # per-user opt-out (customizer, §1.2.1)
        body = message.body
        if isinstance(body, str):
            body = body.encode("utf-8")
        if not isinstance(body, bytes | bytearray):
            raise CodecError(
                f"text_compress received undecodable {message.content_type} payload"
            )
        if message.headers.get(CONTENT_ENCODING) == ENCODING_NAME:
            raise CodecError(f"{self.instance_id}: payload is already compressed")
        compressed = self._codec.compress(bytes(body))
        self.bytes_in += len(body)
        self.bytes_out += len(compressed)
        message.set_body(compressed)
        message.headers.set(CONTENT_ENCODING, ENCODING_NAME)
        return [("po", message)]


def decompress_message(message: MimeMessage) -> None:
    """The peer transformation (used by the client's text_decompress)."""
    from repro.codecs.textcodec import TextCodec

    if message.headers.get(CONTENT_ENCODING) != ENCODING_NAME:
        raise CodecError("message is not mobigate-lzh encoded")
    body = message.body
    if not isinstance(body, bytes | bytearray):
        raise CodecError("compressed payload must be bytes")
    message.set_body(TextCodec().decompress(bytes(body)))
    message.headers.remove(CONTENT_ENCODING)
