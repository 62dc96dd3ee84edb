"""XML streaming: deliver a large document progressively (§1.2.1).

A big structured document stalls a slow link until the last byte arrives;
the streaming service entity splits it at top-level element boundaries so
the client can render children as they land:

* **XmlStreamer** (server): parses the ``application/xml`` payload and
  emits one message per top-level child, each wrapped in an envelope
  element carrying the root's name/attributes plus sequence headers
  (``X-MobiGATE-XStream`` id, ``X-MobiGATE-XSeq`` i/n).  Documents whose
  root has at most one child pass through whole.
* **XmlReassembler** (client peer ``xml_reassemble``): holds fragments by
  stream id and reconstitutes the original document when the set
  completes.

The transformation is exactly invertible for parsed documents — text
directly under the root travels in the fragment that follows it, so
child order and content survive.

The SGML codec is imported when a streamer (at deploy) or a reassembly
(with its client peer) is instantiated, never on the message path.
"""

from __future__ import annotations

from types import ModuleType
from typing import TYPE_CHECKING

from repro.errors import CodecError
from repro.mcl import astnodes as ast
from repro.mime.mediatype import MediaType
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext
from repro.util.ids import IdGenerator

if TYPE_CHECKING:
    from repro.codecs.sgml import Element

APPLICATION_XML = MediaType("application", "xml")
STREAM_HEADER = "X-MobiGATE-XStream"
SEQ_HEADER = "X-MobiGATE-XSeq"
PEER_XML_REASSEMBLE = "xml_reassemble"
_ENVELOPE = "mobigate.fragment"
_stream_ids = IdGenerator("xstr")

XML_STREAMER_DEF = ast.StreamletDef(
    name="xml_streamer",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", APPLICATION_XML),
        ast.PortDecl(ast.PortDirection.OUT, "po", APPLICATION_XML),
    ),
    kind=ast.StreamletKind.STATELESS,
    library="xml/streamer",
    description="split XML documents at element boundaries for progressive delivery",
)


def _document_of(message: MimeMessage, sgml: ModuleType) -> Element:
    body = message.body
    if isinstance(body, sgml.Element):
        return body
    if isinstance(body, bytes | bytearray):
        return sgml.parse(bytes(body).decode("utf-8"))
    if isinstance(body, str):
        return sgml.parse(body)
    raise CodecError(
        f"xml_streamer received undecodable {message.content_type} payload"
    )


class XmlStreamer(Streamlet):
    """Split XML documents into per-element fragments for progressive delivery."""
    peer_id = PEER_XML_REASSEMBLE

    @staticmethod
    def load() -> ModuleType:
        from repro.codecs import sgml

        return sgml

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._sgml = self.load()

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        document = _document_of(message, self._sgml)
        children = document.children
        if len(children) <= 1:
            # nothing to stream; forward whole (no peer work either, but a
            # 1-fragment stream keeps the client path uniform)
            children = list(children)
        stream_id = _stream_ids.next()
        total = max(1, len(children))
        emissions: Emission = []
        for index in range(total):
            envelope = self._sgml.Element(
                _ENVELOPE,
                {"root": document.name, "id": stream_id,
                 "seq": str(index), "total": str(total)},
            )
            for key, value in document.attrs.items():
                envelope.attrs[f"r.{key}"] = value
            if children:
                envelope.add(children[index])
            fragment = MimeMessage(
                APPLICATION_XML,
                envelope.serialize().encode("utf-8"),
                headers=message.headers,
            )
            fragment.headers.set(STREAM_HEADER, stream_id)
            fragment.headers.set(SEQ_HEADER, f"{index}/{total}")
            emissions.append(("po", fragment))
        return emissions


class XmlReassembly:
    """Client-side state: collect fragments, rebuild documents."""

    def __init__(self):
        self._sgml = XmlStreamer.load()
        self._partial: dict[str, dict[int, Element]] = {}

    def add(self, message: MimeMessage) -> MimeMessage | None:
        """Feed one fragment; returns the whole document when complete."""
        stream_id = message.headers.get(STREAM_HEADER)
        if stream_id is None:
            raise CodecError("fragment lacks the XStream header")
        envelope = _document_of(message, self._sgml)
        if envelope.name != _ENVELOPE:
            raise CodecError(f"not a fragment envelope: <{envelope.name}>")
        seq = int(envelope.attrs["seq"])
        total = int(envelope.attrs["total"])
        fragments = self._partial.setdefault(stream_id, {})
        fragments[seq] = envelope
        if len(fragments) < total:
            return None
        del self._partial[stream_id]
        first = fragments[0]
        root = self._sgml.Element(
            first.attrs["root"],
            {k[2:]: v for k, v in first.attrs.items() if k.startswith("r.")},
        )
        for index in range(total):
            child_envelope = fragments.get(index)
            if child_envelope is None:
                raise CodecError(f"stream {stream_id} missing fragment {index}")
            root.children.extend(child_envelope.children)
        rebuilt = MimeMessage(
            APPLICATION_XML,
            root.serialize().encode("utf-8"),
            headers=message.headers,
        )
        rebuilt.headers.remove(STREAM_HEADER)
        rebuilt.headers.remove(SEQ_HEADER)
        return rebuilt

    @property
    def pending_streams(self) -> int:
        return len(self._partial)
