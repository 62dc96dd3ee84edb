"""Wire form: serialise :class:`MimeMessage` to bytes and back.

The MobiGATE client "parses the incoming MIME messages" (section 3.4.1),
so messages need a concrete byte representation.  The format is
MIME-shaped and binary-safe:

* header block — ``Name: value`` lines, UTF-8, terminated by a blank line;
* ``Content-Length`` is (re)stamped on serialisation and trusted on parse,
  so bodies may contain anything, including CRLFs;
* multipart bodies use a generated boundary recorded as a ``boundary``
  parameter on the content type, each part serialised recursively;
* structured payloads are encoded through a payload-codec registry keyed
  by the ``X-MobiGATE-Payload`` header: ``raster`` (numpy image planes
  with a shape prefix) and ``psdoc`` (the document's textual wire form).
  Plain ``bytes``/``str`` payloads need no marker.  The codec behind a
  kind is imported by the first frame of that kind, never before; a
  structured payload that does not decode, or whose codec cannot be
  imported (``raster`` needs numpy), is a :class:`~repro.errors.MimeError`
  like any other malformed frame.

``parse_message(serialize_message(m))`` reproduces the message up to
payload identity (structured payloads compare equal, not identical).

``Content-Length`` is *validated* before it is trusted: a missing,
non-numeric, negative, or oversized declaration raises
:class:`~repro.errors.MimeError` instead of hanging a reader or
over-allocating a buffer.  The ceiling (:data:`DEFAULT_MAX_FRAME_BYTES`)
is configurable per call and per :class:`FrameAssembler`: a gateway on a
public socket wants a tighter bound than an in-process round trip.

:class:`FrameAssembler` is the streaming face of the format: it reads
chunks where they lie (a reused receive buffer is fine) and copies a
payload byte once, twice when the body straddles reads.  On the way out
:func:`serialize_parts` renders ``(head, payload)`` and
:func:`serialize_message` is their join, so a writer that can issue two
writes never copies the payload at all.
"""

from __future__ import annotations

import re
import struct
import sys
from typing import TYPE_CHECKING

from repro.errors import CodecError, FrameError, MimeError
from repro.mime.headers import CONTENT_LENGTH, HeaderMap
from repro.mime.message import MimeMessage
from repro.util.ids import IdGenerator

if TYPE_CHECKING:
    from repro.codecs.imagefmt import ImageRaster
    from repro.codecs.psdoc import PsDocument

PAYLOAD_KIND = "X-MobiGATE-Payload"
_BOUNDARY_IDS = IdGenerator("mgbd")

_HEADER_TERMINATOR = b"\n\n"
_TERMINATOR_RE = re.compile(rb"\n\n")  # memoryviews have no ``find``

#: default ceiling on one frame's declared payload (16 MiB): large enough
#: for every workload in the repo, small enough that a hostile
#: Content-Length cannot make a reader buffer gigabytes
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: default ceiling on the header block of one frame (64 KiB)
DEFAULT_MAX_HEADER_BYTES = 64 * 1024


def _parse_head(raw: bytes | bytearray | memoryview, max_length: int) -> tuple[HeaderMap, int]:
    """A header block (less its terminator) as headers plus the frame's
    Content-Length, or MimeError if either cannot be trusted."""
    try:
        headers = HeaderMap.parse(str(raw, "utf-8"))
    except UnicodeDecodeError as exc:
        raise MimeError(f"header block is not UTF-8: {exc}") from None
    length_raw = headers.get(CONTENT_LENGTH)
    if length_raw is None:
        raise MimeError("wire message lacks Content-Length")
    try:
        length = int(length_raw)
    except ValueError:
        raise MimeError(f"bad Content-Length {length_raw!r}") from None
    if length < 0:
        raise MimeError(f"negative Content-Length {length}")
    if length > max_length:
        raise MimeError(
            f"Content-Length {length} exceeds the {max_length}-byte frame ceiling"
        )
    return headers, length


# ---------------------------------------------------------------------------
# structured payload codecs
# ---------------------------------------------------------------------------


def _encode_raster(raster: ImageRaster) -> bytes:
    height, width, _ = raster.pixels.shape
    return struct.pack("<HH", width, height) + raster.pixels.tobytes()


def _decode_raster(data: bytes) -> ImageRaster:
    try:
        import numpy as np

        from repro.codecs.imagefmt import ImageRaster
    except ImportError as exc:  # a frame, not the connection, is at fault
        raise MimeError(f"raster payloads need numpy: {exc}") from None

    if len(data) < 4:
        raise MimeError("truncated raster payload")
    width, height = struct.unpack_from("<HH", data, 0)
    expected = width * height * 3
    body = data[4:]
    if len(body) != expected:
        raise MimeError(
            f"raster payload is {len(body)} bytes; {width}x{height} needs {expected}"
        )
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3).copy()
    return ImageRaster(pixels)


def _encode_psdoc(document: PsDocument) -> bytes:
    return document.to_source().encode("utf-8")


def _decode_psdoc(data: bytes) -> PsDocument:
    from repro.codecs.psdoc import PsDocument

    try:
        return PsDocument.parse(data.decode("utf-8"))
    except (UnicodeDecodeError, CodecError) as exc:
        raise MimeError(f"bad psdoc payload: {exc}") from None


def _encode_structured(body: object) -> tuple[bytes, str]:
    """A raster or psdoc payload as ``(payload, kind)``.

    Neither class can be instantiated before its module is imported, so
    only the codec modules already in :data:`sys.modules` are consulted.
    """
    imagefmt = sys.modules.get("repro.codecs.imagefmt")
    if imagefmt is not None and isinstance(body, imagefmt.ImageRaster):
        return _encode_raster(body), "raster"
    psdoc = sys.modules.get("repro.codecs.psdoc")
    if psdoc is not None and isinstance(body, psdoc.PsDocument):
        return _encode_psdoc(body), "psdoc"
    raise MimeError(f"cannot serialise payload of type {type(body).__name__}")


_DECODERS = {
    "raster": _decode_raster,
    "psdoc": _decode_psdoc,
}


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def serialize_parts(message: MimeMessage) -> tuple[bytes, bytes]:
    """Render a message as ``(head, payload)``; the wire frame is their join.

    ``head`` is the header block with its blank-line terminator; a
    ``bytes`` body *is* the payload, the same object.  The envelope —
    multipart boundary, payload kind, ``Content-Length`` — is stamped on a
    copy, unless it already says all of that: then no copy is made and
    the header block comes off the header map's memo.
    """
    headers = message.headers
    body = message.body
    kind: str | None = None
    boundary_type = None
    if isinstance(body, bytes | bytearray | memoryview):
        payload = bytes(body)
    elif isinstance(body, list):  # multipart
        boundary = _BOUNDARY_IDS.next()
        boundary_type = message.content_type.with_params(boundary=boundary)
        delimiter = f"--{boundary}\n".encode()
        closing = f"--{boundary}--".encode()
        chunks: list[bytes] = []
        for part in body:
            encoded = serialize_message(part)
            chunks.append(delimiter)
            chunks.append(struct.pack("<I", len(encoded)))
            chunks.append(encoded)
        chunks.append(closing)
        payload = b"".join(chunks)
    elif isinstance(body, str):
        payload, kind = body.encode("utf-8"), "text"
    elif body is None:
        payload = b""
    else:
        payload, kind = _encode_structured(body)

    length = str(len(payload))
    if (
        boundary_type is not None
        or headers.get(PAYLOAD_KIND) != kind
        or headers.get(CONTENT_LENGTH) != length
    ):
        headers = headers.copy()
        if boundary_type is not None:
            headers.content_type = boundary_type
        if kind is None:
            headers.remove(PAYLOAD_KIND)
        else:
            headers.set(PAYLOAD_KIND, kind)
        headers.set(CONTENT_LENGTH, length)
    return headers.encoded() + _HEADER_TERMINATOR, payload


def serialize_message(message: MimeMessage) -> bytes:
    """Render a message (and its parts, recursively) to wire bytes."""
    return b"".join(serialize_parts(message))


def parse_message(
    data: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> MimeMessage:
    """Inverse of :func:`serialize_message`.

    ``Content-Length`` is validated (present, numeric, non-negative, at
    most ``max_frame_bytes``) before the payload is sliced, so a
    malformed frame fails with a clean :class:`MimeError` instead of
    over-allocating.
    """
    split_at = data.find(_HEADER_TERMINATOR)
    if split_at < 0:
        raise MimeError("wire message has no header terminator")
    headers, length = _parse_head(data[:split_at], max_frame_bytes)
    payload = data[split_at + len(_HEADER_TERMINATOR):]
    if len(payload) != length:
        raise MimeError(
            f"Content-Length says {length} but payload is {len(payload)} bytes"
        )
    return _build_message(headers, payload)


def _build_message(headers: HeaderMap, payload: bytes) -> MimeMessage:
    """Assemble a message from a parsed header block and its exact payload."""
    content_type = headers.content_type
    if content_type is None:
        raise MimeError("wire message lacks Content-Type")

    body: object
    if content_type.maintype == "multipart" and content_type.param("boundary"):
        body = _parse_multipart(payload, content_type.param("boundary"))
        headers.content_type = content_type.without_params()
    else:
        kind = headers.get(PAYLOAD_KIND)
        if kind is None:
            body = payload
        elif kind == "text":
            try:
                body = payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MimeError(f"text payload is not UTF-8: {exc}") from None
            headers.remove(PAYLOAD_KIND)
        elif kind in _DECODERS:
            body = _DECODERS[kind](payload)
            headers.remove(PAYLOAD_KIND)
        else:
            raise MimeError(f"unknown payload kind {kind!r}")

    message = MimeMessage.__new__(MimeMessage)
    message.headers = headers
    message.body = body
    return message


# ---------------------------------------------------------------------------
# streaming incremental parsing
# ---------------------------------------------------------------------------


class FrameAssembler:
    """Reassemble wire messages from an arbitrary chunking of the byte stream.

    ``feed`` walks the chunk by offset and returns every message it
    completed, in order — the concatenation of all ``feed`` results equals
    parsing the concatenated stream whole, however the boundaries fall.
    Between feeds it keeps only what a chunk left open (an unterminated
    header tail, or the part of a body still short of its length), so the
    chunk may be overwritten as soon as ``feed`` returns.  The header block
    is bounded (``max_header_bytes``); ``Content-Length`` is validated the
    moment the block is complete, before a body byte is kept; a body inside
    one chunk is copied out of it once and one that straddles reads once
    more; nothing is ever shifted.

    A malformed frame raises :class:`~repro.errors.FrameError` carrying the
    frames the chunk completed before it, and poisons the assembler
    (framing is lost): every later ``feed`` raises again; close the
    connection.
    """

    __slots__ = (
        "max_frame_bytes", "max_header_bytes", "bytes_in", "frames_out",
        "_kept", "_headers", "_need", "_broken",
    )

    def __init__(
        self,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
    ):
        if max_frame_bytes < 0 or max_header_bytes <= 0:
            raise ValueError("frame/header ceilings must be positive")
        self.max_frame_bytes = max_frame_bytes
        self.max_header_bytes = max_header_bytes
        #: the open frame: its header tail while ``_headers`` is None, from
        #: then on the body bytes so far, ``_need`` more to come
        self._kept = bytearray()
        self._headers: HeaderMap | None = None
        self._need = 0
        self._broken: str | None = None
        # observability (the gateway mirrors these into metrics)
        self.bytes_in = 0
        self.frames_out = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes kept that do not yet form a complete frame."""
        return len(self._kept)

    def feed(self, chunk: bytes | bytearray | memoryview) -> list[MimeMessage]:
        """Consume ``chunk``; return every message it completed (maybe none)."""
        if self._broken is not None:
            raise FrameError(self._broken)
        out: list[MimeMessage] = []
        try:
            with memoryview(chunk) as view:
                self._consume(view, len(view), out)
        except MimeError as exc:
            self._broken = str(exc)  # not ``exc``: its traceback holds the view
            raise FrameError(self._broken, out) from None
        return out

    def _consume(self, view: memoryview, n: int, out: list[MimeMessage]) -> None:
        self.bytes_in += n
        pos = 0
        while True:
            if self._headers is None:
                pos = self._take_head(view, pos) if pos < n else -1
                if pos < 0:
                    return  # nothing left, or a header block still open
            need = self._need
            if n - pos < need:
                self._kept += view[pos:]
                self._need = need - (n - pos)
                return
            if self._kept:
                self._kept += view[pos : pos + need]
                payload = bytes(self._kept)
                self._kept.clear()
            else:
                payload = view[pos : pos + need].tobytes()  # the one copy
            pos += need
            headers, self._headers = self._headers, None
            out.append(_build_message(headers, payload))
            self.frames_out += 1

    def _take_head(self, view: memoryview, pos: int) -> int:
        """Parse the header block that starts, or continues, at ``pos``: the
        offset of the first body byte, or -1 with the unterminated tail kept."""
        limit, head, start = self.max_header_bytes, self._kept, pos
        if head and head[-1] == 0x0A and view[pos] == 0x0A:
            head.pop()  # the terminator straddles the chunks
            end, pos = pos, pos + 1
        else:
            found = _TERMINATOR_RE.search(view, pos, pos + limit + 2 - len(head))
            if found is None:
                head += view[pos : pos + limit + 1 - len(head)]
                if len(head) > limit:
                    raise MimeError(f"header block exceeds {limit} bytes")
                return -1
            end, pos = found.start(), found.end()
        raw = view[start:end]
        if head:
            head += raw
            raw = bytes(head)
            head.clear()
        # the declared length is validated *now*, before a byte is kept against it
        self._headers, self._need = _parse_head(raw, self.max_frame_bytes)
        return pos


def _parse_multipart(payload: bytes, boundary: str) -> list[MimeMessage]:
    delimiter = f"--{boundary}\n".encode()
    closing = f"--{boundary}--".encode()
    parts: list[MimeMessage] = []
    pos = 0
    while pos < len(payload):
        if payload.startswith(closing, pos):
            trailing = payload[pos + len(closing):]
            if trailing:
                raise MimeError("bytes after the closing multipart boundary")
            return parts
        if not payload.startswith(delimiter, pos):
            raise MimeError("malformed multipart: expected a boundary delimiter")
        pos += len(delimiter)
        if pos + 4 > len(payload):
            raise MimeError("truncated multipart part length")
        (part_len,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        if pos + part_len > len(payload):
            raise MimeError("truncated multipart part")
        parts.append(parse_message(payload[pos : pos + part_len]))
        pos += part_len
    raise MimeError("multipart payload missing its closing boundary")
