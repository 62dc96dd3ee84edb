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
  Plain ``bytes``/``str`` payloads need no marker.

``parse_message(serialize_message(m))`` reproduces the message up to
payload identity (structured payloads compare equal, not identical).

``Content-Length`` is *validated* before it is trusted: a missing,
non-numeric, negative, or oversized declaration raises
:class:`~repro.errors.MimeError` instead of hanging a reader or
over-allocating a buffer.  The ceiling defaults to
:data:`DEFAULT_MAX_FRAME_BYTES` and is configurable per call (and per
:class:`FrameAssembler`), because a gateway accepting frames off a public
socket wants a much tighter bound than an in-process round-trip test.

:class:`FrameAssembler` is the streaming face of the format: feed it
arbitrary byte chunks as they arrive off a socket and it yields each
complete message exactly once, however the chunk boundaries fall.  It
never copies a body until the whole frame is present, and it validates
the declared length as soon as the header block is complete — a malformed
frame is rejected before a single payload byte is buffered beyond the
ceiling.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs.imagefmt import ImageRaster
from repro.codecs.psdoc import PsDocument
from repro.errors import MimeError
from repro.mime.headers import CONTENT_LENGTH, CONTENT_TYPE, HeaderMap
from repro.mime.mediatype import MediaType
from repro.mime.message import MimeMessage
from repro.util.ids import IdGenerator

PAYLOAD_KIND = "X-MobiGATE-Payload"
_BOUNDARY_IDS = IdGenerator("mgbd")

_HEADER_TERMINATOR = b"\n\n"

#: default ceiling on one frame's declared payload (16 MiB): large enough
#: for every workload in the repo, small enough that a hostile
#: Content-Length cannot make a reader buffer gigabytes
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: default ceiling on the header block of one frame (64 KiB)
DEFAULT_MAX_HEADER_BYTES = 64 * 1024


def _validated_length(headers: HeaderMap, max_length: int) -> int:
    """The frame's Content-Length, or MimeError if it cannot be trusted."""
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
    return length


# ---------------------------------------------------------------------------
# structured payload codecs
# ---------------------------------------------------------------------------


def _encode_raster(raster: ImageRaster) -> bytes:
    height, width, _ = raster.pixels.shape
    return struct.pack("<HH", width, height) + raster.pixels.tobytes()


def _decode_raster(data: bytes) -> ImageRaster:
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
    return PsDocument.parse(data.decode("utf-8"))


_CODECS = {
    "raster": (_encode_raster, _decode_raster),
    "psdoc": (_encode_psdoc, _decode_psdoc),
}


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def serialize_message(message: MimeMessage) -> bytes:
    """Render a message (and its parts, recursively) to wire bytes.

    The envelope is stamped on a copy — the boundary for a multipart
    body, the payload kind, ``Content-Length`` — unless it already says
    all of that, in which case no copy is made and the header block comes
    off the header map's memo.
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
    elif isinstance(body, ImageRaster):
        payload, kind = _encode_raster(body), "raster"
    elif isinstance(body, PsDocument):
        payload, kind = _encode_psdoc(body), "psdoc"
    elif isinstance(body, str):
        payload, kind = body.encode("utf-8"), "text"
    elif body is None:
        payload = b""
    else:
        raise MimeError(f"cannot serialise payload of type {type(body).__name__}")

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
    return b"".join((headers.encoded(), _HEADER_TERMINATOR, payload))


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
    headers = HeaderMap.parse(data[:split_at].decode("utf-8"))
    length = _validated_length(headers, max_frame_bytes)
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
            body = payload.decode("utf-8")
            headers.remove(PAYLOAD_KIND)
        elif kind in _CODECS:
            body = _CODECS[kind][1](payload)
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

    The gateway's data plane reads whatever the socket hands it; frame
    boundaries land anywhere.  ``feed`` buffers the chunk and yields every
    message that became complete, in order — the concatenation of all
    ``feed`` results equals parsing the concatenated stream whole.

    Discipline for untrusted input:

    * the header block is bounded (``max_header_bytes``); a stream that
      never produces a terminator is rejected instead of buffered forever;
    * ``Content-Length`` is validated the moment the header block is
      complete (see :func:`parse_message`), *before* payload bytes
      accumulate against it;
    * the payload is sliced out through one :class:`memoryview` copy when
      the frame completes — no per-chunk body copies, no quadratic
      re-concatenation.

    A raised :class:`MimeError` poisons the assembler (framing is lost);
    the caller should close the connection and discard it.
    """

    __slots__ = (
        "max_frame_bytes",
        "max_header_bytes",
        "_buf",
        "_scan_from",
        "_headers",
        "_payload_at",
        "_need",
        "bytes_in",
        "frames_out",
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
        self._buf = bytearray()
        self._scan_from = 0
        self._headers: HeaderMap | None = None
        self._payload_at = 0
        self._need = 0
        # observability (the gateway mirrors these into metrics)
        self.bytes_in = 0
        self.frames_out = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buf)

    def feed(self, chunk: bytes | bytearray | memoryview) -> list[MimeMessage]:
        """Buffer ``chunk``; return every message it completed (maybe none)."""
        self._buf += chunk
        self.bytes_in += len(chunk)
        out: list[MimeMessage] = []
        while True:
            message = self._next_frame()
            if message is None:
                return out
            out.append(message)

    def _next_frame(self) -> MimeMessage | None:
        buf = self._buf
        if self._headers is None:
            split_at = buf.find(_HEADER_TERMINATOR, self._scan_from)
            if split_at < 0:
                if len(buf) > self.max_header_bytes:
                    raise MimeError(
                        f"header block exceeds {self.max_header_bytes} bytes "
                        "with no terminator"
                    )
                # the terminator may straddle the next chunk: back up one byte
                self._scan_from = max(0, len(buf) - 1)
                return None
            if split_at > self.max_header_bytes:
                raise MimeError(f"header block exceeds {self.max_header_bytes} bytes")
            try:
                text = bytes(memoryview(buf)[:split_at]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MimeError(f"header block is not UTF-8: {exc}") from None
            headers = HeaderMap.parse(text)
            # validate the declared length *now*, before buffering against it
            self._need = _validated_length(headers, self.max_frame_bytes)
            self._headers = headers
            self._payload_at = split_at + len(_HEADER_TERMINATOR)
        end = self._payload_at + self._need
        if len(buf) < end:
            return None
        # one copy, exactly the body, via a zero-copy view of the buffer
        payload = bytes(memoryview(buf)[self._payload_at:end])
        headers = self._headers
        self._headers = None
        del buf[:end]
        self._scan_from = 0
        message = _build_message(headers, payload)
        self.frames_out += 1
        return message


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
