"""The message unit exchanged between streamlets.

A :class:`MimeMessage` is a header map plus a payload.  Payloads may be

* ``bytes`` (the common case: compressed text, encoded images),
* ``str`` (convenience; measured as UTF-8),
* ``numpy.ndarray`` (decoded raster images mid-pipeline),
* any object implementing the :class:`Payload` protocol
  (``size_bytes()`` + ``clone()``) — e.g. the PostScript-like document
  model, or
* a list of :class:`MimeMessage` parts for ``multipart/mixed``.

``size_bytes`` feeds the bandwidth accounting of the network emulator;
``clone`` implements the deep copy that the pass-by-*value* baseline of
Figure 7-3 pays for at every hop (the pass-by-*reference* runtime never
calls it on the hot path).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import MimeError
from repro.mime.headers import (
    CONTENT_LENGTH,
    CONTENT_SESSION,
    CONTENT_TYPE,
    HeaderMap,
)
from repro.mime.mediatype import MULTIPART_MIXED, MediaType


@runtime_checkable
class Payload(Protocol):
    """Structured payloads must report size and support deep copy."""

    def size_bytes(self) -> int:
        """Payload size in bytes."""
        ...

    def clone(self) -> "Payload":
        """Deep copy of the payload."""
        ...


def payload_size(body: object) -> int:
    """Size in bytes of any supported payload kind."""
    if body is None:
        return 0
    if isinstance(body, bytes | bytearray | memoryview):
        return len(body)
    if isinstance(body, str):
        return len(body.encode("utf-8"))
    if isinstance(body, np.ndarray):
        return int(body.nbytes)
    if isinstance(body, list):
        return sum(part.total_size() for part in body)
    if isinstance(body, Payload):
        return body.size_bytes()
    raise MimeError(f"unsupported payload type {type(body).__name__}")


def clone_payload(body: object) -> object:
    """Deep-copy any supported payload kind."""
    if body is None or isinstance(body, bytes | str):
        return body  # immutable
    if isinstance(body, bytearray):
        return bytearray(body)
    if isinstance(body, memoryview):
        return bytes(body)
    if isinstance(body, np.ndarray):
        return body.copy()
    if isinstance(body, list):
        return [part.clone() for part in body]
    if isinstance(body, Payload):
        return body.clone()
    raise MimeError(f"unsupported payload type {type(body).__name__}")


class MimeMessage:
    """Headers + payload; the unit that flows through channels.

    Messages are *mutable in place* by design: the pass-by-reference runtime
    hands the same object to consecutive streamlets, each of which swaps the
    payload and rewrites ``Content-Type``.
    """

    __slots__ = ("headers", "body")

    def __init__(
        self,
        content_type: MediaType | str,
        body: object = b"",
        *,
        session: str | None = None,
        headers: HeaderMap | None = None,
    ):
        self.headers = headers.copy() if headers is not None else HeaderMap()
        self.headers.content_type = (
            content_type if isinstance(content_type, MediaType) else MediaType.parse(content_type)
        )
        if session is not None:
            self.headers.session = session
        payload_size(body)  # validate kind eagerly
        self.body = body

    # -- typed access -------------------------------------------------------------

    @property
    def content_type(self) -> MediaType:
        ct = self.headers.content_type
        if ct is None:
            raise MimeError("message lost its Content-Type header")
        return ct

    @content_type.setter
    def content_type(self, value: MediaType | str) -> None:
        self.headers.content_type = value

    @property
    def session(self) -> str | None:
        return self.headers.session

    def set_body(self, body: object, content_type: MediaType | str | None = None) -> None:
        """Replace the payload (and optionally retype) in place."""
        payload_size(body)
        self.body = body
        if content_type is not None:
            self.headers.content_type = content_type

    # -- size accounting -----------------------------------------------------------

    def body_size(self) -> int:
        """Payload size in bytes."""
        return payload_size(self.body)

    def header_size(self) -> int:
        """UTF-8 size of the serialised header block."""
        return len(self.headers.encoded())

    def total_size(self) -> int:
        """Bytes on the wire: headers + blank line + body.

        What every queue post is sized by.  The header share is read off
        the :class:`HeaderMap` memo, so sizing a message whose envelope
        no streamlet has touched since the last post formats nothing.
        """
        return len(self.headers.encoded()) + 2 + payload_size(self.body)

    # -- multipart (section 4.3 merge/switch streamlets) -----------------------------

    @property
    def is_multipart(self) -> bool:
        return isinstance(self.body, list)

    @property
    def parts(self) -> list["MimeMessage"]:
        if not self.is_multipart:
            raise MimeError(f"{self.content_type} message has no parts")
        return self.body  # type: ignore[return-value]

    @classmethod
    def multipart(
        cls, parts: list["MimeMessage"], *, session: str | None = None
    ) -> "MimeMessage":
        for part in parts:
            if not isinstance(part, MimeMessage):
                raise MimeError("multipart parts must be MimeMessage instances")
        return cls(MULTIPART_MIXED, list(parts), session=session)

    # -- copying -------------------------------------------------------------------

    def clone(self) -> "MimeMessage":
        """Deep copy: new headers, deep-copied payload."""
        copy = MimeMessage.__new__(MimeMessage)
        copy.headers = self.headers.copy()
        copy.body = clone_payload(self.body)
        return copy

    # -- misc -----------------------------------------------------------------------

    def stamp_length(self) -> None:
        """Record the current body size in ``Content-Length``."""
        self.headers.set(CONTENT_LENGTH, str(payload_size(self.body)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sess = self.headers.get(CONTENT_SESSION)
        return (
            f"MimeMessage({self.headers.get(CONTENT_TYPE)!r}, {self.body_size()}B"
            + (f", session={sess}" if sess else "")
            + ")"
        )
