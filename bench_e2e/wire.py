"""The load generator's own wire code: a framer and an incremental parser.

Deliberately independent of ``repro.mime.wire``: the verifier must be an
oracle the system under test cannot move, and a later change to the
gateway's serialiser must not change the load it is measured with.  The
format is the one the gateway speaks on its data plane: ``Name: value``
header lines separated by ``\\n``, a blank line, then exactly
``Content-Length`` body bytes.
"""

from __future__ import annotations

SEQ_BYTES = 8


def frame_head(session: str, body_length: int) -> bytes:
    """The constant header block (terminator included) of one session's frames."""
    return (
        "Content-Type: application/octet-stream\n"
        f"Content-Session: {session}\n"
        f"Content-Length: {body_length}\n\n"
    ).encode("ascii")


def frame(head: bytes, seq: int, tail: bytes) -> bytes:
    """One wire frame: head, 8-byte big-endian sequence number, payload tail."""
    return head + seq.to_bytes(SEQ_BYTES, "big") + tail


class Parser:
    """Reassemble frames from any chunking of the byte stream.

    ``feed`` returns ``(headers, body)`` per completed frame, header names
    lower-cased.  A frame without a usable ``Content-Length`` raises
    ``ValueError``: framing is lost and the connection is useless.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._head: dict[str, str] | None = None
        self._need = 0

    def feed(self, data: bytes) -> list[tuple[dict[str, str], bytes]]:
        buf = self._buf
        buf += data
        out = []
        while True:
            if self._head is None:
                end = buf.find(b"\n\n")
                if end < 0:
                    return out
                head = {}
                for line in bytes(buf[:end]).decode("utf-8").split("\n"):
                    name, _, value = line.partition(":")
                    head[name.strip().lower()] = value.strip()
                del buf[: end + 2]
                self._need = int(head.get("content-length", ""))
                self._head = head
            if len(buf) < self._need:
                return out
            body = bytes(buf[: self._need])
            del buf[: self._need]
            out.append((self._head, body))
            self._head = None
