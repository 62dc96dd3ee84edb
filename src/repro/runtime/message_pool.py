"""Centralised message storage — pass-by-reference buffer management.

Section 6.7: "the system maintains all incoming messages by storing them in
a message pool and passing them between different streamlets by their
associated message identifier."  Channels therefore carry small string ids;
the payload is touched only by the streamlet that transforms it.

``PassMode.VALUE`` exists purely as the Figure 7-3 baseline: every
checkout deep-copies the message, reproducing the copying overhead the
thesis measures against.

A pool takes no lock: it belongs to one stream and is touched only by
that stream's owner (:mod:`repro.runtime.stream`).  The id generator
behind it keeps its own, since it may be shared.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import MessagePoolError
from repro.mime.message import MimeMessage
from repro.util.ids import IdGenerator


class PassMode(Enum):
    """Buffer management: pass-by-REFERENCE (section 6.7) or the pass-by-VALUE baseline."""
    REFERENCE = "reference"
    VALUE = "value"


class MessagePool:
    """id → message store with attach/release accounting.

    ``gauge`` (a :class:`repro.telemetry.Gauge`, optional) tracks the
    resident-message count so exports show pool pressure live.
    """

    def __init__(self, mode: PassMode = PassMode.REFERENCE, *, gauge=None):
        self._mode = mode
        self._messages: dict[str, MimeMessage] = {}
        self._ids = IdGenerator("msg")
        self._gauge = gauge
        # observability
        self.admitted = 0
        self.released = 0
        self.copies = 0

    @property
    def mode(self) -> PassMode:
        return self._mode

    def admit(self, message: MimeMessage) -> str:
        """Store a new message; returns its pool id."""
        msg_id = self._ids.next()
        self._messages[msg_id] = message
        self.admitted += 1
        if self._gauge is not None:
            self._gauge.value = float(len(self._messages))
        return msg_id

    def checkout(self, msg_id: str) -> MimeMessage:
        """The message a streamlet should process for ``msg_id``.

        Reference mode hands out the stored object itself (mutation in
        place is the contract).  Value mode deep-copies — the Figure 7-3
        baseline — and re-binds the id to the copy so downstream hops see
        the transformed payload.
        """
        try:
            message = self._messages[msg_id]
        except KeyError:
            raise MessagePoolError(f"unknown message id {msg_id!r}") from None
        if self._mode is PassMode.REFERENCE:
            return message
        copy = message.clone()
        self._messages[msg_id] = copy
        self.copies += 1
        return copy

    def peek(self, msg_id: str) -> MimeMessage:
        """Read-only access without copy (both modes)."""
        try:
            return self._messages[msg_id]
        except KeyError:
            raise MessagePoolError(f"unknown message id {msg_id!r}") from None

    def size_of(self, msg_id: str) -> int:
        """Wire size of the stored message (for queue byte accounting)."""
        return self.peek(msg_id).total_size()

    def rebind(self, msg_id: str, message: MimeMessage) -> None:
        """Point an existing id at a replacement message object.

        Used when a streamlet returns a *new* object rather than mutating
        in place — the id (what channels carry) stays stable.
        """
        if msg_id not in self._messages:
            raise MessagePoolError(f"unknown message id {msg_id!r}")
        self._messages[msg_id] = message

    def release(self, msg_id: str) -> MimeMessage:
        """Remove a message from the pool (delivery or drop)."""
        try:
            message = self._messages.pop(msg_id)
        except KeyError:
            raise MessagePoolError(
                f"double release or unknown message id {msg_id!r}"
            ) from None
        self.released += 1
        if self._gauge is not None:
            self._gauge.value = float(len(self._messages))
        return message

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._messages
