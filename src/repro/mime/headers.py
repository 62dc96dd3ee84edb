"""MIME header fields, including MobiGATE's extension fields.

The thesis uses two MIME-extension headers:

* ``Content-Session`` (section 4.4.3) — identifies which stream instance a
  message belongs to, enabling streamlet sharing across streams;
* a peer-streamlet field (section 6.5) — each server-side streamlet that
  needs reverse processing pushes its peer id; the client pops ids in LIFO
  order so transformations are undone inside-out.  We name it
  ``X-MobiGATE-Peers``.

This reproduction adds one more extension field, ``Content-Trace``: the
telemetry subsystem's trace context (``trace-id;parent-span-id``).  It
rides the message through every hop and across the wire, so the client's
peer spans join the same trace the server started (see
``docs/observability.md``).

Header names are case-insensitive; insertion order is preserved so
``format()`` round-trips.

A message crosses many streamlets that read its envelope and few that
change it, so :class:`HeaderMap` derives each *view* of the raw fields —
session base, epoch, parsed media type, the formatted block and its
UTF-8 encoding — once and keeps it until the next mutation (see the
class docstring for the invalidation rule).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import HeaderError
from repro.mime.mediatype import MediaType

CONTENT_TYPE = "Content-Type"
CONTENT_SESSION = "Content-Session"
CONTENT_LENGTH = "Content-Length"
PEER_STACK = "X-MobiGATE-Peers"
CONTENT_TRACE = "Content-Trace"

_PEER_SEPARATOR = ","
_TRACE_SEPARATOR = ";"
_SESSION_PARAM_SEPARATOR = ";"
_EPOCH_PARAM = "epoch="
_SESSION_KEY = CONTENT_SESSION.lower()


class HeaderMap:
    """An ordered, case-insensitive multimap restricted to single values.

    MobiGATE messages never need repeated fields, so ``set`` replaces; this
    keeps the routing code simple and the wire form unambiguous.

    **The memo.**  ``_fields`` is the only state; :attr:`session`,
    :attr:`epoch`, :attr:`content_type`, :meth:`format` and
    :meth:`encoded` are views derived from it and kept in ``_memo`` until
    a mutation.  Every mutator (``set``, ``remove`` and whatever is built
    on them: the typed setters, ``set_epoch``, ``set_trace``,
    ``push_peer``, ``pop_peer``) writes the field *first* and then
    **replaces** the memo with a fresh dict — never clears it.  A reader
    takes its reference to the memo before it looks at the fields, so one
    that races a writer can only file a stale value in the dict the writer
    is discarding: once a mutator has returned, no view can return what it
    was before.  The fresh dict is empty but for one entry: ``set`` of a
    field other than ``Content-Session`` carries a derived ``session``
    over, since that write cannot have changed it (writers are never
    concurrent with each other — a message has one holder at a time).
    ``copy()`` starts its copy with an empty memo.
    """

    __slots__ = ("_fields", "_memo")

    def __init__(self, initial: dict[str, str] | None = None):
        # canonical-lower name -> (display name, value)
        self._fields: dict[str, tuple[str, str]] = {}
        # view name -> derived value; replaced, never cleared (see above)
        self._memo: dict[str, object] = {}
        if initial:
            for name, value in initial.items():
                self.set(name, value)

    # -- core mapping ----------------------------------------------------------

    def set(self, name: str, value: str) -> None:
        """Set (replacing) a field; names/values are validated.

        Setting the exact pair already stored — a redirector re-stamping
        an unchanged ``Content-Length`` — changes nothing and returns at
        once: the pair was validated when it was stored.
        """
        key = name.lower()
        stored = self._fields.get(key)
        if stored is not None and value.__class__ is str and stored == (name, value):
            return
        stripped = name.strip()
        if stripped != name:
            name, key = stripped, stripped.lower()
        if not name or ":" in name or "\r" in name or "\n" in name:
            raise HeaderError(f"illegal header name {name!r}")
        value = str(value).strip()
        if "\n" in value or "\r" in value:
            raise HeaderError(f"header value may not contain newlines: {value!r}")
        self._fields[key] = (name, value)
        memo = self._memo
        if key != _SESSION_KEY and "session" in memo:
            # a write to another field cannot have changed it, and a message
            # is routed by its session before it is stamped and admitted
            self._memo = {"session": memo["session"]}
        else:
            self._memo = {}

    def get(self, name: str, default: str | None = None) -> str | None:
        """The field value, or ``default`` when absent."""
        entry = self._fields.get(name.lower())
        return entry[1] if entry else default

    def require(self, name: str) -> str:
        """The field value; HeaderError when absent."""
        value = self.get(name)
        if value is None:
            raise HeaderError(f"missing required header {name!r}")
        return value

    def remove(self, name: str) -> bool:
        """Delete a field; returns False if it was absent."""
        if self._fields.pop(name.lower(), None) is None:
            return False
        self._memo = {}
        return True

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._fields

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._fields.values())  # the stored (display, value) pairs

    def copy(self) -> "HeaderMap":
        """Independent copy of the header map (its memo starts empty)."""
        clone = HeaderMap()
        clone._fields = dict(self._fields)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeaderMap):
            return NotImplemented
        mine = {k: v for k, (_, v) in self._fields.items()}
        theirs = {k: v for k, (_, v) in other._fields.items()}
        return mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}={v!r}" for n, v in self)
        return f"HeaderMap({inner})"

    # -- typed accessors ---------------------------------------------------------

    @property
    def content_type(self) -> MediaType | None:
        memo = self._memo
        if "content_type" in memo:
            return memo["content_type"]
        raw = self.get(CONTENT_TYPE)
        memo["content_type"] = parsed = MediaType.parse(raw) if raw else None
        return parsed

    @content_type.setter
    def content_type(self, value: MediaType | str) -> None:
        self.set(CONTENT_TYPE, str(value))

    @property
    def session(self) -> str | None:
        memo = self._memo
        if "session" in memo:
            return memo["session"]
        raw = self.get(CONTENT_SESSION)
        base = None
        if raw is not None:
            base = raw.partition(_SESSION_PARAM_SEPARATOR)[0].strip() or None
        memo["session"] = base
        return base

    @session.setter
    def session(self, value: str) -> None:
        self.set(CONTENT_SESSION, value)

    # -- stream epoch (reconfiguration extension) -----------------------------------
    #
    # Transactional reconfiguration (``repro.runtime.reconfig``) versions a
    # live composition with a monotonically increasing *epoch*.  The epoch
    # rides in-band as a parameter on ``Content-Session`` —
    # ``Content-Session: sess-42;epoch=3`` — so the MobiGATE client can
    # swap its peer-streamlet chain at exactly the right message boundary.

    @property
    def epoch(self) -> int | None:
        """The stream epoch carried on ``Content-Session``, or None."""
        memo = self._memo
        if "epoch" in memo:
            return memo["epoch"]
        epoch = None
        params = (self.get(CONTENT_SESSION) or "").partition(_SESSION_PARAM_SEPARATOR)[2]
        for param in params.split(_SESSION_PARAM_SEPARATOR):
            param = param.strip()
            if param.startswith(_EPOCH_PARAM):
                value = param[len(_EPOCH_PARAM):]
                if not value.isdigit():
                    raise HeaderError(f"illegal epoch parameter {param!r}")
                epoch = int(value)
                break
        memo["epoch"] = epoch
        return epoch

    def set_epoch(self, epoch: int) -> None:
        """Stamp (replacing) the epoch parameter on ``Content-Session``."""
        if epoch < 0:
            raise HeaderError(f"epoch must be >= 0, got {epoch}")
        raw = self.get(CONTENT_SESSION)
        if raw is None or not raw.strip():
            raise HeaderError("cannot stamp an epoch without a Content-Session")
        base, _, _params = raw.partition(_SESSION_PARAM_SEPARATOR)
        self.set(CONTENT_SESSION, f"{base.strip()}{_SESSION_PARAM_SEPARATOR}{_EPOCH_PARAM}{epoch}")

    # -- trace context (telemetry extension) ----------------------------------------

    def set_trace(self, trace_id: str, parent_id: str | None = None) -> None:
        """Record the telemetry trace context (``trace-id;parent-span``)."""
        if not trace_id or _TRACE_SEPARATOR in trace_id:
            raise HeaderError(f"illegal trace id {trace_id!r}")
        if parent_id:
            self.set(CONTENT_TRACE, f"{trace_id}{_TRACE_SEPARATOR}{parent_id}")
        else:
            self.set(CONTENT_TRACE, trace_id)

    @property
    def trace_context(self) -> tuple[str, str | None] | None:
        """``(trace_id, parent_span_id)`` from ``Content-Trace``, or None."""
        raw = self.get(CONTENT_TRACE)
        if raw is None:
            return None
        trace_id, _, parent = raw.partition(_TRACE_SEPARATOR)
        return trace_id, parent or None

    # -- peer streamlet stack (section 6.5) ---------------------------------------

    def push_peer(self, peer_id: str) -> None:
        """Record that ``peer_id`` must reverse-process this message."""
        peer_id = peer_id.strip()
        if not peer_id or _PEER_SEPARATOR in peer_id:
            raise HeaderError(f"illegal peer id {peer_id!r}")
        current = self.get(PEER_STACK)
        self.set(PEER_STACK, f"{current}{_PEER_SEPARATOR}{peer_id}" if current else peer_id)

    def pop_peer(self) -> str | None:
        """Remove and return the most recently pushed peer id."""
        current = self.get(PEER_STACK)
        if not current:
            return None
        head, sep, last = current.rpartition(_PEER_SEPARATOR)
        if sep:
            self.set(PEER_STACK, head)
        else:
            self.remove(PEER_STACK)
        return last

    def peer_stack(self) -> list[str]:
        """The full stack, bottom first (LIFO processing order = reversed)."""
        current = self.get(PEER_STACK)
        return current.split(_PEER_SEPARATOR) if current else []

    # -- wire form ----------------------------------------------------------------

    def format(self) -> str:
        """Serialise as ``Name: value`` lines (no trailing blank line)."""
        memo = self._memo
        block = memo.get("block")
        if block is None:
            memo["block"] = block = "\n".join(
                [f"{name}: {value}" for name, value in self._fields.values()]
            )
        return block

    def encoded(self) -> bytes:
        """The :meth:`format` block as UTF-8: a frame's head, and its size."""
        memo = self._memo
        wire = memo.get("wire")
        if wire is None:
            memo["wire"] = wire = self.format().encode("utf-8")
        return wire

    @classmethod
    def parse(cls, text: str) -> "HeaderMap":
        headers = cls()
        # lines are '\n'-separated by definition; str.splitlines would also
        # split on Unicode breaks (NEL, LS, PS) that values may contain
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HeaderError(f"header line {lineno} has no colon: {line!r}")
            headers.set(name, value)  # set() strips both sides
        return headers
