"""Media types: parsing, formatting, and structural matching.

The thesis adopts a simplified MIME ``Content-Type`` grammar (Figure 4-2)::

    type-declaration ::= type "/" subtype *( ";" parameter )
    type             ::= token | "*"
    subtype          ::= token | "*"
    parameter        ::= attribute "=" value

A bare top-level name such as ``text`` (used in the thesis to mean "any
text") is accepted and normalised to ``text/*``.  Structural matching
(wildcards) is independent of the registry-driven hierarchy in
:mod:`repro.mime.registry`; the compatibility check of section 4.4.1
combines both.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering

from repro.errors import MediaTypeParseError

# RFC 2045 token: printable ASCII except tspecials, space, and CTLs.
_TOKEN_RE = re.compile(r"^[A-Za-z0-9!#$%&'*+.^_`|~-]+$")

_PARAM_RE = re.compile(
    r"""\s*;\s*
        (?P<attr>[A-Za-z0-9!#$%&'*+.^_`|~-]+)
        \s*=\s*
        (?P<value>"[^"]*"|[A-Za-z0-9!#$%&'*+.^_`|~-]+)
    """,
    re.VERBOSE,
)


def _is_token(text: str) -> bool:
    return bool(_TOKEN_RE.match(text))


@lru_cache(maxsize=4096)
def _parse_cached(cls: type, text: str) -> "MediaType":
    """The uncached grammar walk behind :meth:`MediaType.parse`.

    Keyed on the constructing class so a subclass never receives a
    memoized base-class instance.  Parse *errors* are never cached —
    ``lru_cache`` re-invokes on every raising call.
    """
    head, sep, rest = text.partition(";")
    head = head.strip()
    if "/" in head:
        maintype, _, subtype = head.partition("/")
        if "/" in subtype:
            raise MediaTypeParseError(f"too many '/' in {text!r}")
        if not maintype.strip() or not subtype.strip():
            raise MediaTypeParseError(f"missing type or subtype in {text!r}")
    else:
        maintype, subtype = head, "*"
    params: dict[str, str] = {}
    if sep:
        remainder = ";" + rest
        pos = 0
        while pos < len(remainder):
            match = _PARAM_RE.match(remainder, pos)
            if not match:
                raise MediaTypeParseError(f"bad parameter syntax in {text!r}")
            value = match.group("value")
            if value.startswith('"'):
                value = value[1:-1]
            params[match.group("attr")] = value
            pos = match.end()
    return cls(maintype, subtype, params)


@total_ordering
class MediaType:
    """An immutable ``type/subtype;param=value`` media type.

    Comparison (``<``) is purely lexicographic and exists only so that media
    types can live in sorted containers; *specialisation* is expressed by
    :meth:`matches` (structural, wildcard-aware) and by the registry.
    """

    __slots__ = ("_maintype", "_subtype", "_params")

    def __init__(self, maintype: str, subtype: str = "*", params: dict[str, str] | None = None):
        maintype = maintype.strip().lower()
        subtype = subtype.strip().lower()
        if maintype != "*" and not _is_token(maintype):
            raise MediaTypeParseError(f"illegal main type {maintype!r}")
        if subtype != "*" and not _is_token(subtype):
            raise MediaTypeParseError(f"illegal subtype {subtype!r}")
        if maintype == "*" and subtype != "*":
            raise MediaTypeParseError(f"'*/{subtype}' is not a valid media type")
        self._maintype = maintype
        self._subtype = subtype
        items = tuple(sorted((k.lower(), v) for k, v in (params or {}).items()))
        for key, _ in items:
            if not _is_token(key):
                raise MediaTypeParseError(f"illegal parameter name {key!r}")
        self._params = items

    # -- constructors -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "MediaType":
        """Parse a media-type string; a bare name becomes ``name/*``.

        Results are memoized per (class, string): headers re-parse their
        raw ``Content-Type`` on every typed access, which makes this the
        hottest single call on a streamlet chain — and since instances
        are immutable, handing the same object back is free sharing, not
        aliasing.
        """
        if not isinstance(text, str) or not text.strip():
            raise MediaTypeParseError(f"empty media type: {text!r}")
        return _parse_cached(cls, text.strip())

    # -- accessors -----------------------------------------------------------

    @property
    def maintype(self) -> str:
        return self._maintype

    @property
    def subtype(self) -> str:
        return self._subtype

    @property
    def params(self) -> dict[str, str]:
        return dict(self._params)

    @property
    def essence(self) -> str:
        """``type/subtype`` without parameters."""
        return f"{self._maintype}/{self._subtype}"

    def param(self, name: str, default: str | None = None) -> str | None:
        """The parameter's value, or ``default``."""
        name = name.lower()
        for key, value in self._params:
            if key == name:
                return value
        return default

    def with_params(self, **params: str) -> "MediaType":
        """A copy with the given parameters merged in."""
        merged = dict(self._params)
        merged.update({k.lower(): v for k, v in params.items()})
        return MediaType(self._maintype, self._subtype, merged)

    def without_params(self) -> "MediaType":
        """The bare ``type/subtype`` without parameters."""
        return MediaType(self._maintype, self._subtype)

    # -- structure -----------------------------------------------------------

    def matches(self, pattern: "MediaType") -> bool:
        """True if this (concrete or not) type falls under ``pattern``.

        ``text/richtext`` matches ``text/*`` and ``*/*``; parameters on the
        pattern must be present with equal values on ``self``.
        """
        if pattern._maintype != "*" and pattern._maintype != self._maintype:
            return False
        if pattern._subtype != "*" and pattern._subtype != self._subtype:
            return False
        mine = dict(self._params)
        return all(mine.get(k) == v for k, v in pattern._params)

    # -- dunder --------------------------------------------------------------

    def __str__(self) -> str:
        parts = [self.essence]
        parts.extend(f"{k}={v}" for k, v in self._params)
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"MediaType({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MediaType):
            return NotImplemented
        return (
            self._maintype == other._maintype
            and self._subtype == other._subtype
            and self._params == other._params
        )

    def __lt__(self, other: "MediaType") -> bool:
        if not isinstance(other, MediaType):
            return NotImplemented
        return (self._maintype, self._subtype, self._params) < (
            other._maintype,
            other._subtype,
            other._params,
        )

    def __hash__(self) -> int:
        return hash((self._maintype, self._subtype, self._params))


# Frequently used types, mirroring Figure 4-1 of the thesis.
ANY = MediaType("*", "*")
TEXT = MediaType("text", "*")
TEXT_PLAIN = MediaType("text", "plain")
TEXT_RICHTEXT = MediaType("text", "richtext")
TEXT_HTML = MediaType("text", "html")
IMAGE = MediaType("image", "*")
IMAGE_GIF = MediaType("image", "gif")
IMAGE_JPEG = MediaType("image", "jpeg")
AUDIO = MediaType("audio", "*")
VIDEO = MediaType("video", "*")
APPLICATION = MediaType("application", "*")
APPLICATION_POSTSCRIPT = MediaType("application", "postscript")
APPLICATION_OCTET = MediaType("application", "octet-stream")
MULTIPART_MIXED = MediaType("multipart", "mixed")
