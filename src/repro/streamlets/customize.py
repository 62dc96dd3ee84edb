"""The customizer: "maintenance of a per-user preferences database"
(section 1.2.1's fourth service-entity kind, TranSend-style).

A small :class:`PreferencesDB` substrate maps user ids to adaptation
preferences.  The customizer streamlet reads the message's
``X-MobiGATE-User`` header, looks the user up, and annotates the message
with per-user parameter headers that downstream distillation streamlets
honour (header values override the streamlet's default ``ctx.params``):

* ``X-MobiGATE-Quality``      — JPEG-like quality for image transcoding,
* ``X-MobiGATE-Factor``       — image down-sampling factor,
* ``X-MobiGATE-No-Compress``  — text compression opt-out.

Preferences also feed TranSend-style network profiles: a client's
vertical-handoff notification may update its record at runtime.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import RuntimeFault
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext

USER_HEADER = "X-MobiGATE-User"
QUALITY_HEADER = "X-MobiGATE-Quality"
FACTOR_HEADER = "X-MobiGATE-Factor"
NO_COMPRESS_HEADER = "X-MobiGATE-No-Compress"


@dataclass
class UserPreferences:
    """One user's adaptation profile."""

    quality: int | None = None          # image quality (1..100)
    downsample_factor: int | None = None
    compress_text: bool = True
    extras: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        """Range-check the profile; raises RuntimeFault on bad values."""
        if self.quality is not None and not 1 <= self.quality <= 100:
            raise RuntimeFault(f"quality must be in [1, 100], got {self.quality}")
        if self.downsample_factor is not None and self.downsample_factor < 1:
            raise RuntimeFault(
                f"downsample factor must be >= 1, got {self.downsample_factor}"
            )


class PreferencesDB:
    """Thread-safe user → preferences store."""

    def __init__(self, default: UserPreferences | None = None):
        self._default = default if default is not None else UserPreferences()
        self._default.validate()
        self._users: dict[str, UserPreferences] = {}
        self._lock = threading.Lock()

    def put(self, user: str, preferences: UserPreferences) -> None:
        """Store (validated) preferences for ``user``."""
        preferences.validate()
        with self._lock:
            self._users[user] = preferences

    def get(self, user: str | None) -> UserPreferences:
        """The user's preferences, or the default profile when unknown/None."""
        with self._lock:
            if user is None:
                return self._default
            return self._users.get(user, self._default)

    def forget(self, user: str) -> bool:
        """Drop a user's record; returns False if it was absent."""
        with self._lock:
            return self._users.pop(user, None) is not None

    def known_users(self) -> frozenset[str]:
        """Users with explicit records (the default is not listed)."""
        with self._lock:
            return frozenset(self._users)


CUSTOMIZER_DEF = ast.StreamletDef(
    name="customizer",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
    ),
    kind=ast.StreamletKind.STATEFUL,
    library="general/customizer",
    description="annotate messages with per-user adaptation preferences",
)


class Customizer(Streamlet):
    """Annotate messages from the preferences database.

    The database instance is injected via ``ctx.params['prefs']`` (set by
    the deployer with ``stream.set_param``); without one, every message
    gets the default profile.
    """

    cooperative = True

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        db: PreferencesDB | None = ctx.params.get("prefs")
        prefs = db.get(message.headers.get(USER_HEADER)) if db else UserPreferences()
        if prefs.quality is not None:
            message.headers.set(QUALITY_HEADER, str(prefs.quality))
        if prefs.downsample_factor is not None:
            message.headers.set(FACTOR_HEADER, str(prefs.downsample_factor))
        if not prefs.compress_text:
            message.headers.set(NO_COMPRESS_HEADER, "1")
        for name, value in prefs.extras.items():
            message.headers.set(name, value)
        return [("po", message)]


def header_param(message: MimeMessage, header: str, ctx_value: object) -> object:
    """Per-message header override for a streamlet parameter."""
    raw = message.headers.get(header)
    return raw if raw is not None else ctx_value
