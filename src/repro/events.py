"""The MobiGATE event taxonomy (Table 6-1) and the event catalog.

Client variations are classified into four categories, each with a fixed
set of predefined events.  MobiGATE events are deliberately *not*
parameterised — they carry no data and exist purely to trigger
reconfiguration (section 6.4).

The thesis lists its future work (§8.2.1) as "dynamic inclusion of new
event objects"; :class:`EventCatalog` implements that extension — stream
authors may register custom events into a category at runtime, and the MCL
compiler validates ``when`` clauses against the catalog.
"""

from __future__ import annotations

from enum import IntEnum

from repro.errors import EventError


class EventCategory(IntEnum):
    """The four axes along which clients vary (Table 6-1)."""

    SYSTEM_COMMAND = 0
    NETWORK_VARIATION = 1
    HARDWARE_VARIATION = 2
    SOFTWARE_VARIATION = 3


#: Table 6-1 — the predefined event list per category.
PREDEFINED_EVENTS: dict[str, EventCategory] = {
    # System Command
    "PAUSE": EventCategory.SYSTEM_COMMAND,
    "RESUME": EventCategory.SYSTEM_COMMAND,
    "END": EventCategory.SYSTEM_COMMAND,
    # Network Variation
    "LOW_BANDWIDTH": EventCategory.NETWORK_VARIATION,
    "HIGH_BANDWIDTH": EventCategory.NETWORK_VARIATION,
    "HIGH_LATENCY": EventCategory.NETWORK_VARIATION,
    "HIGH_LOSS": EventCategory.NETWORK_VARIATION,
    # Hardware Variation
    "LOW_ENERGY": EventCategory.HARDWARE_VARIATION,
    "LOW_GRAYS": EventCategory.HARDWARE_VARIATION,
    "SMALL_SCREEN": EventCategory.HARDWARE_VARIATION,
    "LOW_MEMORY": EventCategory.HARDWARE_VARIATION,
    # Software Variation
    "FORMAT_UNSUPPORTED": EventCategory.SOFTWARE_VARIATION,
    "CODEC_UNAVAILABLE": EventCategory.SOFTWARE_VARIATION,
    # "events may be caused ... by exceptions in streamlet executions" (§3.3.5)
    "STREAMLET_FAULT": EventCategory.SOFTWARE_VARIATION,
    # recovery-plane escalations (repro.faults): a message exhausted its
    # retry budget, or a repeatedly-failing optional streamlet was bypassed
    # — both scriptable via MCL ``when`` handlers
    "RETRY_EXHAUSTED": EventCategory.SOFTWARE_VARIATION,
    "STREAMLET_BYPASSED": EventCategory.SOFTWARE_VARIATION,
    # transactional-reconfiguration escalations (repro.runtime.reconfig):
    # a staged batch was rejected by validation, or a commit failed and
    # the prior topology was kept
    "RECONFIG_COMMITTED": EventCategory.SOFTWARE_VARIATION,
    "RECONFIG_REJECTED": EventCategory.SOFTWARE_VARIATION,
    "RECONFIG_ROLLED_BACK": EventCategory.SOFTWARE_VARIATION,
}

#: The stream description of Figure 4-8 writes ``LOW_GRAY`` where Table 6-1
#: says ``LOW_GRAYS``; we accept the thesis's own alias.
EVENT_ALIASES: dict[str, str] = {"LOW_GRAY": "LOW_GRAYS"}


class ContextEvent:
    """An unparameterised event object (Figure 6-5).

    Attributes mirror the thesis: ``event_id`` (the name), ``category``,
    and ``source`` — which stream application the event is scoped to, or
    ``None`` for a broadcast.
    """

    __slots__ = ("event_id", "category", "source")

    def __init__(self, event_id: str, category: EventCategory, source: str | None = None):
        self.event_id = event_id
        self.category = EventCategory(category)
        self.source = source

    def __repr__(self) -> str:
        scope = f", source={self.source}" if self.source else ""
        return f"ContextEvent({self.event_id}, {self.category.name}{scope})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextEvent):
            return NotImplemented
        return (
            self.event_id == other.event_id
            and self.category == other.category
            and self.source == other.source
        )

    def __hash__(self) -> int:
        return hash((self.event_id, self.category, self.source))


class EventCatalog:
    """The known event vocabulary, extensible at runtime (§8.2.1)."""

    def __init__(self, *, include_predefined: bool = True):
        self._events: dict[str, EventCategory] = (
            dict(PREDEFINED_EVENTS) if include_predefined else {}
        )

    def register(self, name: str, category: EventCategory) -> None:
        """Add a custom event; re-registration must not move categories."""
        name = self.canonical(name)
        if not name or not name.replace("_", "").isalnum():
            raise EventError(f"illegal event name {name!r}")
        existing = self._events.get(name)
        if existing is not None and existing != category:
            raise EventError(
                f"event {name} already registered in category {existing.name}"
            )
        self._events[name] = EventCategory(category)

    @staticmethod
    def canonical(name: str) -> str:
        name = name.strip().upper()
        return EVENT_ALIASES.get(name, name)

    def __contains__(self, name: str) -> bool:
        return self.canonical(name) in self._events

    def category_of(self, name: str) -> EventCategory:
        """The category of a (canonicalised) event name; EventError if unknown."""
        canonical = self.canonical(name)
        try:
            return self._events[canonical]
        except KeyError:
            raise EventError(f"unknown event {name!r}") from None

    def make(self, name: str, source: str | None = None) -> ContextEvent:
        """Build a ContextEvent from the catalog (canonical name + category)."""
        canonical = self.canonical(name)
        return ContextEvent(canonical, self.category_of(canonical), source)


#: Process-wide default catalog (predefined events only unless extended).
DEFAULT_CATALOG = EventCatalog()
