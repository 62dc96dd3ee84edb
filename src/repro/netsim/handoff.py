"""Vertical handoff between wireless interfaces (§2.2.1 / §8.2.1).

TranSend's vertical-handoff support — "the client-side software generates
a notification packet containing some essential characteristics of the new
network" — is on MobiGATE's future-work list.  This module implements it
for the emulation: a :class:`HandoffManager` owns several named links
(e.g. ``wavelan`` at 1 Mb/s and ``gsm`` at 20 Kb/s), exposes the *active*
one, and on ``switch_to`` raises the matching bandwidth event so deployed
streams re-adapt exactly as they do for in-link fades.

All links share one virtual clock; link-level state (busy-until) is
per-interface, as with real radios.
"""

from __future__ import annotations

from repro.errors import NetSimError
from repro.netsim.link import Transmission, WirelessLink
from repro.runtime.events import EventManager
from repro.util.clock import VirtualClock


class HandoffManager:
    """Named wireless interfaces with event-raising handoff."""

    def __init__(
        self,
        events: EventManager,
        *,
        low_threshold_bps: float = 100_000.0,
        source: str | None = None,
    ):
        if low_threshold_bps <= 0:
            raise NetSimError("threshold must be positive")
        self._events = events
        self._low = low_threshold_bps
        self._source = source
        self._links: dict[str, WirelessLink] = {}
        self._active: str | None = None
        self._clock: VirtualClock | None = None
        self.handoffs: list[tuple[float, str, str | None]] = []

    # -- interface registry -------------------------------------------------------

    def add_link(self, name: str, link: WirelessLink) -> None:
        """Register an interface; the first one becomes active."""
        if name in self._links:
            raise NetSimError(f"interface {name!r} already registered")
        if not isinstance(link.clock, VirtualClock):
            raise NetSimError("handoff links must share a VirtualClock")
        if self._clock is None:
            self._clock = link.clock
        elif link.clock is not self._clock:
            raise NetSimError("all interfaces must share one clock")
        self._links[name] = link
        if self._active is None:
            self._active = name

    def link(self, name: str) -> WirelessLink:
        """The link registered under ``name``; NetSimError if unknown."""
        try:
            return self._links[name]
        except KeyError:
            raise NetSimError(f"no interface {name!r}") from None

    @property
    def active_name(self) -> str:
        if self._active is None:
            raise NetSimError("no interfaces registered")
        return self._active

    @property
    def active(self) -> WirelessLink:
        return self.link(self.active_name)

    # -- handoff ---------------------------------------------------------------------

    def switch_to(self, name: str) -> str | None:
        """Activate interface ``name``; raise the notification event.

        Returns the event raised (LOW_BANDWIDTH / HIGH_BANDWIDTH), or None
        when the bandwidth class did not change across the handoff.
        """
        new_link = self.link(name)
        old_name = self._active
        if old_name == name:
            return None
        old_low = self.active.bandwidth_bps < self._low if old_name else None
        self._active = name
        now = self._clock.now() if self._clock else 0.0
        self.handoffs.append((now, name, old_name))
        new_low = new_link.bandwidth_bps < self._low
        if old_low is None or new_low != old_low:
            event = "LOW_BANDWIDTH" if new_low else "HIGH_BANDWIDTH"
            self._events.raise_event(event, source=self._source)
            return event
        return None

    def storm(self, names: list[str] | tuple[str, ...], rounds: int = 1) -> list[str]:
        """Rapid alternation across ``names`` — the handoff-storm fault.

        Performs ``rounds`` passes over the interface list, switching to
        each in turn; every bandwidth-class edge raises its notification
        event, so a storm exercises the reconfiguration machinery exactly
        as fast successive real handoffs would.  Returns the events raised.
        """
        if rounds < 1:
            raise NetSimError(f"storm needs at least one round, got {rounds}")
        raised: list[str] = []
        for _ in range(rounds):
            for name in names:
                event = self.switch_to(name)
                if event is not None:
                    raised.append(event)
        return raised

    # -- link-compatible transmit (so the emulator can use the manager) -----------------

    def transmit(self, size_bytes: int, at: float | None = None) -> Transmission:
        """Transmit on the active interface (link-compatible signature)."""
        return self.active.transmit(size_bytes, at)

    @property
    def bandwidth_bps(self) -> float:
        return self.active.bandwidth_bps

    @property
    def clock(self) -> VirtualClock:
        if self._clock is None:
            raise NetSimError("no interfaces registered")
        return self._clock
