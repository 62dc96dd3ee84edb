"""The context monitor: link conditions → MobiGATE events.

The Event Manager of the thesis "monitors the underlying client variations
and composes corresponding events" (section 6.4).  This module is that
monitoring half: it watches a :class:`WirelessLink` (optionally driving it
from a :class:`BandwidthTrace`) and raises ``LOW_BANDWIDTH`` /
``HIGH_BANDWIDTH`` edges with hysteresis, so a link hovering at the
threshold does not thrash the reconfiguration machinery.

The section 7.5 application uses exactly one rule: Text Compressor active
iff bandwidth < 100 Kb/s.
"""

from __future__ import annotations

from repro.errors import NetSimError
from repro.netsim.link import WirelessLink
from repro.netsim.traces import BandwidthTrace
from repro.runtime.events import EventManager
from repro.telemetry import Telemetry


class ContextMonitor:
    """Threshold watcher with edge-triggered events.

    With a :class:`~repro.telemetry.Telemetry` facade attached, every
    check publishes the observed bandwidth to a per-link gauge and every
    raised edge increments a per-link event counter, so an export taken
    mid-run shows what the adaptation machinery is reacting to.
    """

    def __init__(
        self,
        link: WirelessLink,
        events: EventManager,
        *,
        low_threshold_bps: float,
        hysteresis: float = 0.05,
        trace: BandwidthTrace | None = None,
        source: str | None = None,
        fire_initial: bool = False,
        telemetry: Telemetry | None = None,
    ):
        if low_threshold_bps <= 0:
            raise NetSimError("threshold must be positive")
        if not 0.0 <= hysteresis < 1.0:
            raise NetSimError("hysteresis must be in [0, 1)")
        self._link = link
        self._events = events
        self._low = low_threshold_bps
        self._hysteresis = hysteresis
        self._trace = trace
        self._source = source
        self._in_low_state = link.bandwidth_bps < low_threshold_bps
        #: with ``fire_initial``, a link that *starts* below the threshold
        #: raises LOW_BANDWIDTH on the first check (not just on an edge)
        self._fire_initial_pending = fire_initial
        self.raised: list[tuple[float, str]] = []
        self._telemetry = telemetry
        self._bw_gauge = (
            self._telemetry.link_bandwidth_gauge(source or "wireless")
            if self._telemetry is not None
            else None
        )

    def _count_edge(self, event: str) -> None:
        """Publish one raised edge to the per-link event counter."""
        if self._telemetry is not None:
            self._telemetry.link_event_counter(self._source or "wireless", event).inc()

    @property
    def in_low_state(self) -> bool:
        return self._in_low_state

    def check(self, now: float | None = None) -> str | None:
        """Apply the trace (if any) and raise an event on a state edge."""
        t = self._link.clock.now() if now is None else now
        if self._trace is not None:
            self._link.set_bandwidth(self._trace.value_at(t))
        bandwidth = self._link.bandwidth_bps
        if self._bw_gauge is not None:
            self._bw_gauge.set(bandwidth)
        if self._fire_initial_pending:
            self._fire_initial_pending = False
            if self._in_low_state:
                self._events.raise_event("LOW_BANDWIDTH", source=self._source)
                self.raised.append((t, "LOW_BANDWIDTH"))
                self._count_edge("LOW_BANDWIDTH")
                return "LOW_BANDWIDTH"
        if not self._in_low_state and bandwidth < self._low * (1 - self._hysteresis):
            self._in_low_state = True
            self._events.raise_event("LOW_BANDWIDTH", source=self._source)
            self.raised.append((t, "LOW_BANDWIDTH"))
            self._count_edge("LOW_BANDWIDTH")
            return "LOW_BANDWIDTH"
        if self._in_low_state and bandwidth >= self._low * (1 + self._hysteresis):
            self._in_low_state = False
            self._events.raise_event("HIGH_BANDWIDTH", source=self._source)
            self.raised.append((t, "HIGH_BANDWIDTH"))
            self._count_edge("HIGH_BANDWIDTH")
            return "HIGH_BANDWIDTH"
        return None
