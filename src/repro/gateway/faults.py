"""Link-fault injection at the socket boundary.

:mod:`repro.faults` scripts link outages against the *emulated* wireless
link; the gateway gives those same :class:`~repro.faults.plan.LinkFault`
specs a second landing site — the real socket.  During an outage window
no connection makes read progress: before every read the data plane asks
:attr:`LinkOutageGate.blocked`, and a connection that finds the link down
pauses its transport until :meth:`LinkOutageGate.wait_clear` returns, so
bytes pile up in kernel buffers exactly as they would on a dead radio
link, and the recovery path (clients retrying, backpressure draining) is
exercised end-to-end.

Time is measured from :meth:`start` (the gateway's start), matching the
plan convention that ``at`` is relative to the run's origin.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan


class LinkOutageGate:
    """Tells the data plane when to hold its reads: scripted link-outage windows."""

    #: poll granularity while an outage is pending but not yet due
    _POLL = 0.05

    def __init__(self, plan: "FaultPlan | None" = None, *, telemetry=None):
        outages = []
        if plan is not None:
            outages = [f for f in plan.link_faults if f.kind == "outage"]
        self._outages = sorted(outages, key=lambda f: f.at)
        self._origin: float | None = None
        self._clock = None
        if telemetry is not None:
            self._counter = telemetry.gateway_outage_counter()
            self._recorder = telemetry.recorder
        else:
            self._counter = None
            self._recorder = None
        #: outage windows observed blocking at least one read
        self.stalls = 0

    @property
    def armed(self) -> bool:
        return bool(self._outages)

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Fix the plan's time origin to the loop's clock, once."""
        if self._origin is None:
            self._origin = loop.time()
            self._clock = loop.time

    @property
    def blocked(self) -> bool:
        """Whether an outage window covers the present moment."""
        if not self._outages or self._clock is None:
            return False
        return self.blocked_for(self._clock()) > 0

    def blocked_for(self, now: float) -> float:
        """Seconds until the current outage (if any) clears; 0 when clear."""
        if self._origin is None or not self._outages:
            return 0.0
        elapsed = now - self._origin
        for fault in self._outages:
            if fault.at <= elapsed < fault.at + fault.duration:
                fault.applied = True
                return fault.at + fault.duration - elapsed
        return 0.0

    async def wait_clear(self) -> None:
        """Return once no outage window covers the present moment."""
        if not self._outages:
            return
        loop = asyncio.get_running_loop()
        stalled = False
        while True:
            remaining = self.blocked_for(loop.time())
            if remaining <= 0:
                return
            if not stalled:
                stalled = True
                self.stalls += 1
                if self._counter is not None:
                    self._counter.inc()
                if self._recorder is not None:
                    self._recorder.record(
                        "link_outage", remaining_seconds=round(remaining, 6)
                    )
            await asyncio.sleep(min(remaining, self._POLL))
