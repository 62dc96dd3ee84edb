"""The wireless hop: a serialising, delaying, lossy pipe in virtual time.

Transmission of ``size`` bytes takes ``size * 8 / bandwidth`` seconds of
link occupancy (transmissions serialise — the link is busy until the last
bit leaves), then the message propagates for ``delay`` seconds.  Loss is
Bernoulli per message with a seeded generator so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NetSimError
from repro.util.clock import VirtualClock


@dataclass(frozen=True)
class Transmission:
    """Outcome of one send."""

    start: float
    arrival: float | None  # None = lost
    size: int

    @property
    def lost(self) -> bool:
        return self.arrival is None


class WirelessLink:
    """One direction of the emulated wireless hop."""

    def __init__(
        self,
        bandwidth_bps: float,
        *,
        propagation_delay: float = 0.0,
        loss_rate: float = 0.0,
        clock: VirtualClock | None = None,
        seed: int = 0,
    ):
        if bandwidth_bps <= 0:
            raise NetSimError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay < 0:
            raise NetSimError(f"delay must be >= 0, got {propagation_delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise NetSimError(f"loss rate must be in [0, 1), got {loss_rate}")
        self._bandwidth = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.loss_rate = float(loss_rate)
        self.clock = clock if clock is not None else VirtualClock()
        self._rng = np.random.default_rng(seed)
        self._next_free = 0.0
        self._outage_until = 0.0
        # observability
        self.bytes_offered = 0
        self.bytes_delivered = 0
        self.transmissions = 0
        self.losses = 0
        self.outage_losses = 0
        self.busy_time = 0.0

    # -- conditions --------------------------------------------------------------

    @property
    def bandwidth_bps(self) -> float:
        return self._bandwidth

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the link rate (affects subsequent transmissions)."""
        if bandwidth_bps <= 0:
            raise NetSimError(f"bandwidth must be positive, got {bandwidth_bps}")
        self._bandwidth = float(bandwidth_bps)

    # -- outages (the fault-injection hook) ----------------------------------------

    def begin_outage(self, duration: float) -> float:
        """Take the link down for ``duration`` virtual seconds from now.

        Every transmission started inside the outage window is lost
        deterministically (no RNG draw, so the loss stream of the
        surviving traffic is unchanged — seeded runs stay bit-identical).
        Returns the virtual time the outage ends.
        """
        if duration <= 0:
            raise NetSimError(f"outage duration must be positive, got {duration}")
        self._outage_until = max(self._outage_until, self.clock.now() + duration)
        return self._outage_until

    @property
    def in_outage(self) -> bool:
        return self.clock.now() < self._outage_until

    # -- transfer -------------------------------------------------------------------

    def transmission_time(self, size_bytes: int) -> float:
        """Serialisation time for ``size_bytes`` at the current rate."""
        return size_bytes * 8.0 / self._bandwidth

    def transmit(self, size_bytes: int, at: float | None = None) -> Transmission:
        """Send ``size_bytes``; returns start and arrival (virtual) times.

        ``at`` is the earliest send time (defaults to the clock's now); the
        actual start waits for the link to go idle.  The clock is *not*
        advanced — callers decide whether to wait for the arrival.
        """
        if size_bytes < 0:
            raise NetSimError(f"size must be >= 0, got {size_bytes}")
        earliest = self.clock.now() if at is None else at
        start = max(earliest, self._next_free)
        tx = self.transmission_time(size_bytes)
        self._next_free = start + tx
        self.busy_time += tx
        self.bytes_offered += size_bytes
        self.transmissions += 1
        if start < self._outage_until:
            self.losses += 1
            self.outage_losses += 1
            return Transmission(start=start, arrival=None, size=size_bytes)
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.losses += 1
            return Transmission(start=start, arrival=None, size=size_bytes)
        self.bytes_delivered += size_bytes
        return Transmission(start=start, arrival=self._next_free + self.propagation_delay,
                            size=size_bytes)

    def utilization(self, horizon: float | None = None) -> float:
        """Busy fraction of the timeline up to ``horizon`` (default: now)."""
        end = horizon if horizon is not None else max(self.clock.now(), self._next_free)
        if end <= 0:
            return 0.0
        return min(1.0, self.busy_time / end)
