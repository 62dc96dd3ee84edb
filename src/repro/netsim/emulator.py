"""End-to-end emulation: server stream → wireless link → MobiGATE client.

This is the Figure 7-7 harness.  One virtual timeline carries both terms
of Equation 7-2:

* **processing overhead** — real CPU seconds spent pumping the stream,
  serialising and reverse-processing at the client, measured with the
  calling thread's CPU clock (:func:`time.thread_time`) and charged to the
  virtual clock.  All three run synchronously on the calling thread (the
  stream is stepped by an :class:`InlineScheduler`, the client's
  distributor is a plain call), so the thread clock misses none of the
  work, and time the host spends on other processes is not charged;
* **transmission time** — size/bandwidth + propagation delay, computed by
  the :class:`WirelessLink` in virtual time.

The stream's ``communicator`` streamlet is given a transport that submits
each processed message to the link; arrivals are delivered to the client
(reverse peer processing) in arrival order.  ``DirectTransfer`` is the
no-proxy baseline: the same workload pushed straight through the link.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.client.client import MobiGateClient
from repro.errors import NetSimError
from repro.mime.message import MimeMessage
from repro.mime.wire import parse_message, serialize_message
from repro.netsim.link import WirelessLink
from repro.netsim.monitor import ContextMonitor
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.stream import RuntimeStream
from repro.util.clock import VirtualClock


@dataclass
class TransferReport:
    """Totals for one emulated run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    app_messages: int = 0
    bytes_offered_app: int = 0        # application payload entering the system
    bytes_on_link: int = 0            # what actually crossed the wireless hop
    bytes_delivered_app: int = 0      # application payload after reverse processing
    processing_time: float = 0.0      # CPU seconds charged to the timeline
    elapsed: float = 0.0              # virtual end-to-end time
    losses: int = 0
    latencies: list[float] = field(default_factory=list)
    #: delivery schedule (virtual arrival time, wire bytes) — feeds the
    #: client radio energy model
    arrivals: list[tuple[float, int]] = field(default_factory=list)

    @property
    def throughput_bps(self) -> float:
        """Delivered application bits per virtual second."""
        if self.elapsed <= 0:
            return 0.0
        return self.bytes_delivered_app * 8.0 / self.elapsed

    @property
    def goodput_bps(self) -> float:
        """Logical content transferred per virtual second.

        Both schemes in Figure 7-7 transfer the same content; lossy
        distillation *represents* it in fewer bytes.  Goodput therefore
        counts the offered content bytes (scaled by the delivered message
        fraction under loss), which is the throughput the thesis compares.
        """
        if self.elapsed <= 0 or self.messages_sent == 0:
            return 0.0
        fraction = self.messages_delivered / max(1, self.messages_sent)
        return self.bytes_offered_app * fraction * 8.0 / self.elapsed

    @property
    def reduction_ratio(self) -> float:
        """link bytes / offered app bytes (< 1 when adaptation pays off)."""
        if self.bytes_offered_app == 0:
            return 1.0
        return self.bytes_on_link / self.bytes_offered_app


class EndToEndEmulator:
    """Drive a deployed stream over an emulated link into a client."""

    def __init__(
        self,
        stream: RuntimeStream,
        link: WirelessLink,
        client: MobiGateClient,
        *,
        communicator: str = "comm",
        monitor: ContextMonitor | None = None,
        charge_processing_time: bool = True,
    ):
        if not isinstance(link.clock, VirtualClock):
            raise NetSimError("the emulator needs a VirtualClock-backed link")
        self.stream = stream
        self.link = link
        self.client = client
        self.clock: VirtualClock = link.clock
        self.monitor = monitor
        self._charge = charge_processing_time
        self._scheduler = InlineScheduler(stream)
        self._outbox: list[MimeMessage] = []
        self.report = TransferReport()

        node = stream.node(communicator)
        node.ctx.params["transport"] = self._outbox.append

    # -- the run ------------------------------------------------------------------

    def send(self, message: MimeMessage) -> None:
        """Push one application message through the whole pipeline."""
        self.report.messages_sent += 1
        self.report.bytes_offered_app += message.total_size()
        if self.monitor is not None:
            self.monitor.check()

        cpu_start = time.thread_time()
        self.stream.post(message)
        self._scheduler.pump()
        processing = time.thread_time() - cpu_start
        self.report.processing_time += processing
        if self._charge:
            self.clock.advance(processing)

        for processed in self._drain_outbox():
            self._transmit(processed)

    def _drain_outbox(self) -> list[MimeMessage]:
        out = self._outbox[:]
        self._outbox.clear()
        return out

    def _transmit(self, message: MimeMessage) -> None:
        # real wire bytes cross the emulated link: serialisation cost is
        # charged as processing, and the client parses what actually arrives
        cpu_start = time.thread_time()
        wire = serialize_message(message)
        serialise_cost = time.thread_time() - cpu_start
        self.report.processing_time += serialise_cost
        if self._charge:
            self.clock.advance(serialise_cost)
        size = len(wire)
        result = self.link.transmit(size)
        self.report.bytes_on_link += size
        if result.lost:
            self.report.losses += 1
            return
        # wait for the arrival, then reverse-process at the client
        self.clock.advance_to(result.arrival)
        self.report.arrivals.append((result.arrival, size))
        cpu_start = time.thread_time()
        delivered = self.client.receive(parse_message(wire))
        processing = time.thread_time() - cpu_start
        self.report.processing_time += processing
        if self._charge:
            self.clock.advance(processing)
        self.report.messages_delivered += 1
        self.report.app_messages += len(delivered)
        for app_message in delivered:
            self.report.bytes_delivered_app += app_message.total_size()

    def run(self, messages) -> TransferReport:
        """Send a whole workload; finalise and return the report."""
        start = self.clock.now()
        for message in messages:
            self.send(message)
        self.report.elapsed = self.clock.now() - start
        return self.report


class DirectTransfer:
    """The no-proxy baseline: the workload crosses the link untouched."""

    def __init__(self, link: WirelessLink):
        if not isinstance(link.clock, VirtualClock):
            raise NetSimError("the emulator needs a VirtualClock-backed link")
        self.link = link
        self.clock: VirtualClock = link.clock
        self.report = TransferReport()

    def run(self, messages) -> TransferReport:
        """Push the workload straight through the link; returns the report."""
        start = self.clock.now()
        for message in messages:
            size = message.total_size()
            self.report.messages_sent += 1
            self.report.bytes_offered_app += size
            self.report.bytes_on_link += size
            result = self.link.transmit(size)
            if result.lost:
                self.report.losses += 1
                continue
            self.clock.advance_to(result.arrival)
            self.report.messages_delivered += 1
            self.report.app_messages += 1
            self.report.bytes_delivered_app += size
        self.report.elapsed = self.clock.now() - start
        return self.report
