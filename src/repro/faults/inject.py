"""The injection plane: land a :class:`~repro.faults.plan.FaultPlan` on a
live system without touching streamlet code.

Streamlet faults wrap the instance's bound ``process`` at the ``_Node``
boundary (an instance attribute shadowing the method, removed again by
:meth:`FaultInjector.disarm`); channel faults shadow ``Channel.fetch`` or
close the queue; link and handoff faults drive the public hooks the
netsim layer exposes (``begin_outage``, ``storm``).  Scripted faults are virtual-time aware: call
:meth:`FaultInjector.tick` as the clock advances and each fault fires
exactly once when its ``at`` passes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CompositionError, FaultPlanError
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.handoff import HandoffManager
    from repro.netsim.link import WirelessLink
    from repro.runtime.stream import RuntimeStream
    from repro.util.clock import Clock


class FaultInjector:
    """Arms a fault plan against a stream (and an optional netsim link/handoff).

    Typical use::

        injector = FaultInjector(plan, link=link)
        injector.arm(stream)
        ...  # drive traffic; call injector.tick() as time advances
        injector.disarm()
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        clock: "Clock | None" = None,
        link: "WirelessLink | None" = None,
        handoff: "HandoffManager | None" = None,
    ):
        self.plan = plan
        self._clock = clock
        self._link = link
        self._handoff = handoff
        self._stream: "RuntimeStream | None" = None
        #: streamlets whose ``process`` is currently shadowed
        self._wrapped: list[object] = []
        #: channels whose ``fetch`` is currently shadowed (stalls)
        self._stalled: dict[str, object] = {}
        #: (release_at, channel) for stalls with a duration
        self._stall_heals: list[tuple[float, object]] = []
        #: (restore_at, link, saved_bandwidth) for bandwidth collapses
        self._collapse_heals: list[tuple[float, "WirelessLink", float]] = []
        self.applied = 0

    def _record(self, category: str, **detail) -> None:
        """Note a scripted action in the armed stream's flight recorder."""
        stream = self._stream
        if stream is not None and stream.tm is not None:
            stream.tm.recorder.record(category, stream=stream.name, **detail)

    # -- arming ------------------------------------------------------------------------

    def arm(self, stream: "RuntimeStream") -> None:
        """Wrap the plan's streamlet faults into the stream's nodes."""
        if self._stream is not None:
            raise FaultPlanError("injector already armed; disarm first")
        self._stream = stream
        if self._clock is None:
            self._clock = stream._clock
        by_instance: dict[str, list] = {}
        for fault in self.plan.streamlet_faults:
            by_instance.setdefault(fault.instance, []).append(fault)
        for instance, faults in by_instance.items():
            try:
                node = stream.node(instance)
            except CompositionError as exc:
                raise FaultPlanError(
                    f"fault plan targets unknown instance {instance!r}"
                ) from exc
            self._wrap_process(node.streamlet, faults)
        self.tick()  # apply anything already due at arm time

    def _wrap_process(self, streamlet, faults) -> None:
        original = streamlet.process
        rng = self.plan.rng
        # capture at wrap time: the wrapper may outlive disarm's _stream reset
        tm = self._stream.tm
        stream_name = self._stream.name
        recorder = tm.recorder if tm is not None else None

        def faulting_process(port, message, ctx):
            for fault in faults:
                if fault.should_fire(rng):
                    if recorder is not None:
                        recorder.record(
                            "fault_injected", stream=stream_name,
                            instance=fault.instance, mode=fault.mode,
                        )
                    raise fault.make_exception()
            return original(port, message, ctx)

        streamlet.process = faulting_process
        self._wrapped.append(streamlet)

    def disarm(self) -> None:
        """Remove process wrappers and release surviving stalls.

        Closed queues and expired outages are *damage*,
        not instrumentation — they stay.
        """
        for streamlet in self._wrapped:
            streamlet.__dict__.pop("process", None)
        self._wrapped.clear()
        for channel in self._stalled.values():
            channel.__dict__.pop("fetch", None)
        self._stalled.clear()
        self._stall_heals.clear()
        self._stream = None

    # -- scripted faults -----------------------------------------------------------------

    def tick(self, now: float | None = None) -> int:
        """Apply every scripted fault whose ``at`` has passed; heal expiries.

        Returns the number of actions taken.  Idempotent per fault: each
        applies exactly once no matter how often ``tick`` runs.
        """
        if now is None:
            now = self._clock.now() if self._clock is not None else 0.0
        actions = 0
        actions += self._tick_channels(now)
        actions += self._tick_links(now)
        actions += self._tick_handoffs(now)
        self.applied += actions
        return actions

    def _tick_channels(self, now: float) -> int:
        actions = 0
        stream = self._stream
        for fault in self.plan.channel_faults:
            if fault.applied or now < fault.at:
                continue
            if stream is None:
                raise FaultPlanError("channel faults need an armed stream")
            try:
                channel = stream.channel(fault.channel)
            except CompositionError as exc:
                raise FaultPlanError(
                    f"fault plan targets unknown channel {fault.channel!r}"
                ) from exc
            if fault.action == "close":
                channel.queue.close()
            else:
                self._stall(channel, now, fault.duration)
            self._record(
                "fault_injected", kind="channel",
                channel=fault.channel, action=fault.action,
            )
            fault.applied = True
            actions += 1
        # stalls past their duration heal themselves
        for release_at, channel in list(self._stall_heals):
            if now >= release_at:
                channel.__dict__.pop("fetch", None)
                self._stalled.pop(channel.name, None)
                self._stall_heals.remove((release_at, channel))
                actions += 1
        return actions

    def _stall(self, channel, now: float, duration: float | None) -> None:
        if channel.name in self._stalled:
            return
        channel.fetch = lambda timeout=0.0: None  # messages park in the queue
        self._stalled[channel.name] = channel
        if duration is not None:
            self._stall_heals.append((now + duration, channel))

    def release_stall(self, channel_name: str) -> bool:
        """Manually heal one stalled channel; False if it was not stalled."""
        channel = self._stalled.pop(channel_name, None)
        if channel is None:
            return False
        channel.__dict__.pop("fetch", None)
        self._stall_heals = [(t, c) for t, c in self._stall_heals if c is not channel]
        return True

    def _tick_links(self, now: float) -> int:
        actions = 0
        link = self._link
        for fault in self.plan.link_faults:
            if not fault.applied and now >= fault.at:
                if link is None:
                    raise FaultPlanError("link faults need a link= at construction")
                if fault.kind == "outage":
                    # begin_outage anchors at clock.now(); in virtual time
                    # the caller advances the clock, so now == clock time
                    link.begin_outage(fault.duration)
                else:
                    self._collapse_heals.append(
                        (fault.at + fault.duration, link, link.bandwidth_bps)
                    )
                    link.set_bandwidth(fault.bandwidth_bps)
                self._record(
                    "fault_injected", kind=f"link_{fault.kind}",
                    duration_seconds=fault.duration,
                )
                fault.applied = True
                actions += 1
        for restore_at, c_link, saved in list(self._collapse_heals):
            if now >= restore_at:
                c_link.set_bandwidth(saved)
                self._collapse_heals.remove((restore_at, c_link, saved))
                actions += 1
        return actions

    def _tick_handoffs(self, now: float) -> int:
        actions = 0
        for storm in self.plan.handoff_storms:
            if storm.applied or now < storm.at:
                continue
            if self._handoff is None:
                raise FaultPlanError("handoff storms need a handoff= at construction")
            self._handoff.storm(storm.interfaces, rounds=storm.rounds)
            self._record(
                "fault_injected", kind="handoff_storm",
                interfaces=list(storm.interfaces), rounds=storm.rounds,
            )
            storm.applied = True
            actions += 1
        return actions

    # -- queries ----------------------------------------------------------------------

    def next_due(self) -> float | None:
        """The earliest pending scripted timestamp, or None when drained.

        Lets virtual-time drivers advance the clock straight to the next
        fault instead of polling.
        """
        pending: list[float] = []
        for fault in self.plan.channel_faults:
            if not fault.applied:
                pending.append(fault.at)
        pending.extend(t for t, _ in self._stall_heals)
        for fault in self.plan.link_faults:
            if not fault.applied:
                pending.append(fault.at)
        pending.extend(t for t, _, _ in self._collapse_heals)
        for storm in self.plan.handoff_storms:
            if not storm.applied:
                pending.append(storm.at)
        return min(pending) if pending else None
