"""Fault plans: deterministic, seedable descriptions of what should break.

A :class:`FaultPlan` is pure data plus one seeded RNG — it decides *what*
goes wrong and *when*, while :mod:`repro.faults.inject` decides *how* the
decision lands on a live stream.  Keeping the two apart gives the property
the acceptance tests rely on: for a fixed seed and a virtual clock, two
runs of the same plan make bit-identical decisions.

Faults come in two flavours:

* **inline** — :class:`StreamletFault` fires inside ``process()`` (once,
  always, or with probability *p* drawn from the plan's RNG);
* **scripted** — channel stalls/closes, link outages and bandwidth
  collapses, and handoff storms carry an ``at`` timestamp
  and are applied by :meth:`~repro.faults.inject.FaultInjector.tick` when
  the (virtual or wall) clock passes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import FaultPlanError

#: sentinel exception type raised by injected streamlet faults, so tests
#: and supervisors can tell an injected fault from an organic bug
class InjectedFault(RuntimeError):
    """Raised by a streamlet whose process() was made to fail."""


_MODES = ("once", "always", "probability")


@dataclass
class StreamletFault:
    """Make a named instance's ``process()`` raise.

    ``mode``:

    * ``"once"`` — the next ``times`` calls raise, then the instance heals
      (the transient fault a supervisor should retry through);
    * ``"always"`` — every call raises (the hard fault that should end in
      dead-letters or a bypass);
    * ``"probability"`` — each call raises with probability *p*, drawn
      from the plan's seeded RNG.
    """

    instance: str
    mode: str = "once"
    probability: float = 0.0
    times: int = 1
    message: str = ""
    fired: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise FaultPlanError(f"unknown streamlet-fault mode {self.mode!r}")
        if self.mode == "probability" and not 0.0 < self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.mode == "once" and self.times < 1:
            raise FaultPlanError(f"times must be >= 1, got {self.times}")

    def should_fire(self, rng: random.Random) -> bool:
        """Decide (consuming RNG only in probability mode) and record."""
        if self.mode == "once":
            fire = self.fired < self.times
        elif self.mode == "always":
            fire = True
        else:
            fire = rng.random() < self.probability
        if fire:
            self.fired += 1
        return fire

    def make_exception(self) -> InjectedFault:
        """The exception the wrapped ``process()`` will raise."""
        detail = self.message or f"injected fault in {self.instance}"
        return InjectedFault(detail)


@dataclass
class ChannelFault:
    """Stall (messages stop moving) or close a named channel at ``at``."""

    channel: str
    action: str = "stall"
    at: float = 0.0
    #: stalls only: automatically release after this many seconds (None =
    #: until the injector is told to heal)
    duration: float | None = None
    applied: bool = False

    def __post_init__(self) -> None:
        if self.action not in ("stall", "close"):
            raise FaultPlanError(f"unknown channel-fault action {self.action!r}")
        if self.duration is not None and self.duration <= 0:
            raise FaultPlanError(f"duration must be positive, got {self.duration}")


@dataclass
class LinkFault:
    """Outage or bandwidth collapse on a wireless link at ``at``."""

    kind: str = "outage"
    at: float = 0.0
    duration: float = 1.0
    #: collapse only: the floor the bandwidth drops to
    bandwidth_bps: float = 1_000.0
    applied: bool = False
    healed: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("outage", "collapse"):
            raise FaultPlanError(f"unknown link-fault kind {self.kind!r}")
        if self.duration <= 0:
            raise FaultPlanError(f"duration must be positive, got {self.duration}")
        if self.bandwidth_bps <= 0:
            raise FaultPlanError(f"bandwidth must be positive, got {self.bandwidth_bps}")


@dataclass
class HandoffStorm:
    """Rapid interface alternation through a HandoffManager at ``at``."""

    interfaces: tuple[str, ...] = ()
    at: float = 0.0
    rounds: int = 1
    applied: bool = False

    def __post_init__(self) -> None:
        if len(self.interfaces) < 2:
            raise FaultPlanError("a handoff storm needs at least two interfaces")
        if self.rounds < 1:
            raise FaultPlanError(f"rounds must be >= 1, got {self.rounds}")


@dataclass
class FaultPlan:
    """A seeded, replayable schedule of faults.

    Build one with the fluent helpers (each returns the spec it added)::

        plan = FaultPlan(seed=7)
        plan.fail_streamlet("tc", mode="once")
        plan.stall_channel("c1", at=0.5, duration=1.0)
        plan.link_outage(at=1.0, duration=0.5)
        plan.handoff_storm(("wavelan", "gsm"), at=2.0, rounds=3)
    """

    seed: int = 0
    streamlet_faults: list[StreamletFault] = field(default_factory=list)
    channel_faults: list[ChannelFault] = field(default_factory=list)
    link_faults: list[LinkFault] = field(default_factory=list)
    handoff_storms: list[HandoffStorm] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    # -- fluent builders -----------------------------------------------------------

    def fail_streamlet(self, instance: str, **kwargs) -> StreamletFault:
        """Script a ``process()`` fault for one instance."""
        fault = StreamletFault(instance, **kwargs)
        self.streamlet_faults.append(fault)
        return fault

    def stall_channel(self, channel: str, **kwargs) -> ChannelFault:
        """Script a channel stall (messages stop being fetched)."""
        fault = ChannelFault(channel, action="stall", **kwargs)
        self.channel_faults.append(fault)
        return fault

    def close_channel(self, channel: str, *, at: float = 0.0) -> ChannelFault:
        """Script a hard channel close (posts start raising)."""
        fault = ChannelFault(channel, action="close", at=at)
        self.channel_faults.append(fault)
        return fault

    def link_outage(self, *, at: float = 0.0, duration: float = 1.0) -> LinkFault:
        """Script a full link outage window."""
        fault = LinkFault(kind="outage", at=at, duration=duration)
        self.link_faults.append(fault)
        return fault

    def link_collapse(
        self, *, at: float = 0.0, duration: float = 1.0, bandwidth_bps: float = 1_000.0
    ) -> LinkFault:
        """Script a bandwidth collapse (restored after ``duration``)."""
        fault = LinkFault(
            kind="collapse", at=at, duration=duration, bandwidth_bps=bandwidth_bps
        )
        self.link_faults.append(fault)
        return fault

    def handoff_storm(
        self, interfaces: tuple[str, ...], *, at: float = 0.0, rounds: int = 1
    ) -> HandoffStorm:
        """Script a rapid alternation across wireless interfaces."""
        storm = HandoffStorm(tuple(interfaces), at=at, rounds=rounds)
        self.handoff_storms.append(storm)
        return storm

    # -- queries --------------------------------------------------------------------

    def faults_for(self, instance: str) -> list[StreamletFault]:
        """The inline faults targeting one streamlet instance."""
        return [f for f in self.streamlet_faults if f.instance == instance]

    def reset(self) -> None:
        """Rewind the plan (and its RNG) so the same schedule replays."""
        self.rng = random.Random(self.seed)
        for fault in self.streamlet_faults:
            fault.fired = 0
        for fault in self.channel_faults:
            fault.applied = False
        for fault in self.link_faults:
            fault.applied = False
            fault.healed = False
        for storm in self.handoff_storms:
            storm.applied = False
