"""From segments to metrics: which segments count, and what they say.

On a shared VM the hypervisor takes the CPU away for seconds to minutes at
a time, which moves throughput fourfold and CPU per message twofold for
identical code.  ``/proc/stat`` reports it as *steal*.  A phase is cut
into segments and steal is read at every edge; the half of the segments
with the least steal is scored; and a scored segment's throughput and CPU
per message (and a cold start's time) are **normalised to a host that
steals nothing** by the share of the host's CPU time stolen during it.  A
metric is the median over scored segments of the per-segment value.

The normalisation is ``value * exp(-slope * steal_share)``.  The logarithm
of each figure is linear in the steal share, with a slope that is the
host's more than the workload's: fitted over 5 900 half-second closed-loop
segments of all four workloads in four different hours, with steal shares
from 0 to 0.5, throughput fell with slopes of -3.2 to -5.4 and CPU per
message rose with 1.6 to 3.0; cold starts rose with 2.3 to 3.1.  The
constants below are the ones that made four series of the same code agree
best (``README.md``); they halve to quarter the spread a stealing hour
puts on a series, they do not remove it.  On a calm host the steal share
is 0 and the figures are the raw ones, which every report carries beside
them.
"""

from __future__ import annotations

import math
import statistics

from loadgen import Segment

#: a run whose scored segments exceed either is stamped ``noisy``
NOISY_STEAL_SHARE = 0.02
NOISY_LOADGEN_CPU_SHARE = 0.8
#: d ln(work per second) / d steal_share, and d ln(time per unit of work) / d steal_share
RATE_STEAL_SLOPE = -3.6
TIME_STEAL_SLOPE = 2.0


def without_steal(value: float, slope: float, steal_share: float) -> float:
    """``value`` as a host that steals nothing would have measured it."""
    return value * math.exp(-slope * steal_share)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def scored_indices(steal_ticks: list[int]) -> list[int]:
    """The segments that count: the half with the least steal.

    Ties keep the earlier segment (the sort is stable), and the result is
    in time order.  A host that reports no steal at all gives no reason to
    prefer any segment, so every segment is scored.
    """
    if not any(steal_ticks):
        return list(range(len(steal_ticks)))
    by_steal = sorted(range(len(steal_ticks)), key=lambda index: steal_ticks[index])
    return sorted(by_steal[: (len(steal_ticks) + 1) // 2])


def scored(segments: list[Segment]) -> list[Segment]:
    keep = scored_indices([segment.steal_ticks for segment in segments])
    return [segments[index] for index in keep]


def median_of(segments: list[Segment], value) -> float:
    """Median over ``segments`` of ``value(segment)``; segments where the
    value is undefined (``None``) are left out."""
    values = [v for v in map(value, segments) if v is not None]
    return statistics.median(values) if values else 0.0


def raw_throughput_msgs_s(segment: Segment) -> float:
    return segment.verified / segment.seconds


def raw_cpu_us_per_msg(segment: Segment) -> float | None:
    if not segment.verified:
        return None
    return segment.gateway_cpu_s / segment.verified * 1e6


def throughput_msgs_s(segment: Segment) -> float:
    return without_steal(raw_throughput_msgs_s(segment), RATE_STEAL_SLOPE, segment.steal_share)


def cpu_us_per_msg(segment: Segment) -> float | None:
    raw = raw_cpu_us_per_msg(segment)
    return None if raw is None else without_steal(raw, TIME_STEAL_SLOPE, segment.steal_share)


def setup_s(cold_starts: list[dict]) -> float:
    """Median cold-start time, each start normalised by its own steal share."""
    return statistics.median(
        without_steal(start["seconds"], TIME_STEAL_SLOPE, start["steal_share"])
        for start in cold_starts
    )


def latency_ms(q: float):
    def value(segment: Segment) -> float | None:
        if not segment.latencies:
            return None
        return percentile(segment.latencies, q) * 1e3
    return value


def steal_share(segments: list[Segment]) -> float:
    host = sum(segment.host_ticks for segment in segments)
    return sum(segment.steal_ticks for segment in segments) / host if host else 0.0


def loadgen_cpu_share(segments: list[Segment]) -> float:
    wall = sum(segment.seconds for segment in segments)
    return sum(segment.loadgen_cpu_s for segment in segments) / wall if wall else 0.0


def is_noisy(segments: list[Segment]) -> bool:
    return (
        steal_share(segments) > NOISY_STEAL_SHARE
        or loadgen_cpu_share(segments) > NOISY_LOADGEN_CPU_SHARE
    )
