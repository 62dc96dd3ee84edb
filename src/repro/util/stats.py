"""Small statistics helpers used by the runtime and the bench harness.

Following the HPC guidance to *measure before optimising*, the runtime keeps
cheap running statistics (Welford's algorithm — no sample storage) and the
bench harness uses :class:`Timer` around measured regions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


class RunningStats:
    """Streaming mean/variance/min/max without storing samples."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the running moments."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values) -> None:
        """Fold an iterable of samples."""
        for v in values:
            self.add(v)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-safe

    @classmethod
    def of_sorted(cls, values) -> "RunningStats":
        """The moments of a non-empty batch in ascending order.

        Deviations are taken from the batch's median, which lies within
        one standard deviation of the mean, so removing the squared mean
        offset from their sum of squares cancels few digits.  Both sums
        are C loops: ``math.fsum``, correctly rounded, and ``math.dist``,
        in extended precision.  A batch of equal values has a mean of
        exactly that value and no spread, as it would sample by sample.
        """
        stats = cls()
        stats.count = n = len(values)
        stats.minimum = values[0]
        stats.maximum = values[-1]
        shift = values[n // 2]
        offset = math.fsum(values) - n * shift  # the deviations' sum
        stats._mean = shift + offset / n
        squares = math.dist(values, [shift] * n) ** 2
        stats._m2 = max(0.0, squares - offset * offset / n)
        return stats

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two streams (parallel Welford merge)."""
        merged = RunningStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.6g}, "
            f"stdev={self.stdev:.6g}, min={self.minimum:.6g}, max={self.maximum:.6g})"
        )


@dataclass
class Timer:
    """Context manager measuring elapsed wall time in seconds."""

    elapsed: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return float(sorted_values[lo]) * (1 - frac) + float(sorted_values[hi]) * frac
