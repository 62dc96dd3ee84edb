"""Metric primitives for the streamlet plane: counters, gauges, histograms.

The evaluation chapter of the thesis is entirely about *per-streamlet*
costs (Figures 7-2/7-3/7-6/7-7), so the runtime must be able to measure
itself in-band without distorting what it measures.  The design rules:

* **no locks on read** for counters and gauges — a sample is a plain
  attribute read; a histogram read takes its family's lock once, to fold
  the samples it has buffered;
* **one lock per metric family** — children of one family share their
  family's lock for child creation, counter/gauge writes and histogram
  folds, so an increment costs one uncontended acquire and a couple of
  arithmetic ops, and a histogram *sample* costs a list append (see
  :meth:`Histogram.observe`);
* **labels are positional** — a child is addressed by a tuple of label
  values (``family.labels("webAccel", "tc")``), resolved through a
  lock-free dict read once the child exists.

Histograms keep fixed log-scale buckets (latencies span six orders of
magnitude between an in-process hop and a 20 Kb/s wireless transfer) plus
:class:`~repro.util.stats.RunningStats` for exact moments — the same
Welford accumulator the bench harness already trusts.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_right
from collections.abc import Iterable, Sequence

from repro.errors import TelemetryError
from repro.util.stats import RunningStats

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` log-scale bucket upper bounds: start, start·factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise TelemetryError(
            f"bad bucket spec (start={start}, factor={factor}, count={count})"
        )
    return tuple(start * factor**i for i in range(count))


#: 1 µs .. ~4.2 s in ×4 steps — spans an in-process hop and a slow link
DEFAULT_LATENCY_BUCKETS = exponential_buckets(1e-6, 4.0, 12)

#: samples a histogram buffers before it folds them into buckets and moments
FOLD_BATCH = 64


class Counter:
    """A monotonically increasing count (reads are lock-free)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(f"counters only go up (inc by {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (reads and ``set`` are lock-free)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value (single store, no lock)."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self.value -= amount


class Histogram:
    """Log-scale bucket counts plus exact running moments.

    ``bounds[i]`` is the *inclusive* upper bound of bucket ``i`` (the
    Prometheus ``le`` convention); the final slot of ``counts`` is the
    overflow (+Inf) bucket.

    Samples are folded in batches: :meth:`observe` appends to a buffer,
    and every :data:`FOLD_BATCH` samples — and before every read — the
    buffer is folded into the counts and moments under the family lock.
    A read therefore sees every sample observed before it started.
    """

    __slots__ = ("_lock", "bounds", "_below", "_stats", "_pending", "_room")

    def __init__(self, lock: threading.Lock, bounds: Sequence[float]):
        self._lock = lock
        self.bounds: tuple[float, ...] = tuple(bounds)
        #: samples at or below each bound (the cumulative ``le`` counts)
        self._below: list[int] = [0] * len(self.bounds)
        self._stats = RunningStats()
        #: samples observed and not yet folded, in arrival order
        self._pending: list[float] = []
        #: appends left before the next fold
        self._room = FOLD_BATCH

    def observe(self, value: float) -> None:
        """Record one sample; every :data:`FOLD_BATCH`-th folds the batch.

        An append and a countdown: this runs several times per streamlet
        hop, so the bisect and the moment update are paid once per batch
        in :meth:`_fold`, not once per sample.  The append takes no lock —
        a list append is atomic — and a fold removes only the prefix it
        took, so a sample appended while another thread folds waits for
        the next fold instead of being lost.  Two writers racing on the
        countdown can only delay a fold, never drop a sample.
        """
        self._pending.append(value)
        self._room -= 1
        if self._room <= 0:
            with self._lock:
                self._fold()

    def _fold(self) -> None:
        """Fold the buffered samples into the counts and moments (lock held).

        The batch is sorted once, and ``bisect_right`` of each bound in it
        counts the batch's samples at or below that bound — the same
        inclusive ``le`` buckets a per-sample ``bisect_left`` fills.  The
        batch's moments join the running ones through
        :meth:`RunningStats.merge`, which publishes a new accumulator
        rather than mutating the one a reader may hold.
        """
        self._room = FOLD_BATCH
        pending = self._pending
        n = len(pending)
        if not n:
            return
        batch = pending[:n]
        del pending[:n]  # a concurrent append lands after n and survives
        batch.sort()
        below, upto = self._below, 0
        for slot, bound in enumerate(self.bounds):
            upto = bisect_right(batch, bound, upto)
            below[slot] += upto
        self._stats = self._stats.merge(RunningStats.of_sorted(batch))

    def _folded(self) -> tuple[list[int], RunningStats]:
        """Fold, then the cumulative counts and the moments, taken together."""
        with self._lock:
            self._fold()
            return list(self._below), self._stats

    @property
    def counts(self) -> list[int]:
        """Samples per bucket, overflow last."""
        below, stats = self._folded()
        return [high - low for low, high in zip([0, *below], [*below, stats.count])]

    @property
    def stats(self) -> RunningStats:
        """The running moments of every sample observed so far."""
        return self._folded()[1]

    @property
    def count(self) -> int:
        """Total samples observed."""
        return self.stats.count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        stats = self.stats
        return stats.mean * stats.count if stats.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        below, stats = self._folded()
        return [*zip(self.bounds, below), (float("inf"), stats.count)]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its labelled children.

    One lock per family: child creation and every child write go through
    it; child lookup and all reads do not.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}

    def labels(self, *values: object) -> Counter | Gauge | Histogram:
        """The child for a tuple of label values (created on first use)."""
        child = self._children.get(values)  # lock-free fast path
        if child is None:
            key = tuple(str(v) for v in values)
            if len(key) != len(self.label_names):
                raise TelemetryError(
                    f"{self.name} expects labels {self.label_names}, got {key!r}"
                )
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "histogram":
                        child = Histogram(self._lock, self.buckets or DEFAULT_LATENCY_BUCKETS)
                    else:
                        child = _KINDS[self.kind](self._lock)
                    self._children[key] = child
        return child

    def unlabelled(self) -> Counter | Gauge | Histogram:
        """The single child of a label-less family."""
        return self.labels()

    def children(self) -> list[tuple[tuple[str, ...], Counter | Gauge | Histogram]]:
        """Snapshot of ``(label_values, child)`` pairs, insertion-ordered."""
        return list(self._children.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricFamily({self.name}, {self.kind}, {len(self._children)} children)"


class MetricsRegistry:
    """Named metric families; registration is idempotent and type-checked."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Iterable[str],
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        label_names = tuple(labels)
        if not _NAME_RE.match(name):
            raise TelemetryError(f"illegal metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise TelemetryError(f"illegal label name {label!r} on {name}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise TelemetryError(
                        f"metric {name} already registered as {family.kind}"
                        f"{family.label_names}, not {kind}{label_names}"
                    )
                return family
            family = MetricFamily(name, kind, help, label_names, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family with fixed buckets."""
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise TelemetryError(f"histogram buckets must be strictly increasing: {bounds}")
        return self._register(name, "histogram", help, labels, bounds)

    def get(self, name: str) -> MetricFamily | None:
        """The family named ``name``, or None."""
        return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name for stable export output."""
        return sorted(self._families.values(), key=lambda f: f.name)

    def __len__(self) -> int:
        return len(self._families)


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry every default :class:`Telemetry` shares."""
    return _GLOBAL_REGISTRY
