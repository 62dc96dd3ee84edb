"""Batched histogram folds: the same buckets and moments as one sample at a time.

``Histogram.observe`` buffers samples and folds them every
``FOLD_BATCH`` samples and before every read.  These tests hold the fold
to a per-sample reference, pin the empty export, and check that a reader
folding while a writer observes loses no sample.
"""

import math
import random
import sys
import threading
from bisect import bisect_left

import pytest

from repro.telemetry.export import snapshot, to_prometheus
from repro.telemetry.metrics import FOLD_BATCH, MetricsRegistry
from repro.util.stats import RunningStats

BOUNDS = (0.001, 0.01, 0.1, 1.0)


class Reference:
    """The fold as it was done before batching: one sample at a time."""

    def __init__(self, bounds):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.stats = RunningStats()

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.stats.add(value)


def make(bounds=BOUNDS):
    return MetricsRegistry().histogram("h_seconds", "x", buckets=bounds).unlabelled()


def assert_same(hist, ref):
    assert hist.counts == ref.counts
    stats = hist.stats
    assert stats.count == ref.stats.count == hist.count
    assert stats.minimum == ref.stats.minimum
    assert stats.maximum == ref.stats.maximum
    for got, want in ((stats.mean, ref.stats.mean), (stats.stdev, ref.stats.stdev)):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)


def edge_values(rng: random.Random) -> list[float]:
    """Samples exactly at every bound, below the first, in the overflow bucket,
    and spread between them."""
    values = list(BOUNDS) * 3 + [0.0, -0.5, 1e-9, 5.0, 1e6, 1.0000001]
    values += [rng.uniform(-0.01, 2.0) for _ in range(200)]
    values += [10 ** rng.uniform(-7, 1) for _ in range(200)]
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("read_every", [None, 1, 7, FOLD_BATCH, FOLD_BATCH + 1, 150])
def test_batched_fold_matches_a_per_sample_fold(seed, read_every):
    rng = random.Random(seed)
    hist, ref = make(), Reference(BOUNDS)
    for i, value in enumerate(edge_values(rng), start=1):
        hist.observe(value)
        ref.observe(value)
        if read_every and i % read_every == 0:
            assert_same(hist, ref)  # a read folds a partial batch
    assert_same(hist, ref)


@pytest.mark.parametrize("n", [1, 2, FOLD_BATCH - 1, FOLD_BATCH, FOLD_BATCH + 1, 3 * FOLD_BATCH])
def test_fold_boundaries(n):
    rng = random.Random(n)
    hist, ref = make(), Reference(BOUNDS)
    for _ in range(n):
        value = rng.choice(BOUNDS + (rng.uniform(0, 2),))
        hist.observe(value)
        ref.observe(value)
    assert_same(hist, ref)


def test_equal_samples_have_no_spread():
    hist, ref = make(), Reference(BOUNDS)
    for _ in range(3 * FOLD_BATCH + 5):
        hist.observe(0.1)
        ref.observe(0.1)
    assert_same(hist, ref)
    assert hist.stats.stdev == 0.0 and hist.stats.mean == 0.1


def test_a_fold_runs_every_batch_without_a_read():
    hist = make()
    for _ in range(FOLD_BATCH):
        hist.observe(0.005)
    assert hist._pending == []  # folded by the observe that filled the batch
    hist.observe(0.005)
    assert hist._pending == [0.005]


def test_the_empty_export_is_unchanged():
    registry = MetricsRegistry()
    registry.histogram("h_seconds", "help text", buckets=(0.5, 1.0)).unlabelled()
    [family] = snapshot(registry)["families"]
    assert family["samples"] == [{
        "labels": {}, "count": 0, "sum": 0.0,
        "min": None, "max": None, "mean": None, "stdev": None,
        "buckets": [{"le": 0.5, "count": 0}, {"le": 1.0, "count": 0},
                    {"le": None, "count": 0}],
    }]
    assert to_prometheus(registry) == (
        "# HELP h_seconds help text\n"
        "# TYPE h_seconds histogram\n"
        'h_seconds_bucket{le="0.5"} 0\n'
        'h_seconds_bucket{le="1"} 0\n'
        'h_seconds_bucket{le="+Inf"} 0\n'
        "h_seconds_sum 0\n"
        "h_seconds_count 0\n"
    )


def test_a_sample_appended_during_a_fold_waits_for_the_next_one():
    # the window a concurrent observe can hit, opened on purpose: the
    # buffer gains a sample just after the fold has taken its batch
    class Interleaved(list):
        late = [0.5]

        def __getitem__(self, index):
            items = super().__getitem__(index)
            if isinstance(index, slice) and self.late:
                self.append(self.late.pop())
            return items

    hist, ref = make(), Reference(BOUNDS)
    for value in (0.0005, 0.005, 0.05):
        ref.observe(value)
        hist.observe(value)
    hist._pending = Interleaved(hist._pending)
    ref.observe(0.5)
    assert hist.count == 3  # the fold took three; the fourth arrived after
    assert list(hist._pending) == [0.5]
    assert_same(hist, ref)


def test_a_reader_exporting_beside_a_writer_loses_no_sample():
    registry = MetricsRegistry()
    hist = registry.histogram("h_seconds", "x", buckets=BOUNDS).unlabelled()
    samples = 30_000
    done = threading.Event()
    seen: list[int] = []
    errors: list[BaseException] = []

    def writer():
        try:
            for i in range(samples):
                hist.observe((i % 1500) / 1000)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                exported = snapshot(registry)["families"][0]["samples"][0]
                seen.append(exported["buckets"][-1]["count"])
                to_prometheus(registry)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert seen, "the reader never ran"
    assert seen == sorted(seen)  # a read never sees fewer samples than one before it
    assert hist.count == samples
    assert sum(hist.counts) == samples
    assert hist.cumulative()[-1][1] == samples
    assert hist.sum == pytest.approx(sum((i % 1500) / 1000 for i in range(samples)))
