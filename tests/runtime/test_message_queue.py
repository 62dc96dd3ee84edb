import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueClosedError
from repro.runtime.message_queue import MessageQueue


class TestBasics:
    def test_fifo(self):
        q = MessageQueue(1000)
        q.post_message("a", 10)
        q.post_message("b", 10)
        assert q.fetch_message() == "a"
        assert q.fetch_message() == "b"

    def test_empty_fetch_none(self):
        assert MessageQueue(100).fetch_message() is None

    def test_len_and_bytes(self):
        q = MessageQueue(1000)
        q.post_message("a", 100)
        q.post_message("b", 200)
        assert len(q) == 2
        assert q.pending_bytes == 300

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MessageQueue(-1)


class TestCapacity:
    def test_full_drops(self):
        q = MessageQueue(100)
        assert q.post_message("a", 80)
        assert not q.post_message("b", 80)  # would exceed
        assert q.dropped == 1

    def test_empty_queue_admits_oversized(self):
        q = MessageQueue(10)
        assert q.post_message("big", 1000)

    def test_zero_capacity_is_rendezvous(self):
        q = MessageQueue(0)
        assert q.post_message("a", 5)
        assert not q.post_message("b", 5)
        q.fetch_message()
        assert q.post_message("b", 5)


class TestAttachment:
    def test_producer_consumer_counts(self):
        q = MessageQueue(100)
        q.incr_producers()
        q.incr_consumers()
        assert q.producer_count == 1
        assert q.consumer_count == 1
        q.decr_producers()
        q.decr_consumers()
        assert q.producer_count == 0

    def test_underflow_rejected(self):
        with pytest.raises(ValueError):
            MessageQueue(1).decr_producers()
        with pytest.raises(ValueError):
            MessageQueue(1).decr_consumers()


class TestCloseAndDrain:
    def test_post_after_close_raises(self):
        q = MessageQueue(100)
        q.close()
        with pytest.raises(QueueClosedError):
            q.post_message("a", 1)

    def test_fetch_drains_then_raises(self):
        q = MessageQueue(100)
        q.post_message("a", 1)
        q.close()
        assert q.fetch_message() == "a"
        with pytest.raises(QueueClosedError):
            q.fetch_message()

    def test_drain(self):
        q = MessageQueue(1000)
        q.post_message("a", 1)
        q.post_message("b", 1)
        assert q.drain() == ["a", "b"]
        assert q.is_empty()
        assert q.pending_bytes == 0


class TestTimeoutContract:
    """The post_message probe flag (module docstring, Figure 6-9)."""

    def full(self):
        q = MessageQueue(10)
        q.post_message("a", 10)
        return q

    def test_zero_timeout_is_a_probe_and_never_counts(self):
        q = self.full()
        t0 = time.monotonic()
        assert not q.post_message("b", 10, probe=True)
        assert time.monotonic() - t0 < 1.0  # no wait at all
        assert q.dropped == 0  # the caller owns the accounting

    def test_probe_succeeds_when_room_exists(self):
        q = MessageQueue(100)
        assert q.post_message("a", 10, probe=True)
        assert q.dropped == 0


class TestConsumerWaiters:
    """The add_waiter wakeup a gateway session hooks on its ingress."""

    def test_post_sets_registered_waiter(self):
        q = MessageQueue(100)
        event = threading.Event()
        q.add_waiter(event)
        assert not event.is_set()
        q.post_message("a", 1)
        assert event.is_set()

    def test_late_registration_sees_existing_traffic(self):
        q = MessageQueue(100)
        q.post_message("a", 1)
        event = threading.Event()
        q.add_waiter(event)  # must not sleep through traffic that beat it
        assert event.is_set()

    def test_close_sets_waiter(self):
        q = MessageQueue(100)
        event = threading.Event()
        q.add_waiter(event)
        q.close()
        assert event.is_set()


class TestConcurrency:
    def test_producer_consumer_threads(self):
        q = MessageQueue(10_000)
        n = 500
        received = []

        def producer():
            for i in range(n):
                while not q.post_message(f"m{i}", 10):
                    pass

        def consumer():
            while len(received) < n:
                msg = q.fetch_message()
                if msg is not None:
                    received.append(msg)

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert received == [f"m{i}" for i in range(n)]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=50), max_size=40))
def test_order_preserved_property(sizes):
    q = MessageQueue(10**9)
    posted = []
    for i, size in enumerate(sizes):
        q.post_message(f"m{i}", size)
        posted.append(f"m{i}")
    fetched = []
    while True:
        msg = q.fetch_message()
        if msg is None:
            break
        fetched.append(msg)
    assert fetched == posted


class TestPostRun:
    """The gateway's run post: never waits for room."""

    def test_success_enqueues_and_counts_posted(self):
        q = MessageQueue(1000)
        assert q.post_run([("a", 10)]) is True
        assert q.posted == 1
        assert q.fetch_message() == "a"

    def test_full_reports_false_and_never_counts_drops(self):
        q = MessageQueue(10)
        q.post_message("a", 10)
        begin = time.perf_counter()
        assert q.post_run([("b", 10)]) is False
        assert time.perf_counter() - begin < 1.0  # did not serve the timeout
        assert q.dropped == 0  # probe contract: the caller owns accounting
        assert q.posted == 1

    def test_closed_queue_raises(self):
        q = MessageQueue(100)
        q.close()
        with pytest.raises(QueueClosedError):
            q.post_run([("a", 10)])

    def test_success_signals_waiters(self):
        q = MessageQueue(1000)
        wake = threading.Event()
        q.add_waiter(wake)
        assert q.post_run([("a", 10)]) is True
        assert wake.wait(1.0)
