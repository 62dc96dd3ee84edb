"""Model-based (stateful) testing of MessageQueue against a pure model.

Hypothesis drives random operation sequences — post, post a run, fetch,
drain, close —
and after every step the real queue must agree with a trivially correct
list-based model on contents, byte accounting, and error behaviour.  The
same machine runs against a shared queue and a single-owner one: the two
regimes differ in who may touch the queue, never in what it does.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from hypothesis import strategies as st

from repro.errors import QueueClosedError
from repro.runtime.message_queue import MessageQueue

CAPACITY = 500


class QueueMachine(RuleBasedStateMachine):
    """Random walk over queue operations with a reference model."""

    def __init__(self, owned: bool = False):
        super().__init__()
        self.queue = MessageQueue(CAPACITY, owned=owned)
        self.model: list[tuple[str, int]] = []
        self.closed = False
        self.counter = 0

    # -- operations ------------------------------------------------------------

    @rule(size=st.integers(min_value=1, max_value=200))
    def post(self, size):
        msg_id = f"m{self.counter}"
        self.counter += 1
        model_bytes = sum(s for _, s in self.model)
        expect_admit = not self.model or model_bytes + size <= CAPACITY
        if self.closed:
            with pytest.raises(QueueClosedError):
                self.queue.post_message(msg_id, size)
            return
        admitted = self.queue.post_message(msg_id, size)
        assert admitted == expect_admit
        if admitted:
            self.model.append((msg_id, size))

    @rule(sizes=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=4))
    def post_run(self, sizes):
        run = [(f"m{self.counter + i}", size) for i, size in enumerate(sizes)]
        self.counter += len(run)
        if self.closed:
            with pytest.raises(QueueClosedError):
                self.queue.post_run(run)
            return
        # all or nothing: an empty queue takes the run whole
        model_bytes = sum(s for _, s in self.model)
        expect_admit = not self.model or model_bytes + sum(sizes) <= CAPACITY
        dropped = self.queue.dropped
        assert self.queue.post_run(run) == expect_admit
        assert self.queue.dropped == dropped  # a refused run is the caller's to book
        if expect_admit:
            self.model.extend(run)

    @rule()
    def fetch(self):
        if self.closed and not self.model:
            with pytest.raises(QueueClosedError):
                self.queue.fetch_message()
            return
        got = self.queue.fetch_message()
        if self.model:
            expected_id, _ = self.model.pop(0)
            assert got == expected_id
        else:
            assert got is None

    @rule()
    def drain(self):
        if self.closed:
            return
        drained = self.queue.drain()
        assert drained == [msg_id for msg_id, _ in self.model]
        self.model.clear()

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        self.queue.close()
        self.closed = True

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def lengths_agree(self):
        assert len(self.queue) == len(self.model)

    @invariant()
    def bytes_agree(self):
        assert self.queue.pending_bytes == sum(s for _, s in self.model)

    @invariant()
    def emptiness_agrees(self):
        assert self.queue.is_empty() == (not self.model)


@pytest.fixture(params=[False, True], ids=["shared", "owned"])
def owned(request):
    return request.param


def test_queue_machine(owned):
    run_state_machine_as_test(
        lambda: QueueMachine(owned),
        settings=settings(max_examples=60, stateful_step_count=40, deadline=None),
    )
