"""The Message Distributor (section 3.4.1).

Parses each incoming message's peer stack and dispatches it to the
matching client streamlets for reverse processing, inside-out (LIFO) —
the last server-side transformation is undone first.  A peer may split a
message (the unbundler), in which case each fragment continues with *its
own* remaining stack.

Like the servlet model the thesis cites, the distributor supports multiple
worker threads: :meth:`start` spawns workers that drain an inbound queue
and feed the delivery callback; :meth:`distribute` is the synchronous
single-message form used by the inline experiments.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable

from repro.client.client_pool import ClientStreamletPool
from repro.errors import DistributorError
from repro.mime.message import MimeMessage
from repro.telemetry import Telemetry

Delivery = Callable[[MimeMessage], None]


class MessageDistributor:
    """Reverse-process messages through their peer stacks."""

    def __init__(self, pool: ClientStreamletPool, *, telemetry: Telemetry | None = None):
        self._pool = pool
        self._telemetry = telemetry
        self._inbound: queue.Queue[MimeMessage | None] = queue.Queue()
        self._workers: list[threading.Thread] = []
        self._delivery: Delivery | None = None
        self.distributed = 0
        #: (peer_id, message, exception) for messages whose reverse
        #: processing raised — the client-side dead-letter list; routing
        #: errors (unknown peer, bad envelope) still propagate
        self.quarantined: list[tuple[str, MimeMessage, Exception]] = []
        self.peer_failures = 0

    # -- synchronous API -------------------------------------------------------------

    def distribute(self, message: MimeMessage) -> list[MimeMessage]:
        """Fully reverse-process one message; returns the app-level result."""
        if not isinstance(message, MimeMessage):
            raise DistributorError(
                f"distributor received {type(message).__name__}, not a MimeMessage"
            )
        out: list[MimeMessage] = []
        self._process(message, out)
        self.distributed += 1
        return out

    def _process(self, message: MimeMessage, out: list[MimeMessage]) -> None:
        tm = self._telemetry
        while True:
            peer_id = message.headers.pop_peer()
            if peer_id is None:
                out.append(message)
                return
            peer = self._pool.acquire(peer_id)
            try:
                if tm is not None:
                    t0 = time.perf_counter()
                    results = peer.reverse(message)
                    tm.peer_hop(peer_id, message, results, time.perf_counter() - t0)
                else:
                    results = peer.reverse(message)
            except Exception as exc:  # one bad message must not kill a worker
                self.peer_failures += 1
                self.quarantined.append((peer_id, message, exc))
                return
            if len(results) == 1 and results[0] is message:
                continue  # transformed in place; keep unwinding its stack
            for result in results:
                self._process(result, out)
            return

    # -- threaded API (the servlet-style worker model) -----------------------------------

    def start(self, delivery: Delivery, *, workers: int = 2) -> None:
        """Spawn worker threads feeding ``delivery`` (the servlet model)."""
        if self._workers:
            raise DistributorError("distributor already started")
        if workers < 1:
            raise DistributorError(f"need at least one worker, got {workers}")
        self._delivery = delivery
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"distributor-{index}", daemon=True
            )
            self._workers.append(thread)
            thread.start()

    def submit(self, message: MimeMessage) -> None:
        """Queue a message for the worker threads."""
        if not self._workers:
            raise DistributorError("distributor not started; use distribute()")
        self._inbound.put(message)

    def _worker(self) -> None:
        while True:
            message = self._inbound.get()
            if message is None:
                return
            try:
                for result in self.distribute(message):
                    assert self._delivery is not None
                    self._delivery(result)
            finally:
                self._inbound.task_done()

    def stop(self) -> None:
        """Stop and join the worker threads."""
        for _ in self._workers:
            self._inbound.put(None)
        for thread in self._workers:
            thread.join(timeout=2)
        self._workers.clear()

    def drain(self) -> None:
        """Block until the inbound queue is fully processed."""
        self._inbound.join()
