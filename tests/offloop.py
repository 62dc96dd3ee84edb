"""Step a runtime stream off the caller's thread, as the gateway does for a
composition that may block.

:class:`OffLoop` wraps a real standalone
:class:`~repro.gateway.session.GatewaySession` with ``off_loop=True``:
the stream's :class:`~repro.runtime.scheduler.InlineScheduler` runs in
shares on the egress pump's executor, one share in flight at a time,
while the test thread posts and reconfigures.  A share holds the
stream's lock for each view visit, and a reconfiguration from the test
thread waits out the visit in flight; a post from the test thread goes
to an ingress carrier, which keeps a lock of its own.  The pump's cycles
collect on its own loop (under the stream's lock, between shares), so
the session keeps what each cycle delivers for :meth:`OffLoop.collect`
instead of serialising it.  Tests parametrised over ``"inline"`` and
``"threaded"`` use it for ``"threaded"``: the engine ``scheduler="threaded"``
gets for a composition that may block.
"""

from __future__ import annotations

import threading
import time

from repro.gateway.session import GatewaySession
from repro.runtime.scheduler import InlineScheduler


class _KeepingSession(GatewaySession):
    """A session whose cycles keep the delivered messages, not wire frames."""

    def __init__(self, *args, **kwargs):
        self.kept_lock = threading.Lock()
        self.kept: list = []
        super().__init__(*args, **kwargs)

    def _serialise(self, delivered, picked, out) -> None:
        with self.kept_lock:
            self.kept.extend(delivered)


class OffLoop:
    """A stream stepped by the gateway's executor; see the module docstring."""

    def __init__(self, stream, *, batch: int = 8, supervisor=None):
        self.stream = stream
        self.session = _KeepingSession(
            "off-loop", stream, InlineScheduler(stream, batch=batch),
            off_loop=True, requested="threaded", ingress_limit=1 << 30,
        )
        if supervisor is not None:
            self.session.attach_supervisor(supervisor)

    def kick(self) -> None:
        """Mark the session ready: a post straight to the stream marks nothing."""
        self.session.pump.mark_ready(self.session)

    def _idle(self) -> bool:
        share = self.session._share
        if share is not None and not share.done():
            return False
        stream = self.stream
        queues = [channel.queue for view in stream.topology_snapshot().steps
                  for _port, channel in view.inputs]
        queues += [channel.queue for _ref, channel in stream.egress]
        return all(queue.is_empty() for queue in queues)

    def drain(self, *, timeout: float = 5.0, settle: float = 0.01) -> bool:
        """Kick the session until every channel stays empty for ``settle`` s."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.kick()
            time.sleep(0.002)
            if self._idle():
                time.sleep(settle)
                if self._idle():
                    return True
        return False

    def collect(self) -> list:
        """What the cycles delivered since the last call, in delivery order."""
        session = self.session
        with session.kept_lock:
            out, session.kept = session.kept, []
        return out

    def stop(self) -> None:
        """Close the session: leave the pump, wait out a share, end the stream."""
        self.session.close()
