"""Step a runtime stream off the caller's thread, as the gateway does for a
composition that may block.

:class:`OffLoop` wraps a real standalone
:class:`~repro.gateway.session.GatewaySession` with ``off_loop=True``:
the stream's :class:`~repro.runtime.scheduler.InlineScheduler` runs in
shares on the executor of the session's own egress pump, one share in
flight at a time, the stream lent to it whole.  The pump's private loop
owns the stream between shares (it collects there, and keeps what each
cycle delivers for :meth:`OffLoop.collect` instead of serialising it).

One owner per stream holds here too: the test thread never touches the
stream itself.  :meth:`OffLoop.call` is the owner call — it recalls a
share in flight, which returns before its next view visit, and runs on
the loop once the stream is back — and the stream's posting and
rewiring methods (:data:`ROUTED`) are routed through it, so a test may
call ``stream.post(...)``, ``stream.insert(...)`` or raise an event from
its own thread as it would on a stream it steps itself.  A call made
inside the share (a supervisor's bypass, an event raised mid-step) runs
where it is: the share owns the stream then.  Tests parametrised over
``"inline"`` and ``"threaded"`` use it for ``"threaded"``: the engine
``scheduler="threaded"`` gets for a composition that may block.
"""

from __future__ import annotations

import threading
import time
from functools import partial

from repro.gateway.session import GatewaySession
from repro.runtime.scheduler import InlineScheduler

#: the stream methods routed through the owner call
ROUTED = (
    "post", "on_event", "connect", "disconnect", "disconnect_all",
    "new_streamlet", "new_channel", "insert", "remove_streamlet",
    "extract_streamlet", "replace", "remove_channel", "pause_all",
    "resume_all", "set_param",
)


class _KeepingSession(GatewaySession):
    """A session whose cycles keep the delivered messages, not wire frames."""

    def __init__(self, *args, **kwargs):
        self.kept: list = []
        #: the thread running this session's share, while one runs
        self.stepper: int | None = None
        super().__init__(*args, **kwargs)

    def _serialise(self, delivered, picked, out) -> None:
        self.kept.extend(delivered)

    def _step(self) -> int:
        self.stepper = threading.get_ident()
        try:
            return super()._step()
        finally:
            self.stepper = None


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
        for name in ROUTED:
            setattr(stream, name, self._routed(getattr(stream, name)))

    def call(self, fn, *args, **kwargs):
        """The owner call: ``fn(*args, **kwargs)`` on the loop, the stream back."""
        return self.session.pump.run(partial(fn, *args, **kwargs), self.session)

    def _routed(self, method):
        session = self.session

        def routed(*args, **kwargs):
            if threading.get_ident() == session.stepper:  # the share owns the stream
                return method(*args, **kwargs)
            return self.call(method, *args, **kwargs)

        return routed

    def kick(self) -> None:
        """Mark the session ready: a post straight to the stream marks nothing."""
        self.session.pump.mark_ready(self.session)

    def _idle(self) -> bool:
        share = self.session._share
        if share is not None and not share.done():
            return False
        return self.call(self._quiet)

    def _quiet(self) -> bool:
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

        def take() -> list:
            out, session.kept = session.kept, []
            return out

        return session.pump.run(take)

    def stop(self) -> None:
        """Close the session: leave the pump, wait out a share, end the stream."""
        self.session.close()
