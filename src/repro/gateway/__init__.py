"""repro.gateway — the socket-facing MobiGATE proxy node.

Everything below :mod:`repro.runtime` moves messages between Python
objects; this package puts the runtime behind real TCP sockets, the way
the MobiGATE gateway sits between wireless clients and wired servers:

* a **data plane** (:mod:`repro.gateway.data_plane`): one asyncio
  listener that incrementally parses length-delimited MIME frames
  (:class:`~repro.mime.wire.FrameAssembler`), routes them by
  ``Content-Session``, and enforces end-to-end backpressure — a full
  session parks its readers (pausing socket reads, closing the client's
  TCP window) and sheds expired parks into the conservation ledger;
* a **control plane** (:mod:`repro.gateway.control_plane`): a separate
  loopback server speaking line-delimited JSON for deployment,
  reconfiguration, statistics, and telemetry — management verbs never
  share a listener with data;
* per-session glue (:mod:`repro.gateway.session`) bridging the asyncio
  world to the threaded runtime via the non-blocking
  :meth:`~repro.runtime.message_queue.MessageQueue.try_post` fast path
  and one event-driven egress pump shared by every session;
* scripted link outages at the socket boundary
  (:mod:`repro.gateway.faults`), reusing :class:`repro.faults.plan.LinkFault`.

See ``docs/gateway.md`` for the architecture walk-through and
``examples/gateway_echo.py`` for a complete loopback run.
"""

from repro.gateway.config import GatewayConfig
from repro.gateway.control_plane import ControlPlane, control_request
from repro.gateway.data_plane import ERROR_HEADER, DataPlane
from repro.gateway.faults import LinkOutageGate
from repro.gateway.server import GatewayHandle, GatewayServer
from repro.gateway.session import (
    ADMITTED,
    CONNECTION_HEADER,
    FULL,
    RETRY,
    SHED,
    EgressPump,
    GatewaySession,
    OfferTicket,
)

__all__ = [
    "ADMITTED",
    "CONNECTION_HEADER",
    "ControlPlane",
    "DataPlane",
    "ERROR_HEADER",
    "EgressPump",
    "FULL",
    "GatewayConfig",
    "GatewayHandle",
    "GatewayServer",
    "GatewaySession",
    "LinkOutageGate",
    "OfferTicket",
    "RETRY",
    "SHED",
    "control_request",
]
