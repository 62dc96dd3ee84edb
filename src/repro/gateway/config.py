"""Gateway tuning knobs, in one immutable-ish bundle.

Every limit that governs how the data plane treats untrusted bytes lives
here, so a test can shrink them to force the backpressure and rejection
paths, and a deployment can widen them without touching code.  The
defaults are sized for the loopback bench (1k concurrent clients, small
messages); see ``docs/gateway.md`` for how each knob maps onto the
framing/backpressure pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mime.wire import DEFAULT_MAX_FRAME_BYTES, DEFAULT_MAX_HEADER_BYTES
from repro.store.base import SQLITE_REMOVED


@dataclass
class GatewayConfig:
    """Addresses and limits for both planes of a :class:`GatewayServer`."""

    #: data plane bind address; port 0 asks the OS for an ephemeral port
    data_host: str = "127.0.0.1"
    data_port: int = 0
    #: control plane bind address — localhost by design: management stays
    #: off the data listener (the Parrot dual-router split)
    control_host: str = "127.0.0.1"
    control_port: int = 0

    #: per-frame ceilings enforced by the incremental parser
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES

    #: backpressure: a session whose pool holds this many resident
    #: messages stops admitting; the reader parks (socket reads pause)
    session_ingress_limit: int = 256
    #: how long a parked frame may wait for room before it is shed into
    #: the drop ledger (seconds)
    park_timeout: float = 0.25

    #: listen(2) backlog for the data plane — sized for connection storms
    #: (the bench opens ~1k loopback clients at once)
    listen_backlog: int = 1024

    #: size of the data plane's receive buffer, hence the most one
    #: ``recv_into`` can return.  One buffer serves every connection, so
    #: the size costs memory once.  A frame that lies whole inside a read
    #: is copied once and one the read cuts is gathered from two, so the
    #: buffer holds several frames of tens of kilobytes; 64 KB against
    #: 256 KB is measured in docs/performance.md ("The socket boundary")
    read_chunk_bytes: int = 256 * 1024
    #: egress frames aimed at a connection whose transport already buffers
    #: this much are dropped (slow-reader protection)
    max_conn_write_buffer: int = 4 * 1024 * 1024

    #: durable state plane: ledger backend (None disables durability;
    #: "memory" / "file" per :func:`repro.store.base.open_store`)
    store_backend: str | None = None
    #: ledger path for the durable (file) backend
    store_path: str | None = None
    #: store fsync policy ("always" / "batch" / "never")
    store_fsync: str = "batch"
    #: attach a recovery Supervisor (retry + dead-letter plane) to every
    #: deployed session; off by default — supervision claims the stream's
    #: fault hooks, which standalone embedders may want for themselves
    supervise: bool = False
    #: per-session dead-letter pool bound (oldest-first eviction);
    #: None leaves the pool unbounded
    dead_letter_capacity: int | None = 1024
    #: drain(): how long to wait for sessions to quiesce before closing
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.session_ingress_limit < 1:
            raise ValueError(
                f"session_ingress_limit must be >= 1, got {self.session_ingress_limit}"
            )
        if self.park_timeout < 0:
            raise ValueError(f"park_timeout must be >= 0, got {self.park_timeout}")
        if self.read_chunk_bytes < 1:
            raise ValueError(f"read_chunk_bytes must be >= 1, got {self.read_chunk_bytes}")
        if self.store_backend == "sqlite":
            raise ValueError(SQLITE_REMOVED)
        if self.store_backend not in (None, "memory", "file"):
            raise ValueError(f"unknown store backend {self.store_backend!r}")
        if self.store_backend == "file" and not self.store_path:
            raise ValueError(
                f"store backend {self.store_backend!r} requires store_path"
            )
        if self.store_fsync not in ("always", "batch", "never"):
            raise ValueError(f"unknown store fsync policy {self.store_fsync!r}")
        if self.dead_letter_capacity is not None and self.dead_letter_capacity < 1:
            raise ValueError(
                f"dead_letter_capacity must be >= 1, got {self.dead_letter_capacity}"
            )
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {self.drain_timeout}")
