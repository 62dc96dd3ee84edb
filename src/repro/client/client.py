"""The MobiGATE client facade (Figure 3-3).

Thin by design: a distributor over a peer pool, a delivered-message list,
and counters.  ``receive`` is what the network emulator calls when a
message finishes crossing the wireless link.

The facade also tracks the server's **stream epoch** (the transactional
reconfiguration extension, ``Content-Session: sess-N;epoch=K``): peer
registrations staged with :meth:`stage_epoch` are applied at exactly the
message boundary where the new epoch first appears on the wire, so the
client's peer chain swaps in lock-step with the server's composition.
Messages naming a peer this client does not (or no longer) know are
parked as :class:`ClientDeadLetter` entries instead of unwinding the
caller.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.client.client_pool import ClientStreamletPool
from repro.client.distributor import MessageDistributor
from repro.client.peers import PeerStreamlet
from repro.errors import ClientError, HeaderError, PeerNotFoundError
from repro.mime.message import MimeMessage
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: a staged registration: factory to (re)register, or None to unregister
PeerRegistration = Callable[[], PeerStreamlet] | None


@dataclass
class ClientDeadLetter:
    """One received message the client parked instead of raising.

    ``reason`` is structured: ``unknown-peer`` (never registered),
    ``stale-peer`` (the message rode an epoch older than the client's —
    its peer chain has already been swapped out), or ``malformed-epoch``
    (unparseable ``Content-Session`` epoch parameter).
    """

    reason: str
    peer_id: str | None
    epoch: int | None
    message: MimeMessage
    error: Exception


class MobiGateClient:
    """The mobile-host side: receive, reverse-process, deliver.

    Pass the server's :class:`~repro.telemetry.Telemetry` facade to join
    client-side peer spans onto the traces the server started (the
    ``Content-Trace`` header survives the wire) and to count received
    messages/bytes in the same registry.  Without one (or with
    ``NULL_TELEMETRY``) :attr:`telemetry` is ``None``: the client is
    unobserved.
    """

    def __init__(
        self,
        *,
        pool: ClientStreamletPool | None = None,
        on_deliver: Callable[[MimeMessage], None] | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.pool = pool if pool is not None else ClientStreamletPool()
        self.telemetry: Telemetry | None = None if telemetry is NULL_TELEMETRY else telemetry
        self.distributor = MessageDistributor(self.pool, telemetry=self.telemetry)
        if self.telemetry is not None:
            self._msg_counter, self._byte_counter = self.telemetry.client_counters()
        else:
            self._msg_counter = self._byte_counter = None
        self._on_deliver = on_deliver
        self.delivered: list[MimeMessage] = []
        self.bytes_received = 0
        #: highest stream epoch observed on the wire (0 = pre-epoch traffic)
        self.epoch = 0
        #: epoch -> peer registrations to apply when that epoch arrives
        self._staged: dict[int, dict[str, PeerRegistration]] = {}
        #: messages parked instead of raised, oldest first
        self.dead_letters: list[ClientDeadLetter] = []

    def register_peer(self, peer_id: str, factory: Callable[[], PeerStreamlet]) -> None:
        """Register/replace a peer streamlet factory on this client."""
        self.pool.register(peer_id, factory)

    # -- epoch protocol ---------------------------------------------------------------

    def stage_epoch(
        self, epoch: int, registrations: dict[str, PeerRegistration]
    ) -> None:
        """Stage peer changes to apply when ``epoch`` first hits the wire.

        ``registrations`` maps peer id to a factory (register/replace) or
        ``None`` (unregister).  The swap happens inside :meth:`receive`
        at the first message stamped with an epoch >= ``epoch`` — exactly
        the boundary where the server's committed composition starts
        producing, so no message is reverse-processed by the wrong chain.
        """
        if epoch <= self.epoch:
            raise ClientError(
                f"cannot stage epoch {epoch}: client already at epoch {self.epoch}"
            )
        staged = self._staged.setdefault(epoch, {})
        staged.update(registrations)

    def _advance_epoch(self, msg_epoch: int) -> None:
        """Apply every staged registration due at or before ``msg_epoch``."""
        if msg_epoch <= self.epoch:
            return
        for due in sorted(e for e in self._staged if e <= msg_epoch):
            for peer_id, factory in self._staged.pop(due).items():
                if factory is None:
                    self.pool.unregister(peer_id)
                else:
                    self.pool.register(peer_id, factory)
        self.epoch = msg_epoch

    # -- the receive path -------------------------------------------------------------

    def receive(self, message: MimeMessage) -> list[MimeMessage]:
        """Process one message off the link; returns app-level messages.

        Malformed epochs and unknown/stale peer ids park the message on
        :attr:`dead_letters` (returning ``[]``) rather than raising: a
        mid-swap straggler must not crash the delivery loop.
        """
        size = message.total_size()
        self.bytes_received += size
        if self._msg_counter is not None:
            self._msg_counter.inc()
            self._byte_counter.inc(size)
        try:
            msg_epoch = message.headers.epoch
        except HeaderError as exc:
            self._park("malformed-epoch", None, None, message, exc)
            return []
        if msg_epoch is not None:
            self._advance_epoch(msg_epoch)
        try:
            results = self.distributor.distribute(message)
        except PeerNotFoundError as exc:
            stale = msg_epoch is not None and msg_epoch < self.epoch
            self._park(
                "stale-peer" if stale else "unknown-peer",
                getattr(exc, "peer_id", None),
                msg_epoch,
                message,
                exc,
            )
            return []
        self.delivered.extend(results)
        if self._on_deliver is not None:
            for result in results:
                self._on_deliver(result)
        return results

    def _park(
        self,
        reason: str,
        peer_id: str | None,
        epoch: int | None,
        message: MimeMessage,
        error: Exception,
    ) -> None:
        self.dead_letters.append(
            ClientDeadLetter(
                reason=reason, peer_id=peer_id, epoch=epoch,
                message=message, error=error,
            )
        )
        if self.telemetry is not None:
            self.telemetry.client_dead_letter_counter(reason).inc()

    def take_delivered(self) -> list[MimeMessage]:
        """Drain and return everything delivered so far."""
        out = self.delivered
        self.delivered = []
        return out
