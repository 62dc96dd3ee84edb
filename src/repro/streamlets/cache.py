"""The cache streamlet: "suitable caching to minimize the traffic
transiting across a wireless network" (section 1.2.1).

Server side: remembers the payload digest per resource id
(``X-MobiGATE-Resource``).  When the same resource arrives again with an
unchanged digest, the body is replaced by an empty ``X-MobiGATE-Cache:
HIT`` notification — only headers cross the wireless link.  The client
peer (``client_cache``) stores delivered payloads and reconstitutes HIT
messages from its local copy.

Messages without a resource id pass through untouched (nothing to key on).
"""

from __future__ import annotations

import hashlib

from repro.errors import CodecError
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage, payload_size
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext

RESOURCE_HEADER = "X-MobiGATE-Resource"
CACHE_HEADER = "X-MobiGATE-Cache"
PEER_CLIENT_CACHE = "client_cache"

CACHE_DEF = ast.StreamletDef(
    name="cache",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
    ),
    kind=ast.StreamletKind.STATEFUL,
    library="general/cache",
    description="suppress retransmission of unchanged resources",
)


def _digest(message: MimeMessage) -> str:
    body = message.body
    if isinstance(body, str):
        data = body.encode("utf-8")
    elif isinstance(body, bytes | bytearray):
        data = bytes(body)
    else:
        # structured payloads: digest their size+type as a cheap proxy
        data = f"{type(body).__name__}:{payload_size(body)}".encode()
    return hashlib.sha256(data).hexdigest()


class CacheStreamlet(Streamlet):
    """Suppress retransmission of unchanged resources (server half)."""
    peer_id = PEER_CLIENT_CACHE
    cooperative = True

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._seen: dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._seen.clear()
        self.hits = 0
        self.misses = 0

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        resource = message.headers.get(RESOURCE_HEADER)
        if resource is None:
            return [("po", message)]
        digest = _digest(message)
        if self._seen.get(resource) == digest:
            self.hits += 1
            message.set_body(b"")
            message.headers.set(CACHE_HEADER, "HIT")
        else:
            self.misses += 1
            self._seen[resource] = digest
            message.headers.set(CACHE_HEADER, "MISS")
        return [("po", message)]


class ClientCacheStore:
    """The client-side half: reconstitute HIT notifications."""

    def __init__(self):
        self._store: dict[str, tuple[object, str]] = {}

    def apply(self, message: MimeMessage) -> None:
        """Store MISS payloads; reconstitute HIT notifications in place."""
        resource = message.headers.get(RESOURCE_HEADER)
        status = message.headers.get(CACHE_HEADER)
        if resource is None or status is None:
            return
        if status == "HIT":
            try:
                body, content_type = self._store[resource]
            except KeyError:
                raise CodecError(
                    f"cache HIT for unknown resource {resource!r}; client cache cold"
                ) from None
            message.set_body(body, content_type)
        else:
            self._store[resource] = (message.body, str(message.content_type))
        message.headers.remove(CACHE_HEADER)
