"""Encryption streamlet and its client peer transformation.

Encrypts the payload with the from-scratch stream cipher; a per-message
nonce travels in ``X-MobiGATE-Nonce``.  The shared key is configuration
(``ctx.params['key']`` server-side; the client pool is constructed with
the same key) — key distribution is outside the thesis's scope and ours.

The cipher (and numpy under it) is imported when an encryptor is
instantiated, i.e. when a composition naming one is deployed, so a
gateway that serves no encrypted stream never loads it.
"""

from __future__ import annotations

from repro.errors import CodecError
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.runtime.streamlet import Emission, Streamlet, StreamletContext
from repro.util.ids import IdGenerator

NONCE_HEADER = "X-MobiGATE-Nonce"
PEER_DECRYPTOR = "decryptor"
DEFAULT_KEY = b"mobigate-demo-key"

ENCRYPTOR_DEF = ast.StreamletDef(
    name="encryptor",
    ports=(
        ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
        ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
    ),
    kind=ast.StreamletKind.STATELESS,
    library="security/encryptor",
    description="encrypt payloads with a keyed stream cipher",
)

_nonces = IdGenerator("nonce")


def _as_bytes(message: MimeMessage) -> bytes:
    body = message.body
    if isinstance(body, str):
        return body.encode("utf-8")
    if isinstance(body, bytes | bytearray):
        return bytes(body)
    raise CodecError(f"encryptor cannot process {type(body).__name__} payloads")


class Encryptor(Streamlet):
    """Encrypt payloads with the keyed stream cipher; nonces stack per layer."""
    peer_id = PEER_DECRYPTOR

    @staticmethod
    def load() -> type:
        from repro.codecs.cipher import StreamCipher

        return StreamCipher

    def __init__(self, instance_id: str, definition: ast.StreamletDef):
        super().__init__(instance_id, definition)
        self._cipher = self.load()

    def process(self, port: str, message: MimeMessage, ctx: StreamletContext) -> Emission:
        key = ctx.params.get("key", DEFAULT_KEY)
        if isinstance(key, str):
            key = key.encode("utf-8")
        nonce = _nonces.next().encode("ascii")
        cipher = self._cipher(key)
        message.set_body(cipher.encrypt(_as_bytes(message), nonce))
        # nonces *stack*: layered encryption needs one per layer, popped
        # LIFO by the peer decryptors (mirrors the peer-id stack itself)
        current = message.headers.get(NONCE_HEADER)
        value = nonce.decode("ascii")
        message.headers.set(NONCE_HEADER, f"{current},{value}" if current else value)
        return [("po", message)]


def decrypt_message(message: MimeMessage, key: bytes = DEFAULT_KEY) -> None:
    """The peer transformation (used by the client's decryptor).

    Pops the most recent nonce off the stacked header — one decryption per
    encryption layer.
    """
    from repro.codecs.cipher import StreamCipher

    stacked = message.headers.get(NONCE_HEADER)
    if stacked is None:
        raise CodecError(f"message lacks {NONCE_HEADER}; cannot decrypt")
    head, sep, nonce = stacked.rpartition(",")
    body = message.body
    if not isinstance(body, bytes | bytearray):
        raise CodecError("encrypted payload must be bytes")
    cipher = StreamCipher(key)
    message.set_body(cipher.decrypt(bytes(body), nonce.encode("ascii")))
    if sep:
        message.headers.set(NONCE_HEADER, head)
    else:
        message.headers.remove(NONCE_HEADER)
