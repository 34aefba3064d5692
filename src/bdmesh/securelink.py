"""Per-link encryption: identities, key agreement, and frame sealing.

Each node holds a long-lived Ed25519 identity.  A link session starts
with a two-message handshake carrying fresh X25519 ephemerals signed
by the identities, so a session authenticates both ends and leaks
nothing if identity keys are later stolen:

    M1: "BDHS" ver type suite  id_pub  eph_pub  sig(id over fields)
    M2: "BDHS" ver type suite  id_pub  eph_pub  sig(id over fields + M1 eph)

Both sides derive 72 bytes from the X25519 shared secret with
HKDF-SHA256, bound to the full transcript: a send key per direction
plus an 8-byte channel id.  Data frames are then:

    channel_id(8)  counter(8, big-endian)  ChaCha20-Poly1305 ciphertext

with the 16-byte header as associated data and a nonce of four zero
bytes plus the counter.  Receivers keep a 64-frame sliding window over
counters: duplicates inside the window and frames older than the
window are both rejected, with the two cases kept distinct.

Unencrypted links use a trivial framing instead: a 2-byte big-endian
length prefix followed by the payload.  A link's framing does not
depend on its path: the relay carries each frame or handshake message
as the one datagram the direct path would send.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct
from dataclasses import dataclass
from typing import Optional

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import HandshakeError, ProtocolError, ReplayError

HANDSHAKE_MAGIC = b"BDHS"
HANDSHAKE_VERSION = 1
MSG_INIT = 1
MSG_REPLY = 2
SUITE_X25519_ED25519_CHACHA = 0x01

CHANNEL_ID_LEN = 8  # a frame's first bytes: how a receiver finds its link
FRAME_HEADER_LEN = CHANNEL_ID_LEN + 8  # channel_id + counter(8)
FRAME_TAG_LEN = 16
REPLAY_WINDOW = 64

_HS_STRUCT = struct.Struct(">4sBBB32s32s64s")
HANDSHAKE_LEN = _HS_STRUCT.size  # 135

__all__ = [
    "HANDSHAKE_MAGIC",
    "HANDSHAKE_LEN",
    "SUITE_X25519_ED25519_CHACHA",
    "CHANNEL_ID_LEN",
    "FRAME_HEADER_LEN",
    "FRAME_TAG_LEN",
    "REPLAY_WINDOW",
    "Identity",
    "SessionKeys",
    "HandshakeInitiator",
    "HandshakeResponder",
    "FrameCipher",
    "is_handshake",
    "frame_plain",
    "split_plain",
]


class Identity:
    """Long-lived Ed25519 signing identity of one node."""

    def __init__(self, key: Ed25519PrivateKey):
        self._key = key
        self.public_bytes = key.public_key().public_bytes_raw()

    @classmethod
    def generate(cls, rng: Optional[random.Random] = None) -> "Identity":
        seed = rng.randbytes(32) if rng is not None else os.urandom(32)
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    @classmethod
    def from_seed(cls, seed: bytes) -> "Identity":
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    def sign(self, data: bytes) -> bytes:
        return self._key.sign(data)

    @staticmethod
    def verify(public: bytes, signature: bytes, data: bytes) -> bool:
        try:
            Ed25519PublicKey.from_public_bytes(public).verify(signature, data)
            return True
        except (InvalidSignature, ValueError):
            return False


@dataclass(frozen=True)
class SessionKeys:
    """Directional keys plus the shared channel id for one link."""

    channel_id: bytes
    send_key: bytes
    recv_key: bytes
    peer_identity: bytes


def is_handshake(data: bytes) -> bool:
    return data[:5] == HANDSHAKE_MAGIC + bytes([HANDSHAKE_VERSION])


def _new_ephemeral(rng: Optional[random.Random]) -> X25519PrivateKey:
    seed = rng.randbytes(32) if rng is not None else os.urandom(32)
    return X25519PrivateKey.from_private_bytes(seed)


def _signed_body(tag: bytes, suite: int, id_pub: bytes, eph_pub: bytes, extra: bytes) -> bytes:
    return tag + bytes([suite]) + id_pub + eph_pub + extra


def _parse_handshake(data: bytes, want_type: int) -> tuple[int, bytes, bytes, bytes]:
    if len(data) != HANDSHAKE_LEN:
        raise HandshakeError(f"handshake message must be {HANDSHAKE_LEN} bytes, got {len(data)}")
    magic, version, msg_type, suite, id_pub, eph_pub, sig = _HS_STRUCT.unpack(data)
    if magic != HANDSHAKE_MAGIC:
        raise HandshakeError("bad handshake magic")
    if version != HANDSHAKE_VERSION:
        raise HandshakeError(f"unsupported handshake version {version}")
    if msg_type != want_type:
        raise HandshakeError(f"unexpected handshake message type {msg_type}")
    if suite != SUITE_X25519_ED25519_CHACHA:
        raise HandshakeError(f"unsupported cipher suite 0x{suite:02x}")
    return suite, id_pub, eph_pub, sig


def _derive(shared: bytes, transcript: bytes, initiator: bool, peer_identity: bytes) -> SessionKeys:
    okm = HKDF(
        algorithm=SHA256(),
        length=72,
        salt=b"bdmesh-link-v1",
        info=hashlib.sha256(transcript).digest(),
    ).derive(shared)
    k_init, k_resp, channel_id = okm[:32], okm[32:64], okm[64:]
    if initiator:
        return SessionKeys(channel_id, k_init, k_resp, peer_identity)
    return SessionKeys(channel_id, k_resp, k_init, peer_identity)


class HandshakeInitiator:
    """Builds M1, consumes M2 from expected_peer, yields session keys."""

    def __init__(self, identity: Identity, expected_peer: bytes,
                 rng: Optional[random.Random] = None):
        self._identity = identity
        self._expected = expected_peer
        self._eph = _new_ephemeral(rng)
        self._m1: Optional[bytes] = None

    def message1(self) -> bytes:
        eph_pub = self._eph.public_key().public_bytes_raw()
        body = _signed_body(b"bdmesh-hs-m1", SUITE_X25519_ED25519_CHACHA,
                            self._identity.public_bytes, eph_pub, b"")
        self._m1 = _HS_STRUCT.pack(
            HANDSHAKE_MAGIC, HANDSHAKE_VERSION, MSG_INIT, SUITE_X25519_ED25519_CHACHA,
            self._identity.public_bytes, eph_pub, self._identity.sign(body),
        )
        return self._m1

    def consume_message2(self, data: bytes) -> SessionKeys:
        if self._m1 is None:
            raise HandshakeError("message1 not sent yet")
        suite, peer_id, peer_eph, sig = _parse_handshake(data, MSG_REPLY)
        if peer_id != self._expected:
            raise HandshakeError("peer identity does not match the introduction")
        my_eph = self._eph.public_key().public_bytes_raw()
        body = _signed_body(b"bdmesh-hs-m2", suite, peer_id, peer_eph, my_eph)
        if not Identity.verify(peer_id, sig, body):
            raise HandshakeError("bad signature on handshake reply")
        shared = self._eph.exchange(X25519PublicKey.from_public_bytes(peer_eph))
        return _derive(shared, self._m1 + data, True, peer_id)


class HandshakeResponder:
    """Consumes M1 from expected_peer, builds M2, yields session keys."""

    def __init__(self, identity: Identity, expected_peer: bytes,
                 rng: Optional[random.Random] = None):
        self._identity = identity
        self._expected = expected_peer
        self._rng = rng
        self.keys: Optional[SessionKeys] = None

    def consume_message1(self, data: bytes) -> bytes:
        suite, peer_id, peer_eph, sig = _parse_handshake(data, MSG_INIT)
        if peer_id != self._expected:
            raise HandshakeError("peer identity does not match the introduction")
        body = _signed_body(b"bdmesh-hs-m1", suite, peer_id, peer_eph, b"")
        if not Identity.verify(peer_id, sig, body):
            raise HandshakeError("bad signature on handshake init")
        eph = _new_ephemeral(self._rng)
        eph_pub = eph.public_key().public_bytes_raw()
        body2 = _signed_body(b"bdmesh-hs-m2", suite, self._identity.public_bytes,
                             eph_pub, peer_eph)
        reply = _HS_STRUCT.pack(
            HANDSHAKE_MAGIC, HANDSHAKE_VERSION, MSG_REPLY, suite,
            self._identity.public_bytes, eph_pub, self._identity.sign(body2),
        )
        shared = eph.exchange(X25519PublicKey.from_public_bytes(peer_eph))
        self.keys = _derive(shared, data + reply, False, peer_id)
        return reply


class FrameCipher:
    """Seals and opens data frames for one established link."""

    def __init__(self, keys: SessionKeys):
        self.channel_id = keys.channel_id
        self._seal_key = ChaCha20Poly1305(keys.send_key)
        self._open_key = ChaCha20Poly1305(keys.recv_key)
        self._send_counter = 0
        self._highest = 0
        self._window = 0  # bit i set: counter (highest - i) already seen

    def seal(self, payload: bytes) -> bytes:
        self._send_counter += 1
        header = self.channel_id + self._send_counter.to_bytes(8, "big")
        nonce = b"\x00\x00\x00\x00" + header[8:]
        return header + self._seal_key.encrypt(nonce, payload, header)

    def open(self, frame: bytes) -> bytes:
        if len(frame) < FRAME_HEADER_LEN + FRAME_TAG_LEN:
            raise ProtocolError(f"frame of {len(frame)} bytes is too short")
        header = frame[:FRAME_HEADER_LEN]
        if header[:CHANNEL_ID_LEN] != self.channel_id:
            raise ProtocolError("frame addressed to a different channel")
        counter = int.from_bytes(header[8:16], "big")
        if counter <= self._highest:
            offset = self._highest - counter
            if offset >= REPLAY_WINDOW or counter == 0:
                raise ReplayError(f"counter {counter} fell out of the replay window")
            if (self._window >> offset) & 1:
                raise ReplayError(f"counter {counter} already seen (replay)")
        nonce = b"\x00\x00\x00\x00" + header[8:]
        try:
            payload = self._open_key.decrypt(nonce, frame[FRAME_HEADER_LEN:], header)
        except InvalidTag:
            raise ProtocolError("frame failed authentication") from None
        # Only authenticated frames may move the window.
        if counter > self._highest:
            shift = min(counter - self._highest, REPLAY_WINDOW)  # past that, all bits go
            self._window = ((self._window << shift) | 1) & ((1 << REPLAY_WINDOW) - 1)
            self._highest = counter
        else:
            self._window |= 1 << (self._highest - counter)
        return payload


def frame_plain(payload: bytes) -> bytes:
    """Length-prefixed plaintext framing for unencrypted links."""
    if len(payload) > 0xFFFF:
        raise ProtocolError(f"plaintext frame of {len(payload)} bytes exceeds 65535")
    return len(payload).to_bytes(2, "big") + payload


def split_plain(data: bytes) -> bytes:
    """Parse one plaintext datagram frame; the length must match exactly."""
    if len(data) < 2:
        raise ProtocolError("plaintext frame too short")
    n = int.from_bytes(data[:2], "big")
    if len(data) != 2 + n:
        raise ProtocolError(f"plaintext frame length mismatch: header {n}, body {len(data) - 2}")
    return data[2:]
