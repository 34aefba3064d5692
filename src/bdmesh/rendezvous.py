"""Coordinator: the one well-known party every node can reach.

Nodes hold a reliable control channel to the coordinator and speak
newline-delimited JSON, one object per line, at most 8192 bytes per
line.  Client-to-coordinator types: register, ping, introduce_request,
relay_open, relay_data.  Coordinator-to-client types: registered
(carrying the channel's observed endpoint), pong, introduce,
relay_opened, relay_data, error.  Unknown types draw an error reply
and leave the connection open; no error detail echoes the client's
input.  A ping carries an integer nonce in [0, 2**32), which its pong
echoes; any other nonce draws bad-message.  A registration lapses
REGISTRATION_TTL_S after the last register or well-formed ping.

The coordinator also answers observe datagrams on two UDP observer
ports; two vantage ports are what a node needs to classify its NAT
(see traversal.NatClassifier).  An observe carries an integer token in
[0, 2**63), the only kind the classifier sends; any other request is
dropped, so a reply never reflects content the sender chose.

An introduce_request names a registered peer.  The coordinator picks
roles from the two NAT classes and sends both sides an introduce
carrying the session id, the peer's endpoint, identity key, NAT class,
the role, and shared punch parameters:

    self \\ peer   public      easy        hard        udp_blocked/unknown
    public        direct      direct      direct      relay
    easy          direct      direct      prober      relay
    hard          direct      opener      relay       relay
    blocked/unk   relay       relay       relay       relay

Both sides relay: hard-hard has no cheap traversal (both ends would
need huge port fans), and a blocked or unclassified side cannot punch.
A hard side facing an easy one runs the birthday punch: the hard side
opens, the easy side probes (an easy NAT may filter, and the
classifier cannot tell).  A hard side facing a public one needs no
traversal: its direct punch probes the public endpoint from its one
socket, which opens a single mapping, and the public side learns that
mapping from the source of the probe it acks and probes it there, as
an ICE agent learns a peer-reflexive candidate (RFC 8445 section
7.3.1.3).  This assumes a
host classified public accepts unsolicited UDP; one behind a
default-deny stateful firewall looks the same to the two observers,
and with a hard peer its link falls back to the relay when the direct
punch times out.

Relay sessions forward opaque relay_data payloads (base64, at most
1024 raw bytes per line) between the two participants once both sent
relay_open.  relay_data before opening yields no-such-session; a
vanished counterpart yields peer-gone.
"""

from __future__ import annotations

import base64
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .netsim import Endpoint, Host, Network, format_endpoint, parse_endpoint
from .traversal import DEFAULT_PUNCH

NAT_CLASSES = ("public", "easy", "hard", "udp_blocked", "unknown")
ROLES = ("direct", "opener", "prober", "relay")

MAX_NODE_ID = 64
MAX_RELAY_CHUNK = 1024
DEFAULT_CONTROL_PORT = 4500
DEFAULT_OBSERVER_PORTS = (3478, 3479)
REGISTRATION_TTL_S = 60.0

__all__ = [
    "NAT_CLASSES",
    "ROLES",
    "MAX_RELAY_CHUNK",
    "DEFAULT_CONTROL_PORT",
    "DEFAULT_OBSERVER_PORTS",
    "REGISTRATION_TTL_S",
    "DEFAULT_PUNCH",
    "assign_roles",
    "NodeRecord",
    "RelaySession",
    "Coordinator",
]


def assign_roles(class_a: str, class_b: str) -> tuple[str, str]:
    """Role of a and of b given their NAT classes."""
    unusable = ("udp_blocked", "unknown")
    if class_a in unusable or class_b in unusable:
        return "relay", "relay"
    a_hard = class_a == "hard"
    b_hard = class_b == "hard"
    if a_hard and b_hard:
        return "relay", "relay"
    if a_hard and class_b == "easy":
        return "opener", "prober"
    if b_hard and class_a == "easy":
        return "prober", "opener"
    return "direct", "direct"


@dataclass
class NodeRecord:
    node_id: str
    pubkey: bytes
    channel: object
    observed: Endpoint
    expires_s: float
    nat_class: str = "unknown"
    udp_endpoint: Optional[Endpoint] = None


@dataclass
class RelaySession:
    session_id: str
    nodes: tuple[str, str]
    opened: set[str] = field(default_factory=set)
    relayed_bytes: int = 0

    def other(self, node_id: str) -> str:
        a, b = self.nodes
        return b if node_id == a else a


class Coordinator:
    """Transport-agnostic coordinator core.

    Channels are duck-typed: .send(dict), .peer_observed, and writable
    .on_line / .on_close.  Works over simulated channels and over the
    asyncio TCP backend alike.  Session ids come from rng, which
    defaults to the OS generator; Coordinator.sim passes a simulated
    world's seeded one and reads the world's clock for now_fn.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 punch: Optional[dict] = None,
                 now_fn: Callable[[], float] = time.monotonic):
        self.rng = rng or random.SystemRandom()
        self.punch = dict(DEFAULT_PUNCH, **(punch or {}))
        self.now_fn = now_fn
        self.nodes: dict[str, NodeRecord] = {}
        self.sessions: dict[str, RelaySession] = {}
        self._node_by_channel: dict[int, str] = {}
        self.introductions = 0

    # -- plumbing -------------------------------------------------------

    def attach(self, channel) -> None:
        channel.on_line = lambda msg: self.handle(channel, msg)
        channel.on_close = lambda: self._detach(channel)

    def _detach(self, channel) -> None:
        node_id = self._node_by_channel.pop(id(channel), None)
        if node_id is not None:
            record = self.nodes.get(node_id)
            if record is not None and record.channel is channel:
                record.channel = None

    @classmethod
    def sim(cls, net: Network, host: Host, punch: Optional[dict] = None) -> "Coordinator":
        """A coordinator on a simulated host, drawing from the world's rng
        and reading its clock: the control port and both observers."""
        coord = cls(rng=net.rng, punch=punch, now_fn=lambda: net.now_us / 1e6)
        host.listen_channel(DEFAULT_CONTROL_PORT, coord.attach)
        for port in DEFAULT_OBSERVER_PORTS:
            host.bind(coord.on_observe, port)
        return coord

    def on_observe(self, payload: bytes, src: Endpoint, sock) -> None:
        """UDP observer socket handler: reflect the source endpoint back
        to it; anything but a well-formed observe request is dropped."""
        try:
            obj = json.loads(payload)
        except (ValueError, RecursionError):
            return
        if not isinstance(obj, dict) or obj.get("type") != "observe":
            return
        token = obj.get("token")
        if type(token) is not int or not 0 <= token < 1 << 63:
            return
        reply = {"type": "observed", "token": token, "endpoint": format_endpoint(src)}
        sock.send(src, json.dumps(reply, separators=(",", ":")).encode())

    # -- message handling -------------------------------------------------

    def handle(self, channel, msg) -> None:
        if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
            self._error(channel, "bad-message", "every message is an object with a type")
            return
        handler = self._HANDLERS.get(msg["type"])
        if handler is None:
            self._error(channel, "unknown-type", "unknown message type")
            return
        handler(self, channel, msg)

    def _error(self, channel, code: str, detail: str) -> None:
        channel.send({"type": "error", "error": code, "detail": detail})

    def _registered_node(self, channel) -> Optional[NodeRecord]:
        node_id = self._node_by_channel.get(id(channel))
        if node_id is None:
            return None
        return self.nodes.get(node_id)

    def _alive(self, record: Optional[NodeRecord]) -> bool:
        return (record is not None and record.channel is not None
                and record.expires_s > self.now_fn())

    def _on_register(self, channel, msg) -> None:
        node_id = msg.get("node")
        if not isinstance(node_id, str) or not (0 < len(node_id) <= MAX_NODE_ID):
            self._error(channel, "bad-message", f"node must be a 1..{MAX_NODE_ID} char string")
            return
        bound = self._node_by_channel.get(id(channel))
        if bound is not None and bound != node_id:
            # One channel speaks for one node: its record holds the channel.
            self._error(channel, "bad-message", "channel is registered as another node")
            return
        try:
            pubkey = base64.b64decode(msg.get("pubkey_b64", ""), validate=True)
        except (ValueError, TypeError):  # binascii.Error is a ValueError
            pubkey = b""
        if len(pubkey) != 32:
            self._error(channel, "bad-message", "pubkey_b64 must decode to 32 bytes")
            return
        existing = self.nodes.get(node_id)
        if self._alive(existing) and existing.pubkey != pubkey:
            self._error(channel, "identity-conflict", "node is registered with a different key")
            return
        record = NodeRecord(
            node_id=node_id,
            pubkey=pubkey,
            channel=channel,
            observed=channel.peer_observed,
            expires_s=self.now_fn() + REGISTRATION_TTL_S,
        )
        nat_class = msg.get("nat_class")
        if nat_class in NAT_CLASSES:
            record.nat_class = nat_class
        record.udp_endpoint = parse_endpoint(msg.get("udp_endpoint"))
        self.nodes[node_id] = record
        self._node_by_channel[id(channel)] = node_id
        channel.send({"type": "registered", "node": node_id,
                      "observed": format_endpoint(record.observed)})

    def _on_ping(self, channel, msg) -> None:
        nonce = msg.get("nonce")
        if type(nonce) is not int or not 0 <= nonce < 1 << 32:
            self._error(channel, "bad-message", "nonce must be an integer in [0, 2**32)")
            return
        record = self._registered_node(channel)
        if record is not None:
            record.expires_s = self.now_fn() + REGISTRATION_TTL_S
        channel.send({"type": "pong", "nonce": nonce})

    def _on_introduce_request(self, channel, msg) -> None:
        requester = self._registered_node(channel)
        if requester is None:
            self._error(channel, "not-registered", "introduce_request requires registration")
            return
        peer_id = msg.get("peer")
        peer = self.nodes.get(peer_id) if isinstance(peer_id, str) else None
        if not self._alive(peer):
            self._error(channel, "no-such-node", "peer is not registered")
            return
        if peer.node_id == requester.node_id:
            self._error(channel, "bad-message", "cannot introduce a node to itself")
            return
        session_id = self.rng.randbytes(8).hex()
        role_a, role_b = assign_roles(requester.nat_class, peer.nat_class)
        session = RelaySession(session_id, (requester.node_id, peer.node_id))
        self.sessions[session_id] = session
        self.introductions += 1
        for record, other, role in ((requester, peer, role_a), (peer, requester, role_b)):
            record.channel.send({
                "type": "introduce",
                "session_id": session_id,
                "peer": other.node_id,
                "peer_endpoint": format_endpoint(other.udp_endpoint or other.observed),
                "peer_nat": other.nat_class,
                "peer_pubkey_b64": base64.b64encode(other.pubkey).decode(),
                "role": role,
                "punch": dict(self.punch),
            })

    def _session_for(self, channel, msg) -> tuple[Optional[NodeRecord], Optional[RelaySession]]:
        record = self._registered_node(channel)
        if record is None:
            self._error(channel, "not-registered", "relay messages require registration")
            return None, None
        session_id = msg.get("session_id")
        if not isinstance(session_id, str):
            self._error(channel, "bad-message", "session_id must be a string")
            return None, None
        session = self.sessions.get(session_id)
        if session is None or record.node_id not in session.nodes:
            self._error(channel, "no-such-session", "unknown relay session")
            return None, None
        return record, session

    def _on_relay_open(self, channel, msg) -> None:
        record, session = self._session_for(channel, msg)
        if session is None:
            return
        session.opened.add(record.node_id)
        if len(session.opened) == 2:
            for node_id in session.nodes:
                node = self.nodes.get(node_id)
                if self._alive(node):
                    node.channel.send({"type": "relay_opened",
                                       "session_id": session.session_id})

    def _on_relay_data(self, channel, msg) -> None:
        record, session = self._session_for(channel, msg)
        if session is None:
            return
        if record.node_id not in session.opened:
            self._error(channel, "no-such-session", "relay_data before relay_open")
            return
        try:  # a missing or non-string payload is a TypeError
            payload = base64.b64decode(msg.get("payload_b64"), validate=True)
        except (ValueError, TypeError):
            self._error(channel, "bad-message", "payload_b64 must be valid base64")
            return
        if len(payload) > MAX_RELAY_CHUNK:
            self._error(channel, "bad-message",
                        f"relay payload of {len(payload)} bytes exceeds {MAX_RELAY_CHUNK}")
            return
        other = self.nodes.get(session.other(record.node_id))
        if other is None or other.node_id not in session.opened or not self._alive(other):
            self._error(channel, "peer-gone", "relay counterpart is not available")
            return
        session.relayed_bytes += len(payload)
        other.channel.send({"type": "relay_data", "session_id": session.session_id,
                            "payload_b64": msg["payload_b64"]})

    # Client message type -> handler; any other type draws unknown-type.
    _HANDLERS = {
        "register": _on_register,
        "ping": _on_ping,
        "introduce_request": _on_introduce_request,
        "relay_open": _on_relay_open,
        "relay_data": _on_relay_data,
    }
