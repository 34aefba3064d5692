"""Node agent: everything one overlay member does.

Lifecycle: connect the control channel, register, classify the local
NAT against the coordinator's two UDP observers, then re-register with
the verdict and the externally observed endpoint.  After that the
agent answers introductions (its own requests and its peers') by
running one traversal session per peer:

    role direct   symmetric probe exchange at the peer's endpoint (also
                  a hard side facing a public or cone peer, whose path
                  ends at the source of the ack or confirm that finished
                  it)
    role opener   birthday punch, pinhole side (we are hard, the peer easy)
    role prober   birthday punch, probing side (we are easy, the peer hard)
    role relay    no punch; both ends open a relay session instead

A failed punch falls back to the relay.  Once a path exists, links
configured for encryption run the identity-pinned handshake (the
lexicographically smaller node id initiates) and all payload rides
sealed frames; unencrypted links use plain length-prefixed frames.
Either way the result is an OverlayLink that sends and receives
payload chunks of at most 1024 bytes end to end.  Each handshake
message and frame is one datagram, the same bytes on either path: sent
from the path's socket, or as one relay_data line whose payload goes
to the session unchanged.

A session's state is its LinkSession's own fields.  path is None
until a punch or the relay finds one, then "direct" or "relayed";
failure is set when the session deadline passes with no path; link is
set once the link is up, until close.  A session with a path or a
failure is terminal; its punch machine is closed by then (by its hit,
the relay opening or the deadline), so no punch result comes later.

close() stops every timer, machine and socket the agent started and
its control channel; sessions (with role and path) and links stay
readable.  A session holds no reference back to its agent.

All datagrams of one agent share its primary socket, except that every
opener probes from the agent's one pinhole pool, opened by the first
opener session and grown only for a larger open_ports; endpoint-
dependent mapping keys a mapping by destination too (RFC 4787 section
4.1), so the pool tears fresh pinholes toward each easy peer.  The pool
closes with the agent.  Demux order on arrival: a probe to its
session's machine (by traversal.probe_session_id); a sealed frame by
its channel id, and anything else from a route (socket, source), to
that session as a handshake message or frame.  Anything unrouted goes
to the classifier, or on a pinhole to the live openers, where data
from an acked prober confirms a punch and so gains a route.
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (HandshakeError, InvalidParametersError, PortsExhaustedError,
                     ProtocolError, ReplayError)
from .netsim import Endpoint, Network, format_endpoint, parse_endpoint
from .rendezvous import DEFAULT_CONTROL_PORT, DEFAULT_OBSERVER_PORTS, ROLES
from .securelink import (
    CHANNEL_ID_LEN,
    FrameCipher,
    HandshakeInitiator,
    HandshakeResponder,
    Identity,
    frame_plain,
    is_handshake,
    split_plain,
)
from .traversal import (
    BirthdayOpener,
    BirthdayProber,
    DirectPunch,
    NatClassifier,
    PunchConfig,
    probe_session_id,
)

LINK_CHUNK = 1024
HANDSHAKE_RETRY_S = 1.0
HANDSHAKE_TRIES = 5
SESSION_GRACE_S = 5.0
KEEPALIVE_S = 20.0

__all__ = ["LINK_CHUNK", "OverlayLink", "LinkSession", "NodeAgent"]


class OverlayLink:
    """Established payload path to one peer_id, direct or relayed."""

    def __init__(self, session: "LinkSession"):
        self._session = session
        self.peer_id = session.peer_id
        self.path = session.path
        self.encrypted = session.encrypted
        self.on_payload: Optional[Callable[[bytes], None]] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, payload: bytes) -> None:
        ls = self._session
        for i in range(0, len(payload), LINK_CHUNK) or (0,):
            chunk = payload[i:i + LINK_CHUNK]
            ls.send_body(ls.cipher.seal(chunk) if ls.encrypted else frame_plain(chunk))
        self.bytes_sent += len(payload)

    def _deliver(self, chunk: bytes) -> None:
        self.bytes_received += len(chunk)
        if self.on_payload is not None:
            self.on_payload(chunk)


@dataclass
class LinkSession:
    """Internal state for one peer: traversal, handshake, framing."""

    channel: object                     # the agent's control channel, for relay_data
    session_id: bytes
    peer_id: str
    role: str
    peer_ep: Optional[Endpoint]
    peer_pubkey: bytes
    encrypted: bool
    cfg: PunchConfig
    machine: object = None
    path: Optional[str] = None          # "direct" | "relayed", once found
    failure: Optional[str] = None       # why no path was found in time
    sock: object = None                 # direct path socket
    cipher: Optional[FrameCipher] = None    # set with link, encrypted only
    link: Optional[OverlayLink] = None
    initiator: bool = False
    # Initiator: its HandshakeInitiator.  Responder: (M1, M2) once it
    # has answered, so a retried M1 gets the same M2.
    handshake: object = None
    handshake_tries: int = 0
    m1_retry: object = None             # initiator: the timer of its next M1
    deadline: object = None

    @property
    def terminal(self) -> bool:
        """A path was found or the session gave up; either is final."""
        return self.path is not None or self.failure is not None

    def send_body(self, body: bytes) -> None:
        """One datagram: on the direct path, or in one relay_data line."""
        if self.path == "direct":
            self.sock.send(self.peer_ep, body)
            return
        self.channel.send({"type": "relay_data", "session_id": self.session_id.hex(),
                           "payload_b64": base64.b64encode(body).decode()})

    def close(self) -> None:
        """Stop the deadline, the M1 retry and the punch machine and drop
        the link, which still holds this session: a send on it meets the
        closed socket or channel."""
        for timer in (self.deadline, self.m1_retry):
            if timer is not None:
                timer.cancel()
        if self.machine is not None:
            self.machine.close()
        self.link = None


class NodeAgent:
    """One overlay node: registration, traversal, links.

    transport must offer call_later(delay_us, fn) -> timer,
    open_socket(handler) -> socket, open_sockets(handler, n) -> n
    sockets on ephemeral ports, send_burst(socks, dst, payloads)
    (payloads[i] from socks[i] to dst, in order), .rng and .now_us; a socket
    offers send(dst, payload), close(), local_port and a writable
    handler; channel must offer send(dict) with writable on_line.  A
    simulated Host and the asyncio backend's transport satisfy these.
    """

    def __init__(self, node_id: str, transport, channel, local_ip: str,
                 observers: list[Endpoint],
                 identity: Optional[Identity] = None,
                 default_encrypted: bool = True,
                 on_event: Optional[Callable[[dict], None]] = None):
        self.node_id = node_id
        self.transport = transport
        self.channel = channel
        self.local_ip = local_ip
        self.rng: random.Random = transport.rng
        self.identity = identity or Identity.generate(self.rng)
        self.default_encrypted = default_encrypted
        self.relay_only_peers: set[str] = set()
        self.observers = observers
        self.on_event = on_event

        self.primary = None
        self._pinholes: list = []           # opener pinholes, shared by every opener
        self._keepalive_timer = None
        self._classifier = None
        self.nat_class = "unknown"
        self.observed: Optional[Endpoint] = None
        self.ready = False
        self.links: dict[str, OverlayLink] = {}
        self.sessions: dict[bytes, LinkSession] = {}
        self._session_by_peer: dict[str, LinkSession] = {}
        self._routes: dict[tuple[object, Endpoint], LinkSession] = {}
        self._channels: dict[bytes, LinkSession] = {}
        self._registered_count = 0

        channel.on_line = self._on_control

    @classmethod
    def sim(cls, net: Network, host, coord_host, node_id: str, **kw) -> "NodeAgent":
        """Wire an agent to a simulated host (its transport) and coordinator."""
        channel = net.connect_channel(host, coord_host, DEFAULT_CONTROL_PORT)
        observers = [(coord_host.ip, p) for p in DEFAULT_OBSERVER_PORTS]
        return cls(node_id, host, channel, host.ip, observers, **kw)

    def _emit(self, event: str, **info) -> None:
        if self.on_event is not None:
            self.on_event(dict(info, event=event))

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self.primary = self.transport.open_socket(self._on_datagram)
        self._register()
        self._classifier = NatClassifier(
            self.transport, self.primary, (self.local_ip, self.primary.local_port),
            self.observers, self._on_classified, rng=self.rng)
        self._classifier.start()
        self._keepalive_timer = self.transport.call_later(
            int(KEEPALIVE_S * 1_000_000), self._keepalive)

    def close(self) -> None:
        """Stop the keepalive and the classifier; close every session, the
        pinholes, the primary socket and the control channel."""
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
        if self._classifier is not None:
            self._classifier.close()
        for ls in self.sessions.values():
            ls.close()
        for pinhole in self._pinholes:
            pinhole.close()
        if self.primary is not None:
            self.primary.close()
        self.channel.close()

    def _register(self) -> None:
        msg = {"type": "register", "node": self.node_id,
               "pubkey_b64": base64.b64encode(self.identity.public_bytes).decode()}
        if self.nat_class != "unknown" or self.observed is not None:
            msg["nat_class"] = self.nat_class
            if self.observed is not None:
                msg["udp_endpoint"] = format_endpoint(self.observed)
        self.channel.send(msg)

    def _keepalive(self) -> None:
        self.channel.send({"type": "ping", "nonce": self.rng.getrandbits(32)})
        self._keepalive_timer = self.transport.call_later(
            int(KEEPALIVE_S * 1_000_000), self._keepalive)

    def _on_classified(self, verdict: str, observed: Optional[Endpoint]) -> None:
        self.nat_class = verdict
        self.observed = observed
        self._register()  # report the verdict

    def connect(self, peer_id: str) -> None:
        """Ask the coordinator for an introduction to peer_id."""
        self.channel.send({"type": "introduce_request", "node": self.node_id,
                           "peer": peer_id})

    # -- control channel ---------------------------------------------------

    def _on_control(self, msg: dict) -> None:
        if not isinstance(msg, dict):
            return
        kind = msg.get("type")
        if kind == "registered":
            self._registered_count += 1
            if self._registered_count >= 2:
                self.ready = True
                self._emit("ready", nat_class=self.nat_class)
        elif kind == "introduce":
            self._on_introduce(msg)
        elif kind == "relay_opened":
            self._on_relay_opened(msg)
        elif kind == "relay_data":
            self._on_relay_data(msg)
        elif kind == "error":
            self._emit("coordinator_error", error=msg.get("error"), detail=msg.get("detail"))
        # pong and anything else: nothing to do

    # -- traversal ------------------------------------------------------

    def _on_introduce(self, msg: dict) -> None:
        try:
            session_id = bytes.fromhex(msg["session_id"])
            peer_id = msg["peer"]
            peer_ep = parse_endpoint(msg["peer_endpoint"])
            peer_pubkey = base64.b64decode(msg["peer_pubkey_b64"])
            role = msg["role"]
            punch = msg.get("punch", {})
        except (KeyError, TypeError, ValueError):
            return
        if (len(session_id) != 8 or not isinstance(peer_id, str) or peer_ep is None
                or role not in ROLES):
            return
        if peer_id in self.relay_only_peers:
            role = "relay"  # plan said this link never punches
        old = self._session_by_peer.get(peer_id)
        if session_id in self.sessions or (old is not None and not old.terminal):
            return  # one session per id, one live session per peer
        try:
            cfg = PunchConfig.from_params(punch)
        except (InvalidParametersError, ValueError, TypeError, OverflowError) as exc:
            self._emit("session_failed", peer=peer_id, reason=f"bad punch params: {exc}")
            return
        ls = LinkSession(
            channel=self.channel, session_id=session_id, peer_id=peer_id, role=role,
            peer_ep=peer_ep, peer_pubkey=peer_pubkey,
            encrypted=self.default_encrypted, cfg=cfg,
        )
        ls.initiator = self.node_id < peer_id
        self.sessions[session_id] = ls
        self._session_by_peer[peer_id] = ls
        deadline_us = int((cfg.max_duration_s + SESSION_GRACE_S) * 1_000_000)
        ls.deadline = self.transport.call_later(deadline_us, lambda: self._session_deadline(ls))
        if role == "direct":
            ls.machine = DirectPunch(self.transport, self.primary, session_id, peer_ep,
                                     self._punch_done(ls), self.rng)
        elif role == "opener" and (pinholes := self._open_pinholes(cfg.open_ports)):
            ls.machine = BirthdayOpener(self.transport, pinholes, session_id, peer_ep, cfg,
                                        self._punch_done(ls), self.rng)
        elif role == "prober":
            ls.machine = BirthdayProber(self.transport, self.primary, session_id,
                                        peer_ep[0], cfg, self._punch_done(ls), self.rng)
        else:  # the relay role, or an opener that got no pinholes
            self._request_relay(ls)
            return
        ls.machine.start()

    def _open_pinholes(self, n: int) -> list:
        """The first n sockets of the pinhole pool, which grows to n; none
        when the host's ports or the process's descriptors run out."""
        try:
            self._pinholes += self.transport.open_sockets(
                self._on_datagram, max(0, n - len(self._pinholes)))
        except (PortsExhaustedError, OSError):
            return []
        return self._pinholes[:n]

    def _punch_done(self, ls: LinkSession):
        def done(ok: bool, sock, peer: Optional[Endpoint], why: str) -> None:
            if not ok:
                self._request_relay(ls)
                return
            ls.sock = sock
            ls.peer_ep = peer
            self._routes[(sock, peer)] = ls
            self._path_found(ls, "direct")
        return done

    def _request_relay(self, ls: LinkSession) -> None:
        self.channel.send({"type": "relay_open", "session_id": ls.session_id.hex()})

    def _on_relay_opened(self, msg: dict) -> None:
        ls = self._session_by_sid_hex(msg.get("session_id"))
        if ls is None or ls.terminal:
            return
        if ls.machine is not None:
            ls.machine.close()
        self._path_found(ls, "relayed")

    def _on_relay_data(self, msg: dict) -> None:
        ls = self._session_by_sid_hex(msg.get("session_id"))
        if ls is None or ls.path != "relayed":
            return
        try:
            data = base64.b64decode(msg.get("payload_b64", ""))
        except (ValueError, TypeError):
            return
        self._on_body(ls, data)

    def _session_by_sid_hex(self, sid) -> Optional[LinkSession]:
        if not isinstance(sid, str):
            return None
        try:
            return self.sessions.get(bytes.fromhex(sid))
        except ValueError:
            return None

    def _session_deadline(self, ls: LinkSession) -> None:
        if not ls.terminal:
            ls.failure = "deadline"
            if ls.machine is not None:
                ls.machine.close()
        self._emit("session_failed", peer=ls.peer_id,
                   reason=ls.failure or "handshake-timeout")

    # -- link bring-up -----------------------------------------------------

    def _path_found(self, ls: LinkSession, path: str) -> None:
        ls.path = path
        if not ls.encrypted:
            self._link_up(ls)
        elif ls.initiator:
            ls.handshake = HandshakeInitiator(self.identity, ls.peer_pubkey, rng=self.rng)
            self._send_m1(ls)
        # The responder waits for M1.

    def _send_m1(self, ls: LinkSession) -> None:
        if ls.handshake_tries >= HANDSHAKE_TRIES:
            return  # the session deadline will report the failure
        ls.handshake_tries += 1
        ls.send_body(ls.handshake.message1())
        ls.m1_retry = self.transport.call_later(int(HANDSHAKE_RETRY_S * 1_000_000),
                                                lambda: self._send_m1(ls))

    def _on_body(self, ls: LinkSession, body: bytes) -> None:
        """A handshake message (encrypted links only), a sealed frame or
        a plain frame, whichever path it came by; anything that does not
        parse is dropped."""
        if ls.encrypted and is_handshake(body):
            self._on_handshake_body(ls, body)
            return
        if ls.link is None:
            return
        try:
            body = ls.cipher.open(body) if ls.encrypted else split_plain(body)
        except (ProtocolError, ReplayError):
            return
        ls.link._deliver(body)

    def _on_handshake_body(self, ls: LinkSession, body: bytes) -> None:
        if ls.initiator:
            if ls.link is not None:
                return
            try:
                keys = ls.handshake.consume_message2(body)
            except HandshakeError:
                return
            self._link_up(ls, keys)
        elif ls.handshake is not None:
            # One M1 per session.  An initiator's retries are byte-identical
            # and get the same M2; any other M1 (one replayed from an earlier
            # session between the same identities still verifies) is dropped.
            m1, m2 = ls.handshake
            if body == m1:
                ls.send_body(m2)
        else:
            responder = HandshakeResponder(self.identity, ls.peer_pubkey, rng=self.rng)
            try:
                reply = responder.consume_message1(body)
            except HandshakeError:
                return
            ls.handshake = (body, reply)
            ls.send_body(reply)
            self._link_up(ls, responder.keys)

    def _link_up(self, ls: LinkSession, keys=None) -> None:
        if keys is not None:
            ls.cipher = FrameCipher(keys)
            self._channels[keys.channel_id] = ls
        ls.link = OverlayLink(ls)
        self.links[ls.peer_id] = ls.link
        ls.deadline.cancel()
        if ls.m1_retry is not None:
            ls.m1_retry.cancel()
        self._emit("link_up", peer=ls.peer_id, path=ls.path,
                   encrypted=ls.encrypted,
                   probes=ls.machine.probes_sent if ls.machine is not None else 0)

    # -- datagram demux ---------------------------------------------------

    def _on_datagram(self, data: bytes, src: Endpoint, sock) -> None:
        session_id = probe_session_id(data)
        if session_id is not None:
            ls = self.sessions.get(session_id)
            if ls is not None and ls.machine is not None:
                ls.machine.on_datagram(data, src, sock)
            return
        ls = self._channels.get(data[:CHANNEL_ID_LEN]) or self._routes.get((sock, src))
        if ls is None and sock is not self.primary:
            # On a pinhole: maybe data confirming an opener, which routes it.
            for other in self.sessions.values():
                if other.role == "opener" and other.machine is not None:
                    other.machine.on_datagram(data, src, sock)
            ls = self._routes.get((sock, src))
        if ls is not None:
            self._on_body(ls, data)
        elif sock is self.primary:
            self._classifier.on_datagram(data, src, sock)
