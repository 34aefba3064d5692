"""Hole-punch state machines.

Peers that need no birthday punch run a symmetric direct punch: each
sends one probe every DIRECT_INTERVAL_S at the other's registered
endpoint until a three-way probe/ack/confirm completes, and keeps the
source of the ack or confirm that finished it as the peer's endpoint.
A probe from another source moves its probes to that source.  That
covers two public or easy (endpoint-independent mapping) peers, and a
hard peer facing a public one: the hard side's probe opens one mapping
toward the public endpoint, the public side acks it at its source,
probes it there, and so learns the hard side's mapping toward it.

The interesting case is one side behind a hard NAT (endpoint-dependent
mapping, exact-endpoint filtering).  Its observed port is useless: a
fresh mapping on a fresh port appears for every destination.  Instead
the hard side becomes the "opener": it binds `open_ports` local
sockets and sends one probe from each toward the easy side's fixed
endpoint, tearing `open_ports` pinholes at uniformly random external
ports.  The easy side becomes the "prober": from one fixed socket it
probes distinct ports of the hard side's public address, drawn without
replacement, at `probe_rate` per second.  The chance that `a` probes
find one of `b` pinholes among `k` candidate ports is exactly the
collision law in the probability module, so the defaults (256 open
ports, 100 probes/s) give even odds within two seconds and better
than 99.9% within the twenty-second budget.

Probe datagrams are 22 bytes:

    "BDHP"  version(1)  kind(1)  session_id(8)  nonce(8)

with kinds PROBE(1), PROBE_ACK(2, echoing the probe's nonce) and
CONFIRM(3, echoing the ack's nonce).  Anything that does not parse is
ignored.  The opener ignores PROBE_ACK, so establishment is driven by
prober probes finding pinholes.  When the prober's own NAT filters
unsolicited datagrams (the case the collision law describes), the
opener's probes reach it only from ports it has already swept, and it
ignores them.  A prober that is public or behind a NAT that does not
filter hears the opener's probes from unswept pinholes; like an ICE
triggered check (RFC 8445 section 7.3.1.4) it answers the first one
with an ordinary indexed PROBE straight back to that pinhole, so the
link comes up in one round trip instead of a sweep.  The opener also
treats a non-probe datagram on a punched socket as an implicit
confirm, which covers a lost CONFIRM followed by data, but only from
an endpoint whose PROBE it acked on that socket, so a stray datagram
cannot take over a punch.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import InvalidParametersError, PortsExhaustedError
from .netsim import Endpoint, parse_endpoint
from .probability import PortSpace, iter_ports, probe_count

PROBE_MAGIC = b"BDHP"
PROBE_VERSION = 1
KIND_PROBE = 1
KIND_PROBE_ACK = 2
KIND_CONFIRM = 3

_PROBE_STRUCT = struct.Struct(">4sBB8s8s")
PROBE_LEN = _PROBE_STRUCT.size  # 22

MAX_OPEN_PORTS = 4096
MAX_PROBE_RATE = 1000.0

DIRECT_INTERVAL_S = 0.1  # direct punch: one probe per interval until the timeout
DIRECT_TIMEOUT_S = 5.0
CONFIRM_REPEAT = 3  # CONFIRM copies; the prober spaces them, the direct punch does not
CONFIRM_SPACING_S = 0.05
CLASSIFY_TRIES = 3  # NatClassifier rounds of observe datagrams, and their spacing
CLASSIFY_RETRY_S = 0.5
REFRESH_INTERVAL_S = 15.0  # opener re-sends its probes: half the common 30 s mapping TTL

__all__ = [
    "PROBE_MAGIC",
    "PROBE_LEN",
    "KIND_PROBE",
    "KIND_PROBE_ACK",
    "KIND_CONFIRM",
    "pack_probe",
    "parse_probe",
    "PunchConfig",
    "DEFAULT_PUNCH",
    "NatClassifier",
    "DirectPunch",
    "BirthdayOpener",
    "BirthdayProber",
]


def pack_probe(kind: int, session_id: bytes, nonce: bytes) -> bytes:
    return _PROBE_STRUCT.pack(PROBE_MAGIC, PROBE_VERSION, kind, session_id, nonce)


def parse_probe(data: bytes) -> Optional[tuple[int, bytes, bytes]]:
    """Returns (kind, session_id, nonce), or None for anything malformed."""
    if len(data) != PROBE_LEN or not data.startswith(PROBE_MAGIC):
        return None
    _, version, kind, session_id, nonce = _PROBE_STRUCT.unpack(data)
    if version != PROBE_VERSION or kind not in (KIND_PROBE, KIND_PROBE_ACK, KIND_CONFIRM):
        return None
    return kind, session_id, nonce


# Wire name of each punch parameter a coordinator sends -> its PunchConfig field.
_PARAM_FIELDS = {"open_ports": "open_ports", "rate": "probe_rate", "max_seconds": "max_duration_s"}


@dataclass(frozen=True)
class PunchConfig:
    """Knobs for one traversal attempt.

    open_ports is the pinhole count the opener maintains; probe_rate
    and max_duration_s bound the prober, whose total budget is
    floor(probe_rate * max_duration_s) distinct ports drawn from space.
    The coordinator sends the first three under their wire names
    (DEFAULT_PUNCH), and from_params is their one parser.  How often the
    opener refreshes its mappings is REFRESH_INTERVAL_S, not a knob.
    """

    open_ports: int = 256
    probe_rate: float = 100.0
    max_duration_s: float = 20.0
    space: PortSpace = field(default_factory=PortSpace)

    def __post_init__(self) -> None:
        if not (1 <= self.open_ports <= min(MAX_OPEN_PORTS, self.space.size)):
            raise InvalidParametersError(
                f"open_ports must lie in [1, {min(MAX_OPEN_PORTS, self.space.size)}], got {self.open_ports}")
        if not (0.0 < self.probe_rate <= MAX_PROBE_RATE):
            raise InvalidParametersError(
                f"probe_rate must lie in (0, {MAX_PROBE_RATE}], got {self.probe_rate}")
        if self.max_duration_s <= 0:
            raise InvalidParametersError("durations must be positive")
        if self.probe_budget > self.space.size:
            raise InvalidParametersError(
                f"budget of {self.probe_budget} probes exceeds the {self.space.size}-port space; "
                "lower probe_rate or max_duration_s")

    @property
    def probe_budget(self) -> int:
        return probe_count(self.probe_rate, self.max_duration_s)

    @classmethod
    def from_params(cls, params: dict) -> "PunchConfig":
        """Config from wire-named punch parameters; one left out keeps its
        default and an unknown name is ignored.  Parsed JSON may hold 100
        for 100.0, so each value is cast to its default's type."""
        return cls(**{f: type(getattr(cls, f))(params[name])
                      for name, f in _PARAM_FIELDS.items() if name in params})


DEFAULT_PUNCH = {name: getattr(PunchConfig, f) for name, f in _PARAM_FIELDS.items()}


class NatClassifier:
    """Learns the local NAT class by asking two observers what they see.

    Both observers answering with the socket's own local endpoint
    means no translation (public).  Identical answers that differ from
    the local endpoint mean one stable mapping (easy).  Divergent
    answers mean per-destination mappings (hard).  One answer is
    inconclusive (unknown); none means UDP goes nowhere (udp_blocked).
    """

    def __init__(self, transport, sock, local: Endpoint, observers: list[Endpoint],
                 on_done: Callable[[str, Optional[Endpoint]], None],
                 rng: random.Random):
        if len(observers) != 2:
            raise InvalidParametersError("classification needs exactly two observers")
        self._transport = transport
        self._sock = sock
        self._local = local
        self._observers = observers
        self._on_done = on_done
        self._tokens = [rng.getrandbits(63) for _ in observers]
        self._answers: list[Optional[Endpoint]] = [None, None]
        self._round = 0
        self._timer = None
        self._done = False

    def start(self) -> None:
        self._send_round()

    def _send_round(self) -> None:
        self._round += 1
        for i, obs in enumerate(self._observers):
            if self._answers[i] is None:
                line = json.dumps({"type": "observe", "token": self._tokens[i]},
                                  separators=(",", ":")).encode()
                self._sock.send(obs, line)
        self._timer = self._transport.call_later(
            int(CLASSIFY_RETRY_S * 1_000_000),
            self._send_round if self._round < CLASSIFY_TRIES else self._finish)

    def on_observed(self, obj: dict) -> None:
        """Feed a parsed {"type": "observed", ...} reply."""
        if self._done:
            return
        token = obj.get("token")
        ep = parse_endpoint(obj.get("endpoint"))
        if ep is None:
            return
        for i, want in enumerate(self._tokens):
            if token == want and self._answers[i] is None:
                self._answers[i] = ep
        if all(a is not None for a in self._answers):
            self._finish()

    def _finish(self) -> None:
        self._done = True
        if self._timer is not None:
            self._timer.cancel()
        a, b = self._answers
        if a is None and b is None:
            verdict, observed = "udp_blocked", None
        elif a is None or b is None:
            verdict, observed = "unknown", a or b
        elif a == b == self._local:
            verdict, observed = "public", a
        elif a == b:
            verdict, observed = "easy", a
        else:
            verdict, observed = "hard", a
        self._on_done(verdict, observed)


class _Punch:
    """Lifecycle shared by the punch machines.

    A machine reports once, through on_done(ok, sock, peer, why):
    _finish marks it done, cancels its repeating timer and its
    deadline, then calls on_done.  Datagrams for the session on the
    agent's shared socket reach on_datagram; the opener's pinholes have
    a handler of their own.
    """

    def __init__(self, transport, sock, session_id: bytes, cfg: PunchConfig, on_done):
        self._transport = transport
        self._sock = sock
        self._session_id = session_id
        self._cfg = cfg
        self._on_done = on_done
        self._timer = None
        self._deadline = None
        self.probes_sent = 0
        self.done = False
        self.established_peer: Optional[Endpoint] = None

    def _start_deadline(self, seconds: float) -> None:
        self._deadline = self._transport.call_later(int(seconds * 1_000_000), self._timeout)

    def on_datagram(self, data: bytes, src: Endpoint) -> None:
        """A datagram for this session on the agent's shared socket."""

    def _timeout(self) -> None:
        if not self.done:
            self._finish(False, self._sock, None, "timeout")

    def _finish(self, ok: bool, sock, peer: Optional[Endpoint], why: str) -> None:
        self.done = True
        self.established_peer = peer
        for t in (self._timer, self._deadline):
            if t is not None:
                t.cancel()
        self._on_done(ok, sock, peer, why)


class DirectPunch(_Punch):
    """Symmetric probe exchange toward a known peer endpoint.

    A PROBE of the session from another source moves the probes there:
    the peer reaches us from that source, so its NAT lets an answer in
    (a peer-reflexive candidate, RFC 8445 section 7.3.1.3).  Facing a
    hard peer, whose NAT filters probes at its registered endpoint, this
    is how the public side still finishes when every CONFIRM is lost:
    the peer acks its probes even after it has finished.
    """

    def __init__(self, transport, sock, session_id: bytes, peer: Endpoint,
                 cfg: PunchConfig, on_done, rng: random.Random):
        super().__init__(transport, sock, session_id, cfg, on_done)
        self._peer = peer
        self._rng = rng
        self._sent_nonces: set[bytes] = set()

    def start(self) -> None:
        self._start_deadline(DIRECT_TIMEOUT_S)
        self._tick()

    def _tick(self) -> None:
        nonce = self._rng.randbytes(8)
        self._sent_nonces.add(nonce)
        self._sock.send(self._peer, pack_probe(KIND_PROBE, self._session_id, nonce))
        self.probes_sent += 1
        self._timer = self._transport.call_later(int(DIRECT_INTERVAL_S * 1_000_000), self._tick)

    def on_datagram(self, data: bytes, src: Endpoint) -> None:
        parsed = parse_probe(data)
        if parsed is None or parsed[1] != self._session_id:
            return
        kind, _, nonce = parsed
        if kind == KIND_PROBE:
            self._sock.send(src, pack_probe(KIND_PROBE_ACK, self._session_id, nonce))
            if not self.done:
                self._peer = src  # where the peer is reachable: probe it there
            return
        if self.done:
            return
        if kind == KIND_PROBE_ACK and nonce in self._sent_nonces:
            for _ in range(CONFIRM_REPEAT):
                self._sock.send(src, pack_probe(KIND_CONFIRM, self._session_id, nonce))
            self._finish(True, self._sock, src, "direct")
        elif kind == KIND_CONFIRM:
            self._finish(True, self._sock, src, "direct")


class BirthdayOpener(_Punch):
    """Hard-NAT side: tears many pinholes and waits for a probe to land.

    Each of open_ports sockets sends one probe at the prober's fixed
    endpoint, allocating a uniformly random external port on the local
    endpoint-dependent NAT.  The mapping is their purpose; a prober
    that hears one from a port it has not swept answers it with a
    triggered check.  Packed once, they go out as one transport
    send_burst, in start and again every REFRESH_INTERVAL_S so mappings
    outlive their idle TTL.  When the sockets cannot be opened (the
    host's ephemeral ports or the process's descriptors run out), the
    opener finishes at once, not ok, with reason "no-sockets".

    Only a (socket, endpoint) pair whose PROBE the opener acked can
    establish the link, by CONFIRM or by implicit data; anything else
    arriving on a pinhole is dropped.  On success every other pinhole
    is closed and the kept socket passes to the owner of on_done, which
    may install its own handler there; a datagram that confirmed
    implicitly is then handed to that handler.
    """

    def __init__(self, transport, session_id: bytes, prober_endpoint: Endpoint,
                 cfg: PunchConfig, on_done, rng: random.Random):
        super().__init__(transport, None, session_id, cfg, on_done)
        self._prober = prober_endpoint
        self._rng = rng
        self._sockets: list = []
        self._probes: list[bytes] = []
        self._acked: set[tuple[object, Endpoint]] = set()

    def start(self) -> None:
        n = self._cfg.open_ports
        try:
            self._sockets = self._transport.open_sockets(self._on_datagram, n)
        except (PortsExhaustedError, OSError):
            self._finish(False, None, None, "no-sockets")
            return
        # The same bytes, and the same rng state after, as n draws of 8.
        nonces = self._rng.randbytes(8 * n)
        head = pack_probe(KIND_PROBE, self._session_id, bytes(8))[:-8]
        self._probes = [head + nonces[i:i + 8] for i in range(0, 8 * n, 8)]
        self._start_deadline(self._cfg.max_duration_s)
        self._send_all()

    def _send_all(self) -> None:
        self._transport.send_burst(self._sockets, self._prober, self._probes)
        self.probes_sent += len(self._probes)
        self._timer = self._transport.call_later(
            int(REFRESH_INTERVAL_S * 1_000_000), self._send_all)

    def _on_datagram(self, data: bytes, src: Endpoint, sock) -> None:
        parsed = parse_probe(data)
        if parsed is None:
            # Data from an acked prober means its CONFIRMs were lost.
            if not self.done and (sock, src) in self._acked:
                self._finish(True, sock, src, "birthday")
                sock.handler(data, src, sock)
            return
        kind, session_id, nonce = parsed
        if session_id != self._session_id:
            return
        if kind == KIND_PROBE:
            sock.send(src, pack_probe(KIND_PROBE_ACK, self._session_id, nonce))
            self._acked.add((sock, src))
        elif kind == KIND_CONFIRM and not self.done and (sock, src) in self._acked:
            self._finish(True, sock, src, "birthday")

    def _finish(self, ok: bool, sock, peer: Optional[Endpoint], why: str) -> None:
        for pinhole in self._sockets:
            if pinhole is not sock:
                pinhole.close()
        self._sockets = []
        super()._finish(ok, sock, peer, why)


class BirthdayProber(_Punch):
    """Easy side: sweeps random distinct ports of the opener's address.

    Probe nonces are the probe index, so an ack is validated by simple
    range check.  The budget is floor(probe_rate * max_duration_s)
    ports drawn without replacement; if it runs out early the prober
    keeps listening until the deadline for acks still in flight.  Each
    port is drawn from the schedule (iter_ports) at the tick that
    sends it, so the swept ports are always a prefix of
    schedule_ports(cfg.space, cfg.probe_budget, schedule_seed).

    Triggered check: the first well-formed PROBE of this session that
    comes from the opener's address and from a port not yet swept gets
    one PROBE sent straight back to its source.  It takes the next
    index and counts against the budget, but draws no port from the
    schedule.  A prober whose NAT filters only ever hears the opener
    from swept ports, so it never sends one.
    """

    def __init__(self, transport, sock, session_id: bytes, opener_ip: str,
                 cfg: PunchConfig, on_done, rng: random.Random,
                 schedule_seed: Optional[int] = None):
        super().__init__(transport, sock, session_id, cfg, on_done)
        self._opener_ip = opener_ip
        if schedule_seed is None:
            schedule_seed = rng.getrandbits(63)
        self._budget = cfg.probe_budget
        self._ports = iter_ports(cfg.space, self._budget, schedule_seed)
        self._interval_us = max(1, round(1_000_000 / cfg.probe_rate))
        self._next = 0
        self._swept: set[int] = set()
        self._triggered = False
        self._head = pack_probe(KIND_PROBE, session_id, bytes(8))[:-8]  # all but the nonce

    def start(self) -> None:
        self._start_deadline(self._cfg.max_duration_s)
        self._tick()

    def _tick(self) -> None:
        index = self._next
        if self.done or index >= self._budget:
            return
        self._next = index + 1
        self.probes_sent += 1
        port = next(self._ports)
        self._swept.add(port)
        self._sock.send((self._opener_ip, port), self._head + index.to_bytes(8, "big"))
        if index + 1 < self._budget:
            self._timer = self._transport.call_later(self._interval_us, self._tick)

    def _triggered_check(self, data: bytes, src: Endpoint) -> None:
        parsed = parse_probe(data)
        index = self._next
        if (parsed is None or parsed[1] != self._session_id or self.done
                or index >= self._budget or src[1] in self._swept):
            return
        self._triggered = True
        self._next = index + 1
        self.probes_sent += 1
        self._sock.send(src, self._head + index.to_bytes(8, "big"))

    def on_datagram(self, data: bytes, src: Endpoint) -> None:
        if len(data) != PROBE_LEN:
            return
        kind = data[5]
        if kind == KIND_PROBE:
            # The opener's PROBEs: only the first from its address can count.
            if not self._triggered and src[0] == self._opener_ip:
                self._triggered_check(data, src)
            return
        if kind != KIND_PROBE_ACK:
            return
        parsed = parse_probe(data)
        if parsed is None or parsed[1] != self._session_id or self.done:
            return
        nonce = parsed[2]
        if int.from_bytes(nonce, "big") >= self._next:
            return
        self._send_confirm(src, nonce, CONFIRM_REPEAT)
        self._finish(True, self._sock, src, "birthday")

    def _send_confirm(self, peer: Endpoint, nonce: bytes, remaining: int) -> None:
        self._sock.send(peer, pack_probe(KIND_CONFIRM, self._session_id, nonce))
        if remaining > 1:
            self._transport.call_later(int(CONFIRM_SPACING_S * 1_000_000),
                                       lambda: self._send_confirm(peer, nonce, remaining - 1))
