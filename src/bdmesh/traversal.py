"""Hole-punch state machines.

Peers that need no birthday punch run a symmetric direct punch: each
sends one probe every DIRECT_INTERVAL_S at the other's registered
endpoint until a three-way probe/ack/confirm completes, and keeps the
source of the ack or confirm that finished it as the peer's endpoint.
A probe from another source moves its probes to that source.  That
covers two public, cone or easy (endpoint-independent mapping) peers,
and a hard peer facing a public or cone one, which does not filter by
port: the hard side's probe opens one mapping toward the peer's
endpoint, the peer acks it at its source, probes it there, and so
learns the hard side's mapping toward it.

The interesting case is one side behind a hard NAT (endpoint-dependent
mapping, exact-endpoint filtering).  Its observed port is useless: a
fresh mapping on a fresh port appears for every destination.  Instead
the hard side becomes the "opener": it sends one probe from each of
`open_ports` local sockets (its node's one pinhole pool) toward the
easy side's fixed endpoint, tearing `open_ports` pinholes at uniformly
random external ports, fresh ones toward each easy peer.  The easy
side becomes the "prober": from one fixed socket it probes distinct
ports of the hard side's public address, drawn without replacement,
at `probe_rate` per second.  The chance that `a` probes
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
ignores them.  A prober that does not filter after all (classed easy
because its change-port answer was lost) hears the opener's probes
from unswept pinholes; like an ICE triggered check (RFC 8445 section
7.3.1.4) it answers the first one with an ordinary indexed PROBE
straight back to that pinhole, so the link comes up in one round trip
instead of a sweep.  The opener also treats a non-probe datagram on a
pinhole as an implicit confirm, which covers a lost CONFIRM followed
by data, but only from an endpoint whose PROBE it acked on that
pinhole, so a stray datagram cannot take over a punch.

Every machine here, NatClassifier too, takes datagrams through one
on_datagram(data, src, sock), from its own sockets and from the agent's
alike; no punch machine opens or closes one.  Only this module reads
probe and observe bytes.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import InvalidParametersError
from .netsim import MAX_IP_TEXT, Endpoint, format_endpoint, parse_endpoint
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
    "PROBE_MAGIC", "PROBE_LEN", "KIND_PROBE", "KIND_PROBE_ACK", "KIND_CONFIRM",
    "pack_probe", "parse_probe", "probe_session_id", "parse_observe", "pack_observed",
    "OBSERVE_LEN", "PunchConfig", "DEFAULT_PUNCH", "NatClassifier", "DirectPunch",
    "BirthdayOpener", "BirthdayProber",
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


def probe_session_id(data: bytes) -> Optional[bytes]:
    """The session id field of anything shaped like a probe, else None."""
    return data[6:14] if len(data) == PROBE_LEN and data.startswith(PROBE_MAGIC) else None


def parse_observe(data: bytes) -> Optional[tuple[int, bool]]:
    """(token, change_port) of an observer's request, or None for anything
    but an observe with a token in [0, 2**63) and a boolean change_port."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict) or obj.get("type") != "observe":
        return None
    token, change_port = obj.get("token"), obj.get("change_port", False)
    if type(token) is not int or not 0 <= token < 1 << 63 or type(change_port) is not bool:
        return None
    return token, change_port


def pack_observed(token: int, endpoint: Endpoint) -> bytes:
    """An observer's reply: the source endpoint it saw, under the request's token."""
    return json.dumps({"type": "observed", "token": token, "endpoint": format_endpoint(endpoint)},
                      separators=(",", ":")).encode()


# The longest observed reply: the largest token and the longest address.
OBSERVE_LEN = len(pack_observed((1 << 63) - 1, ("x" * MAX_IP_TEXT, 65535)))


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

    Each round sends an observe from the socket to both observers.  The
    first round also sends one observe flagged change_port from a fresh
    probe socket to the first observer alone; the coordinator answers it
    from the second observer, a port that socket never contacted, so the
    answer gets in only if nothing filters by port (RFC 5780 section
    4.4).  The probe socket must be fresh: the socket also sends to the
    second observer, which would let that answer through any filter.

    Both observers answering with the socket's own local endpoint and
    the change-port answer arriving means no translation and no filter
    (public).  Identical answers that differ from the local endpoint
    mean one stable mapping; with the change-port answer it does not
    filter by port (cone), and without one within a round trip after
    them it may (easy; so is an address behind a default-deny
    firewall).  Divergent answers mean per-destination mappings (hard),
    decided at once.  One answer is inconclusive (unknown); none means
    UDP goes nowhere (udp_blocked).  Every request is padded to
    OBSERVE_LEN, the longest reply it can draw.
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
        # One token per observer, then the change-port request's.
        self._tokens = [rng.getrandbits(63) for _ in range(3)]
        self._answers: list[Optional[Endpoint]] = [None, None, None]
        self._probe = None
        self._round = 0
        self._sent_us = 0
        self._timer = None

    def start(self) -> None:
        self._probe = self._transport.open_socket(self.on_datagram)
        self._probe.send(self._observers[0], self._request(2))
        self._send_round()

    def _request(self, i: int) -> bytes:
        msg = {"type": "observe", "token": self._tokens[i]}
        if i == 2:  # the change-port request
            msg["change_port"] = True
        return json.dumps(msg, separators=(",", ":")).encode().ljust(OBSERVE_LEN)

    def _send_round(self) -> None:
        self._round += 1
        self._sent_us = self._transport.now_us
        for i, obs in enumerate(self._observers):
            if self._answers[i] is None:
                self._sock.send(obs, self._request(i))
        self._timer = self._transport.call_later(
            int(CLASSIFY_RETRY_S * 1_000_000),
            self._send_round if self._round < CLASSIFY_TRIES else self._finish)

    def on_datagram(self, data: bytes, src: Endpoint, sock) -> None:
        # On the probe socket, only from the one port it never contacted.
        if self._on_done is None or (sock is self._probe and src != self._observers[1]):
            return
        try:
            obj = json.loads(data)
        except (ValueError, RecursionError):
            return
        if not isinstance(obj, dict) or obj.get("type") != "observed":
            return
        token = obj.get("token")
        i = self._tokens.index(token) if token in self._tokens else None
        ep = parse_endpoint(obj.get("endpoint"))
        if i is None or ep is None or self._answers[i] is not None:
            return
        self._answers[i] = ep
        a, b, change_port = self._answers
        if a is None or b is None:
            return
        if a != b or change_port is not None:
            self._finish()
        else:  # it filled the second mapping answer: wait one round trip more
            self._timer.cancel()
            self._timer = self._transport.call_later(
                self._transport.now_us - self._sent_us, self._finish)

    def close(self) -> None:
        """Cancel the timer, close the probe socket, report no verdict."""
        if self._timer is not None:
            self._timer.cancel()
        if self._probe is not None:
            self._probe.close()
        self._on_done = None

    def _finish(self) -> None:
        on_done = self._on_done
        self.close()
        a, b, change_port = self._answers
        if a is None and b is None:
            verdict, observed = "udp_blocked", None
        elif a is None or b is None:
            verdict, observed = "unknown", a or b
        elif a != b:
            verdict, observed = "hard", a
        elif change_port is None:
            verdict, observed = "easy", a
        elif a == self._local:
            verdict, observed = "public", a
        else:
            verdict, observed = "cone", a
        on_done(verdict, observed)


class _Punch:
    """Lifecycle shared by the punch machines.

    A machine reports once, through on_done(ok, sock, peer, why):
    _finish stops it (_Punch.close, so what a subclass's own close
    cancels outlives the finish), then calls on_done; close marks it
    done, cancels its repeating timer and its deadline, and drops on_done.
    """

    def __init__(self, transport, sock, session_id: bytes, on_done):
        self._transport = transport
        self._sock = sock
        self._session_id = session_id
        self._on_done = on_done
        self._timer = None
        self._deadline = None
        self.probes_sent = 0
        self.done = False
        self.established_peer: Optional[Endpoint] = None

    def _start_deadline(self, seconds: float) -> None:
        self._deadline = self._transport.call_later(int(seconds * 1_000_000), self._timeout)

    def _timeout(self) -> None:
        if not self.done:
            self._finish(False, self._sock, None, "timeout")

    def close(self) -> None:
        self.done = True
        for t in (self._timer, self._deadline):
            if t is not None:
                t.cancel()
        self._on_done = None

    def _finish(self, ok: bool, sock, peer: Optional[Endpoint], why: str) -> None:
        on_done = self._on_done
        self.established_peer = peer
        _Punch.close(self)
        on_done(ok, sock, peer, why)


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
                 on_done, rng: random.Random):
        super().__init__(transport, sock, session_id, on_done)
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

    def on_datagram(self, data: bytes, src: Endpoint, sock) -> None:
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

    Each pinhole socket it is given (its owner's, maybe shared) sends
    one probe at the prober's fixed endpoint, allocating a uniformly
    random external port on the local endpoint-dependent NAT.  The
    mapping is their purpose; a prober that hears one from a port it has
    not swept answers it with a triggered check.  Packed once, they go
    out as one transport send_burst, in start and again every
    REFRESH_INTERVAL_S so mappings outlive their idle TTL.

    Only a (socket, endpoint) pair whose PROBE the opener acked can
    establish the link, by CONFIRM or by implicit data, which its owner
    then passes on; anything else is dropped, and everything once done.
    """

    def __init__(self, transport, pinholes: list, session_id: bytes,
                 prober_endpoint: Endpoint, cfg: PunchConfig, on_done, rng: random.Random):
        super().__init__(transport, None, session_id, on_done)
        self._cfg = cfg
        self._prober = prober_endpoint
        self._rng = rng
        self._sockets = pinholes
        self._probes: list[bytes] = []
        self._acked: set[tuple[object, Endpoint]] = set()

    def start(self) -> None:
        n = len(self._sockets)
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

    def on_datagram(self, data: bytes, src: Endpoint, sock) -> None:
        if self.done or sock not in self._sockets:
            return
        parsed = parse_probe(data)
        if parsed is None:
            # Data from an acked prober means its CONFIRMs were lost.
            if (sock, src) in self._acked:
                self._finish(True, sock, src, "birthday")
            return
        kind, session_id, nonce = parsed
        if session_id != self._session_id:
            return
        if kind == KIND_PROBE:
            sock.send(src, pack_probe(KIND_PROBE_ACK, self._session_id, nonce))
            self._acked.add((sock, src))
        elif kind == KIND_CONFIRM and (sock, src) in self._acked:
            self._finish(True, sock, src, "birthday")


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
        super().__init__(transport, sock, session_id, on_done)
        self._cfg = cfg
        self._opener_ip = opener_ip
        if schedule_seed is None:
            schedule_seed = rng.getrandbits(63)
        self._budget = cfg.probe_budget
        self._ports = iter_ports(cfg.space, self._budget, schedule_seed)
        self._interval_us = max(1, round(1_000_000 / cfg.probe_rate))
        self._next = 0
        self._swept: set[int] = set()
        self._triggered = False
        self._confirm = None  # the timer of the next spaced CONFIRM
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

    def on_datagram(self, data: bytes, src: Endpoint, sock) -> None:
        if len(data) != PROBE_LEN:
            return
        kind = data[5]
        if kind == KIND_PROBE:
            # The opener's PROBEs: only the first from its address can count.
            if self._triggered or src[0] != self._opener_ip:
                return
            parsed = parse_probe(data)
            index = self._next
            if (parsed is None or parsed[1] != self._session_id or self.done
                    or index >= self._budget or src[1] in self._swept):
                return
            self._triggered = True
            self._next = index + 1
            self.probes_sent += 1
            self._sock.send(src, self._head + index.to_bytes(8, "big"))
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
            self._confirm = self._transport.call_later(
                int(CONFIRM_SPACING_S * 1_000_000),
                lambda: self._send_confirm(peer, nonce, remaining - 1))

    def close(self) -> None:
        if self._confirm is not None:
            self._confirm.cancel()
        super().close()
