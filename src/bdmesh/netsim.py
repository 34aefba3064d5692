"""Deterministic virtual-time network simulator with NAT models.

Everything runs on one event heap, owned by the Network and keyed by
(time_us, seq): equal-time events fire in schedule order, so a run is a
pure function of the scenario and the seed.  Datagrams due at one tick
whose entries would be adjacent share one entry, which delivers them
in that same order.  Each Host is the transport its protocol machines
run on.
Datagrams are UDP-like (unreliable, unordered under jitter, 1200-byte
max payload); control channels are TCP-like (reliable, ordered,
line-oriented).

NAT behavior is split along two axes:

- mapping: endpoint_independent reuses one external port for all
  destinations of an internal endpoint; endpoint_dependent allocates a
  fresh external port per (internal, destination) pair.
- filtering: endpoint_independent accepts from anyone once a mapping
  exists; address_dependent requires the internal endpoint to have
  sent to the source IP; address_and_port_dependent requires a prior
  send to the exact source endpoint.

An "easy" NAT is endpoint-independent on both axes (the classifier
calls it cone, as it does not filter by port); a "hard" NAT is
endpoint-dependent mapping with address-and-port-dependent filtering.
Mappings expire after an idle TTL (default 30 s) and are refreshed by
any matching outbound packet; expiry is evaluated lazily on access.

Loss, latency and jitter are drawn from the sender's link policy; the
receiver's link contributes only its udp_blocked flag.  Loss is drawn
after NAT translation, so a lost packet still creates and refreshes
mappings, which is what a real NAT sees too.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional

from .errors import InvalidParametersError, PortsExhaustedError, SimulationError
from .probability import PortSpace, _below

Endpoint = tuple[str, int]


def parse_endpoint(value) -> Optional[Endpoint]:
    """The endpoint in a wire {"ip": str, "port": 0..65535}, or None."""
    if not isinstance(value, dict):
        return None
    ip, port = value.get("ip"), value.get("port")
    if (not isinstance(ip, str) or len(ip) > MAX_IP_TEXT or not isinstance(port, int)
            or isinstance(port, bool) or not 0 <= port <= 65535):
        return None
    return ip, port


def format_endpoint(ep: Endpoint) -> dict:
    """The wire form of an endpoint, as parse_endpoint reads it."""
    return {"ip": ep[0], "port": ep[1]}


MAX_DATAGRAM = 1200
MAX_CONTROL_LINE = 8192
MAX_IP_TEXT = 64  # fits IPv6 with a zone id; bounds the endpoint an introduce carries
DEFAULT_MAPPING_TTL_S = 30.0

__all__ = [
    "Endpoint",
    "parse_endpoint",
    "format_endpoint",
    "MAX_DATAGRAM",
    "MAX_CONTROL_LINE",
    "MappingMode",
    "FilteringMode",
    "PortAlloc",
    "NatProfile",
    "Nat",
    "LinkPolicy",
    "Timer",
    "TraceLog",
    "SimSocket",
    "Host",
    "ChannelEnd",
    "Network",
]


class MappingMode(enum.Enum):
    ENDPOINT_INDEPENDENT = "endpoint_independent"
    ENDPOINT_DEPENDENT = "endpoint_dependent"


class FilteringMode(enum.Enum):
    ENDPOINT_INDEPENDENT = "endpoint_independent"
    ADDRESS_DEPENDENT = "address_dependent"
    ADDRESS_AND_PORT_DEPENDENT = "address_and_port_dependent"


class PortAlloc(enum.Enum):
    UNIFORM_RANDOM = "uniform_random"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class NatProfile:
    """Static behavior of one NAT box."""

    nat_id: str
    mapping: MappingMode = MappingMode.ENDPOINT_INDEPENDENT
    filtering: FilteringMode = FilteringMode.ENDPOINT_INDEPENDENT
    port_alloc: PortAlloc = PortAlloc.UNIFORM_RANDOM
    mapping_ttl_s: float = DEFAULT_MAPPING_TTL_S
    alloc_space: PortSpace = field(default_factory=PortSpace)

    def __post_init__(self) -> None:
        # NaN fails every comparison, and a TTL whose microseconds are
        # inf cannot become the integer Nat keeps (an int compares with
        # inf exactly, however large).
        if not (0 < self.mapping_ttl_s and self.mapping_ttl_s * 1_000_000 < math.inf):
            raise InvalidParametersError(
                f"mapping TTL must be positive and finite, got {self.mapping_ttl_s}")

    @classmethod
    def easy(cls, nat_id: str, **kw) -> "NatProfile":
        return cls(
            nat_id,
            mapping=MappingMode.ENDPOINT_INDEPENDENT,
            filtering=FilteringMode.ENDPOINT_INDEPENDENT,
            **kw,
        )

    @classmethod
    def hard(cls, nat_id: str, **kw) -> "NatProfile":
        return cls(
            nat_id,
            mapping=MappingMode.ENDPOINT_DEPENDENT,
            filtering=FilteringMode.ADDRESS_AND_PORT_DEPENDENT,
            **kw,
        )


@dataclass(slots=True, eq=False)
class _Mapping:
    key: tuple
    internal: Endpoint
    ext_port: int
    expires_us: int
    remotes: set[Endpoint] | frozenset


# The remotes of every mapping on a NAT that keeps none (see Nat's
# _track_remotes): one shared empty set rather than one per mapping.
_UNTRACKED: frozenset = frozenset()


class Nat:
    """One NAT box: a public IP plus a live mapping table."""

    def __init__(self, profile: NatProfile, public_ip: str, rng: random.Random):
        self.profile = profile
        self.public_ip = public_ip
        self._getrandbits = rng.getrandbits
        self._ttl_us = int(profile.mapping_ttl_s * 1_000_000)
        # The profile is frozen, so its mode checks are made once here
        # rather than per packet.
        self._per_destination = profile.mapping is MappingMode.ENDPOINT_DEPENDENT
        self._filtering = profile.filtering
        # Endpoint-independent filtering never reads a mapping's remotes,
        # and under endpoint-dependent mapping a mapping's one remote is the
        # destination in its key, so a set is kept only where neither holds.
        self._track_remotes = not (self._per_destination or profile.filtering
                                   is FilteringMode.ENDPOINT_INDEPENDENT)
        self._random_alloc = profile.port_alloc is PortAlloc.UNIFORM_RANDOM
        space = profile.alloc_space
        self._alloc_lo = space.lo
        self._alloc_size = space.size
        self._by_key: dict[tuple, _Mapping] = {}
        self._by_ext: dict[int, _Mapping] = {}
        # Only address-dependent filtering looks across the mappings of one
        # internal endpoint, so only it indexes them by internal endpoint.
        self._by_internal: Optional[dict[Endpoint, set[_Mapping]]] = (
            {} if profile.filtering is FilteringMode.ADDRESS_DEPENDENT else None)
        self._seq_cursor = profile.alloc_space.lo
        self._stream_cursor = itertools.count(50000)

    def _purge(self, m: _Mapping) -> None:
        del self._by_key[m.key]
        del self._by_ext[m.ext_port]
        if self._by_internal is not None:
            peers = self._by_internal[m.internal]
            peers.discard(m)
            if not peers:
                del self._by_internal[m.internal]

    def _is_free(self, port: int, now_us: int) -> bool:
        """Whether port can take a new mapping: it has none or an expired one (purged)."""
        m = self._by_ext.get(port)
        if m is None:
            return True
        if m.expires_us <= now_us:
            self._purge(m)
            return True
        return False

    def _alloc_port(self, now_us: int) -> int:
        lo, k = self._alloc_lo, self._alloc_size
        if len(self._by_ext) >= k:
            for m in [m for m in self._by_ext.values() if m.expires_us <= now_us]:
                self._purge(m)
            if len(self._by_ext) >= k:
                raise PortsExhaustedError(f"nat {self.profile.nat_id} has no free ports")
        # Fewer than k live ports: either walk finds a free one.
        if self._random_alloc:
            while True:
                cand = lo + _below(self._getrandbits, k)
                if self._is_free(cand, now_us):
                    return cand
        while True:
            cand = self._seq_cursor
            self._seq_cursor = lo + (cand - lo + 1) % k
            if self._is_free(cand, now_us):
                return cand

    def outbound(self, internal: Endpoint, dst: Endpoint, now_us: int) -> int:
        """Translate an outbound packet; create or refresh the mapping."""
        key = (internal, dst) if self._per_destination else internal
        m = self._by_key.get(key)
        if m is None or m.expires_us <= now_us:
            if m is not None:
                self._purge(m)
            port = self._alloc_port(now_us)
            m = _Mapping(key, internal, port, 0,
                         set() if self._track_remotes else _UNTRACKED)
            self._by_key[key] = m
            self._by_ext[port] = m
            if self._by_internal is not None:
                self._by_internal.setdefault(internal, set()).add(m)
        m.expires_us = now_us + self._ttl_us
        if self._track_remotes:
            m.remotes.add(dst)
        return m.ext_port

    def inbound(self, src: Endpoint, ext_port: int, now_us: int) -> tuple[Optional[Endpoint], str]:
        """Translate an inbound packet; returns (internal endpoint, reason)."""
        m = self._by_ext.get(ext_port)
        if m is None:
            return None, "no-mapping"
        if m.expires_us <= now_us:
            self._purge(m)
            return None, "expired"
        f = self._filtering
        if f is FilteringMode.ENDPOINT_INDEPENDENT:
            return m.internal, "ok"
        if f is FilteringMode.ADDRESS_DEPENDENT:
            ip = src[0]
            for peer in self._by_internal.get(m.internal, ()):
                if peer.expires_us > now_us and (
                        (peer.key[1][0] == ip) if self._per_destination
                        else any(r[0] == ip for r in peer.remotes)):
                    return m.internal, "ok"
            return None, "filtered"
        if (m.key[1] == src) if self._per_destination else (src in m.remotes):
            return m.internal, "ok"
        return None, "filtered"

    def live_mappings(self, now_us: int) -> int:
        return sum(1 for m in self._by_ext.values() if m.expires_us > now_us)

    def next_stream_port(self) -> int:
        # Stream (control channel) sources live in their own protocol
        # space and never collide with UDP mapping bookkeeping.
        return next(self._stream_cursor)


@dataclass(frozen=True)
class LinkPolicy:
    """Impairments of one host's uplink."""

    loss: float = 0.0
    latency_us: int = 1000
    jitter_us: int = 0
    udp_blocked: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss < 1.0):
            raise InvalidParametersError(f"loss must lie in [0, 1), got {self.loss}")
        if self.latency_us < 0 or self.jitter_us < 0:
            raise InvalidParametersError("latency and jitter must be non-negative")


class Timer:
    """One-shot cancellable timer handle."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn

    def cancel(self) -> None:
        self.fn = None


class TraceLog:
    """Append-only event trace kept as its stable content hash: SHA-256 over
    one line per entry, json.dumps of {t_us, kind, src, dst, info} with
    sorted keys and no spaces, fed as each entry is added.  The lines
    themselves are not kept.  Each address's quoted text is made once
    and kept: a run sends to and from the same few addresses many times,
    and a port, an integer, needs no escaping."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        # address -> _quote(f"{address}:") without its closing quote
        self._quoted: dict[str, str] = {}

    def add(self, t_us: int, kind: str, src: Endpoint, dst: Endpoint, info: str) -> None:
        quoted = self._quoted
        q_dst = quoted.get(dst[0])
        if q_dst is None:
            q_dst = quoted[dst[0]] = _quote(f"{dst[0]}:")[:-1]
        q_src = quoted.get(src[0])
        if q_src is None:
            q_src = quoted[src[0]] = _quote(f"{src[0]}:")[:-1]
        line = (f'{{"dst":{q_dst}{dst[1]}","info":{_quote(info)},'
                f'"kind":{_quote(kind)},"src":{q_src}{src[1]}","t_us":{t_us}}}\n')
        self._sha.update(line.encode())

    def digest(self) -> str:
        return self._sha.hexdigest()


class SimSocket:
    """Bound UDP-like socket on a simulated host."""

    __slots__ = ("host", "port", "handler", "closed")

    def __init__(self, host: "Host", port: int, handler):
        self.host = host
        self.port = port
        self.handler = handler
        self.closed = False

    @property
    def local_port(self) -> int:
        return self.port

    def send(self, dst: Endpoint, payload: bytes) -> None:
        if self.closed:
            raise SimulationError("send on closed socket")
        self.host.net._send_from(self.host, self.port, dst, payload)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.handler = None  # handlers are often bound to the socket's owner
            del self.host.sockets[self.port]


class Host:
    """One endpoint machine, optionally behind a NAT, and the transport
    its protocol machines run on: virtual-time timers, fresh sockets,
    bursts and the world's seeded rng."""

    EPHEMERAL_LO = 30000
    EPHEMERAL_HI = 60999

    def __init__(self, host_id: str, ip: str, net: "Network",
                 nat: Optional[Nat] = None, link: Optional[LinkPolicy] = None):
        self.id = host_id
        self.ip = ip
        self.net = net
        self.nat = nat
        self.link = link or LinkPolicy()
        self.rng = net.rng
        self.call_later = net.call_later
        self.sockets: dict[int, SimSocket] = {}
        self.channel_listeners: dict[int, Callable[["ChannelEnd"], None]] = {}
        self._eph_next = self.EPHEMERAL_LO
        self._stream_next = itertools.count(61000)

    @property
    def now_us(self) -> int:
        return self.net.now_us

    def bind(self, handler, port: int = 0) -> SimSocket:
        """handler(payload: bytes, src: Endpoint, sock: SimSocket)."""
        if port == 0:
            return self.open_sockets(handler, 1)[0]
        if port in self.sockets:
            raise InvalidParametersError(f"port {port} already bound on {self.id}")
        sock = self.sockets[port] = SimSocket(self, port, handler)
        return sock

    def open_socket(self, handler) -> SimSocket:
        return self.bind(handler)

    def open_sockets(self, handler, n: int) -> list[SimSocket]:
        """n sockets on the ports n calls of bind(handler) would take; when
        fewer than n ports are free, none is taken."""
        lo, span = self.EPHEMERAL_LO, self.EPHEMERAL_HI - self.EPHEMERAL_LO + 1
        sockets, socks = self.sockets, []
        cand, misses = self._eph_next, 0
        while len(socks) < n:
            if misses == span:
                for sock in socks:
                    sock.close()
                raise PortsExhaustedError(f"host {self.id} has no free ephemeral ports")
            port, cand = cand, lo + (cand - lo + 1) % span
            if port in sockets:
                misses += 1
            else:
                misses = 0
                sockets[port] = sock = SimSocket(self, port, handler)
                socks.append(sock)
        self._eph_next = cand
        return socks

    def send_burst(self, socks: list[SimSocket], dst: Endpoint, payloads) -> None:
        """socks[i].send(dst, payloads[i]) for each i, in order, as one loop;
        every socket is one of this host's."""
        ports = [sock.port for sock in socks if not sock.closed]
        if len(ports) != len(socks):
            raise SimulationError("send on closed socket")
        send = self.net._send_from
        for src_port, payload in zip(ports, payloads):
            send(self, src_port, dst, payload)

    def listen_channel(self, port: int, acceptor: Callable[["ChannelEnd"], None]) -> None:
        self.channel_listeners[port] = acceptor


class ChannelEnd:
    """One side of a reliable ordered line channel (TCP-like)."""

    def __init__(self, net: "Network", host: Host, local: Endpoint, peer_observed: Endpoint):
        self.net = net
        self.host = host
        self.local = local                  # this end as the peer sees it
        self.peer_observed = peer_observed  # the peer as this end sees it
        self.peer: Optional[ChannelEnd] = None
        self.closed = False
        self.on_line: Optional[Callable[[dict], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self._deliver_floor_us = 0

    def send(self, obj: dict) -> None:
        line = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        if len(line) > MAX_CONTROL_LINE:
            raise InvalidParametersError(f"control line of {len(line)} bytes exceeds {MAX_CONTROL_LINE}")
        if self.closed:
            raise SimulationError("send on closed channel")
        if not self.peer.closed:  # else the line is lost, as on a TCP peer that closed
            self.net._channel_send(self, line)

    def close(self) -> None:
        """The peer sees the close one link latency later.  Drops the peer
        and both callbacks, as SimSocket.close drops its handler."""
        peer = self.peer
        if not self.closed and not peer.closed:
            net = self.net
            net.schedule_at(net.now_us + self.host.link.latency_us, peer._peer_closed)
        self.closed = True
        self.peer = self.on_line = self.on_close = None

    def _peer_closed(self) -> None:
        on_close = self.on_close
        if not self.closed:
            self.close()  # the peer is closed: nothing to schedule
            if on_close is not None:
                on_close()


class Network:
    """The world: hosts, NATs, the wire, and the clock with its one event
    heap, ordered by (time_us, schedule seq).  An event is a callable
    plus its positional arguments, so hot paths (one event per delivery
    batch) schedule a bound method without building a closure."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.now_us = 0
        self._heap: list = []
        self._seq = 0
        self.rng = random.Random(seed)
        self._getrandbits = self.rng.getrandbits
        self.hosts: dict[str, Host] = {}
        self.nats: dict[str, Nat] = {}
        self._by_ip: dict[str, object] = {}
        self.trace: Optional[TraceLog] = TraceLog() if trace else None
        self.on_wire: Optional[Callable[[str, Endpoint, Endpoint, bytes], None]] = None
        self.stats = {"sent": 0, "delivered": 0, "dropped": 0, "dead_letters": 0}
        # The delivery batch last scheduled, its time and the seq of its entry.
        self._batch: list = []
        self._batch_t = self._batch_seq = -1
        self._host_ip = itertools.count(1)
        self._nat_ip = itertools.count(1)

    # -- topology -----------------------------------------------------

    def add_nat(self, profile: NatProfile) -> Nat:
        if profile.nat_id in self.nats:
            raise InvalidParametersError(f"duplicate nat id {profile.nat_id}")
        n = next(self._nat_ip)
        ip = f"198.18.{n // 256}.{n % 256}"
        nat = Nat(profile, ip, self.rng)
        self.nats[profile.nat_id] = nat
        self._by_ip[ip] = nat
        return nat

    def add_host(self, host_id: str, nat: Optional[Nat] = None,
                 link: Optional[LinkPolicy] = None) -> Host:
        if host_id in self.hosts:
            raise InvalidParametersError(f"duplicate host id {host_id}")
        n = next(self._host_ip)
        ip = f"10.0.{n // 256}.{n % 256}"
        host = Host(host_id, ip, self, nat=nat, link=link)
        self.hosts[host_id] = host
        self._by_ip[ip] = host
        return host

    # -- datagram path ------------------------------------------------

    def _drop(self, src: Endpoint, dst: Endpoint, reason: str) -> None:
        self.stats["dropped"] += 1
        if self.trace is not None:
            self.trace.add(self.now_us, "drop", src, dst, reason)

    def _send_from(self, host: Host, src_port: int, dst: Endpoint, payload: bytes) -> None:
        """The one send path.  A delivery due at the tick of the entry
        scheduled just before it (same time, _seq unchanged since that
        push) joins that entry's batch: it would fire right after it."""
        if len(payload) > MAX_DATAGRAM:
            raise InvalidParametersError(f"datagram of {len(payload)} bytes exceeds {MAX_DATAGRAM}")
        self.stats["sent"] += 1
        link = host.link
        if link.udp_blocked:
            self._drop((host.ip, src_port), dst, "udp-blocked")
            return
        now = self.now_us
        nat = host.nat
        if nat is None:
            wire_src = (host.ip, src_port)
        else:
            try:
                ext_port = nat.outbound((host.ip, src_port), dst, now)
            except PortsExhaustedError:
                self._drop((host.ip, src_port), dst, "ports-exhausted")
                return
            wire_src = (nat.public_ip, ext_port)
        if self.trace is not None:
            self.trace.add(now, "send", wire_src, dst, f"len={len(payload)}")
        if self.on_wire is not None:
            self.on_wire("udp", wire_src, dst, payload)
        if link.loss > 0.0 and self.rng.random() < link.loss:
            self._drop(wire_src, dst, "loss")
            return
        t = now + link.latency_us
        if link.jitter_us:
            # int(): randrange also took a schema-valid 300.0 as 300.
            t += _below(self._getrandbits, int(link.jitter_us) + 1)
        if t == self._batch_t and self._seq == self._batch_seq:
            self._batch.append((wire_src, dst, payload))
        else:
            self._batch = [(wire_src, dst, payload)]
            self.schedule_at(t, self._deliver, self._batch)
            self._batch_t, self._batch_seq = t, self._seq

    def _deliver(self, batch: list) -> None:
        """Deliver one heap entry's batch of (src, dst, payload), in order."""
        if batch is self._batch:
            self._batch_seq = -1  # closed: what is sent from here on is a new entry
        now = self.now_us
        stats = self.stats
        items = iter(batch)
        try:
            for src, dst, payload in items:
                target = self._by_ip.get(dst[0])
                if isinstance(target, Nat):
                    internal, reason = target.inbound(src, dst[1], now)
                    if internal is None:
                        self._drop(src, dst, reason)
                        continue
                    host = self._by_ip.get(internal[0])
                    port = internal[1]
                elif target is None or target.nat is not None:
                    # Unknown addresses go nowhere, and private addresses are
                    # not routable from the outside.
                    stats["dead_letters"] += 1
                    self._drop(src, dst, "dead-letter")
                    continue
                else:
                    host = target
                    port = dst[1]
                if host.link.udp_blocked:
                    self._drop(src, dst, "udp-blocked")
                    continue
                sock = host.sockets.get(port)
                if sock is None:
                    stats["dead_letters"] += 1
                    self._drop(src, dst, "no-socket")
                    continue
                stats["delivered"] += 1
                if self.trace is not None:
                    self.trace.add(now, "deliver", src, (host.ip, port), f"len={len(payload)}")
                sock.handler(payload, src, sock)
        except BaseException:
            # A handler raised: the rest of the batch still fires first at this tick.
            heappush(self._heap, (now, -1, self._deliver, (list(items),)))
            raise

    # -- control channels ----------------------------------------------

    def connect_channel(self, client: Host, server: Host, server_port: int) -> ChannelEnd:
        """Open a reliable channel; the server's acceptor fires after one
        link latency with its end."""
        acceptor = server.channel_listeners.get(server_port)
        if acceptor is None:
            raise SimulationError(f"nothing listening on {server.id}:{server_port}")
        if client.nat is not None:
            client_seen = (client.nat.public_ip, client.nat.next_stream_port())
        else:
            client_seen = (client.ip, next(client._stream_next))
        server_seen = (server.ip, server_port)
        client_end = ChannelEnd(self, client, client_seen, server_seen)
        server_end = ChannelEnd(self, server, server_seen, client_seen)
        client_end.peer = server_end
        server_end.peer = client_end
        self.schedule_at(self.now_us + client.link.latency_us, acceptor, server_end)
        return client_end

    def _channel_send(self, end: ChannelEnd, line: bytes) -> None:
        peer = end.peer
        if self.trace is not None:
            self.trace.add(self.now_us, "ctrl", end.local, peer.local, f"len={len(line)}")
        if self.on_wire is not None:
            self.on_wire("ctrl", end.local, peer.local, line)
        t = self.now_us + end.host.link.latency_us
        if t < peer._deliver_floor_us:
            t = peer._deliver_floor_us
        peer._deliver_floor_us = t
        self.schedule_at(t, self._channel_deliver, peer, line)

    def _channel_deliver(self, end: ChannelEnd, line: bytes) -> None:
        if end.closed or end.on_line is None:
            return
        end.on_line(json.loads(line))

    # -- running --------------------------------------------------------

    def schedule_at(self, t_us: int, fn, *args) -> None:
        self._seq += 1
        heappush(self._heap, (t_us, self._seq, fn, args))

    def call_later(self, delay_us: int, fn: Callable[[], None]) -> Timer:
        timer = Timer(fn)
        self._seq += 1
        heappush(self._heap, (self.now_us + delay_us, self._seq, timer, ()))
        return timer

    def run_until(self, t_us: int) -> int:
        """Fire every event due at or before t_us; returns events fired."""
        return self._run(t_us)

    def run_for(self, dt_us: int) -> int:
        return self._run(self.now_us + dt_us)

    def _run(self, t_us: int) -> int:
        # Both public runs come here rather than one calling the other, so
        # a wrapper around each (a tracer counting events) sees every
        # event once.
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= t_us:
            when, _, fn, args = heappop(heap)
            self.now_us = when
            if type(fn) is Timer:
                timer = fn
                fn = timer.fn
                if fn is None:
                    continue
                timer.fn = None
            fn(*args)
            fired += 1
        if t_us > self.now_us:
            self.now_us = t_us
        return fired

    def close(self) -> None:
        """End the run: drop pending events (cancelling their timers), every
        host's sockets and channel listeners, and the host, NAT and address
        tables.  `stats` and the trace digest stay readable.  With the
        agents and the coordinator closed first, Host.net was the last
        cycle through the world, so reference counting frees it."""
        for _, _, fn, _ in self._heap:
            if type(fn) is Timer:
                fn.cancel()
        self._heap.clear()
        self._batch = []
        for host in self.hosts.values():
            for sock in list(host.sockets.values()):
                sock.close()
            host.channel_listeners.clear()
        self.hosts.clear()
        self.nats.clear()
        self._by_ip.clear()
        self.on_wire = None
