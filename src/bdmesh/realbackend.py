"""Real-network backend: the same state machines over asyncio sockets.

The coordinator core and the node agent are written against small
transport ducks; this module implements those ducks with one asyncio
loop, a TCP JSON-lines control protocol that handles each line in the
loop turn that reads it, and non-blocking UDP sockets driven by
add_reader.  Nothing protocol-level lives here.

Everything runs on the loop thread, so the synchronous callback style
the state machines use is safe as is.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import random
import socket
import sys
import time
from typing import Callable, Iterable, Optional

from .agent import NodeAgent
from .errors import (EXIT_BIND_FAILURE, EXIT_COORD_UNREACHABLE, EXIT_IDENTITY_CONFLICT,
                     EXIT_INVALID, EXIT_OK, EXIT_SIM_FAILURE)
from .netsim import MAX_CONTROL_LINE
from .rendezvous import Coordinator, DEFAULT_OBSERVER_PORTS
from .securelink import Identity

log = logging.getLogger("bdmesh.real")

CONNECT_ATTEMPTS = 3
CONNECT_RETRY_S = 1.0
INTRODUCE_RETRY_S = 0.5
INTRODUCE_ATTEMPTS = 20
# Unsent control bytes a channel may hold before it gives up on its peer.
MAX_WRITE_BACKLOG = 64 * MAX_CONTROL_LINE

__all__ = [
    "AsyncioTransport", "AsyncioUdpSocket", "TcpLineChannel",
    "CoordinatorServer", "NodeClient",
    "run_coordinator_cli", "run_node_cli",
]


class AsyncioUdpSocket:
    """Non-blocking UDP socket satisfying the simulator socket duck.  A
    node binds every interface; the coordinator binds its observers to
    its own host."""

    def __init__(self, loop: asyncio.AbstractEventLoop, handler, port: int = 0,
                 host: str = "0.0.0.0"):
        self._loop = loop
        self.handler = handler
        # The coordinator's --host may be an IPv6 literal.
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._sock = socket.socket(family, socket.SOCK_DGRAM)
        self._sock.setblocking(False)
        try:
            self._sock.bind((host, port))
        except OSError:
            self._sock.close()
            raise
        self._closed = False
        loop.add_reader(self._sock.fileno(), self._read_ready)

    @property
    def local_port(self) -> int:
        return self._sock.getsockname()[1]

    def _read_ready(self) -> None:
        while True:
            try:
                data, src = self._sock.recvfrom(65535)
            except OSError:  # drained, interrupted or closed
                return
            self.handler(data, (src[0], src[1]), self)

    def send(self, dst, payload: bytes) -> None:
        if self._closed:
            return
        try:
            self._sock.sendto(payload, dst)
        except OSError:
            pass  # UDP: drop on transient error, like a congested wire

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.remove_reader(self._sock.fileno())
        self._sock.close()


class AsyncioTransport:
    """Wall-clock twin of the simulator's host transport.  Its rng is the
    OS's: a seeded one's state can be rebuilt from plaintext punch
    nonces, predicting the handshake ephemerals drawn after them."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self.rng = random.SystemRandom()

    @property
    def now_us(self) -> int:
        return int(self._loop.time() * 1_000_000)

    def call_later(self, delay_us: int, fn: Callable[[], None]) -> asyncio.TimerHandle:
        return self._loop.call_later(delay_us / 1e6, fn)

    def open_socket(self, handler, port: int = 0) -> AsyncioUdpSocket:
        return AsyncioUdpSocket(self._loop, handler, port)

    def open_sockets(self, handler, n: int) -> list[AsyncioUdpSocket]:
        """n sockets, or none: an OSError (out of descriptors, say) closes
        the ones already opened before it propagates."""
        socks: list[AsyncioUdpSocket] = []
        try:
            for _ in range(n):
                socks.append(self.open_socket(handler))
        except OSError:
            for sock in socks:
                sock.close()
            raise
        return socks

    def send_burst(self, socks: list[AsyncioUdpSocket], dst, payloads) -> None:
        for sock, payload in zip(socks, payloads):
            sock.send(dst, payload)


class TcpLineChannel(asyncio.Protocol):
    """One JSON-lines control connection, either end, as an asyncio
    protocol: each complete line of a chunk goes to on_line in the loop
    turn that read it.  A line over MAX_CONTROL_LINE, or one that does
    not parse, is dropped; a partial line past 2 * MAX_CONTROL_LINE, or
    a write backlog past MAX_WRITE_BACKLOG, closes the channel."""

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._partial = b""
        self.peer_observed = ("0.0.0.0", 0)
        self.on_line: Optional[Callable[[dict], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.closed = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        peername = transport.get_extra_info("peername") or ("0.0.0.0", 0)
        self.peer_observed = (peername[0], peername[1])
        if self.closed:  # by a server close between accept and here
            transport.close()

    def data_received(self, data: bytes) -> None:
        *lines, self._partial = (self._partial + data).split(b"\n")
        for line in lines:
            if self.closed:
                return
            if len(line) >= MAX_CONTROL_LINE:  # counting its newline
                log.warning("dropping oversized control line (%d bytes)", len(line) + 1)
                continue
            try:
                msg = json.loads(line)
            except (ValueError, RecursionError):
                log.warning("dropping unparseable control line")
                continue
            if self.on_line is not None:
                self.on_line(msg)
        if len(self._partial) > 2 * MAX_CONTROL_LINE:
            log.warning("closing a control connection: partial line too long")
            self.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.close()

    def send(self, msg: dict) -> None:
        if self.closed:
            return
        try:
            self._transport.write(json.dumps(msg, separators=(",", ":")).encode() + b"\n")
        except (ConnectionError, RuntimeError):
            self.close()
            return
        if self._transport.get_write_buffer_size() > MAX_WRITE_BACKLOG:
            log.warning("closing a control connection: peer not reading")
            self._transport.abort()  # close() would wait for the backlog to drain
            self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._transport is not None:
            self._transport.close()
        if self.on_close is not None:
            self.on_close()


class CoordinatorServer:
    """Rendezvous service: TCP control plus two UDP observer ports."""

    def __init__(self, host: str = "0.0.0.0", port: int = 4500,
                 observer_ports: Iterable[int] = DEFAULT_OBSERVER_PORTS):
        self.host = host
        self.port = port
        self.observer_ports = tuple(observer_ports)
        self.core = Coordinator()
        self._server: Optional[asyncio.AbstractServer] = None
        # Each live channel, with the core's own on_close for it.
        self._channels: dict[TcpLineChannel, Callable[[], None]] = {}

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(self._accept, self.host, self.port)
        for oport in self.observer_ports:
            self.core.observers.append(
                AsyncioUdpSocket(loop, self.core.on_observe, oport, self.host))
        log.info("coordinator on %s:%d (observers %s)",
                 self.host, self.port, ",".join(map(str, self.observer_ports)))

    def _accept(self) -> TcpLineChannel:
        channel = TcpLineChannel()
        self.core.attach(channel)
        self._channels[channel] = channel.on_close
        channel.on_close = lambda: self._channels.pop(channel)()
        return channel

    async def close(self) -> None:
        """Stop listening, then close every open connection."""
        if self._server is not None:
            self._server.close()
        for sock in self.core.observers:
            sock.close()
        for channel in list(self._channels):
            channel.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()


def _load_identity(key_path: Optional[str]) -> Identity:
    """Read a 32-byte hex seed, creating the file when absent."""
    if not key_path:
        return Identity.generate()
    if os.path.exists(key_path):
        with open(key_path, "r", encoding="utf-8") as f:
            seed = bytes.fromhex(f.read().strip())
        if len(seed) != 32:
            raise ValueError(f"{key_path} must hold a 64-char hex seed")
        return Identity.from_seed(seed)
    seed = os.urandom(32)
    fd = os.open(key_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as f:
        f.write(seed.hex() + "\n")
    return Identity.from_seed(seed)


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    return host, int(port)


class NodeClient:
    """One real-network node: control channel, agent, echo service.

    Every inbound payload chunk starting with b"ping:" is answered on
    the same link with b"pong:" plus the original body, giving --once
    runs something observable to wait for.
    """

    def __init__(self, coord: str, node_id: str,
                 identity: Optional[Identity] = None,
                 connect: Iterable[str] = (), encrypted: bool = True,
                 observer_ports: Iterable[int] = DEFAULT_OBSERVER_PORTS):
        self.coord_host, self.coord_port = _parse_hostport(coord)
        self.node_id = node_id
        self.identity = identity or Identity.generate()
        self.connect_peers = list(connect)
        self.encrypted = encrypted
        self.observer_ports = tuple(observer_ports)
        self.agent: Optional[NodeAgent] = None
        self.channel: Optional[TcpLineChannel] = None
        self.exit_code: Optional[int] = None
        self._echoed: set[str] = set()
        self._pinged: set[str] = set()
        self._wake = asyncio.Event()

    async def start(self) -> int:
        """Connect, register, link; returns 0 or the fatal exit code."""
        loop = asyncio.get_running_loop()
        for attempt in range(1, CONNECT_ATTEMPTS + 1):
            try:
                transport, self.channel = await loop.create_connection(
                    TcpLineChannel, self.coord_host, self.coord_port)
                break
            except OSError as e:
                log.warning("coordinator connect %d/%d failed: %s",
                            attempt, CONNECT_ATTEMPTS, e)
                if attempt == CONNECT_ATTEMPTS:
                    print(f"cannot reach coordinator at "
                          f"{self.coord_host}:{self.coord_port}", file=sys.stderr)
                    return EXIT_COORD_UNREACHABLE
                await asyncio.sleep(CONNECT_RETRY_S)
        local_ip = (transport.get_extra_info("sockname") or ("0.0.0.0", 0))[0]
        observers = [(self.channel.peer_observed[0], p) for p in self.observer_ports]
        try:
            self.agent = NodeAgent(
                self.node_id, AsyncioTransport(loop), self.channel, local_ip, observers,
                identity=self.identity, default_encrypted=self.encrypted,
                on_event=self._on_event)
            self.agent.start()
        except OSError as e:
            print(f"cannot bind a local socket: {e}", file=sys.stderr)
            return EXIT_BIND_FAILURE
        self.channel.on_close = self._on_channel_closed
        return EXIT_OK

    def _on_channel_closed(self) -> None:
        if self.exit_code is None and self.agent is not None \
                and self.agent.fatal_error != "identity-conflict":
            self.exit_code = EXIT_COORD_UNREACHABLE
        self._wake.set()

    def _on_event(self, event: dict) -> None:
        log.debug("node %s event %s", self.node_id, event)
        if event["event"] == "coordinator_error" and \
                event.get("error") == "identity-conflict":
            self.exit_code = EXIT_IDENTITY_CONFLICT
        if event["event"] == "link_up":
            link = self.agent.links[event["peer"]]
            link.on_payload = lambda data, p=event["peer"]: self._on_payload(p, data)
            if event["peer"] in self.connect_peers:
                self._send_ping(event["peer"])
        self._wake.set()

    def _send_ping(self, peer: str) -> None:
        if peer in self._pinged:
            return
        self._pinged.add(peer)
        self.agent.links[peer].send(b"ping:" + self.node_id.encode())

    def _on_payload(self, peer: str, data: bytes) -> None:
        if data.startswith(b"ping:"):
            self.agent.links[peer].send(b"pong:" + data[5:])
        elif data.startswith(b"pong:"):
            self._echoed.add(peer)
            self._wake.set()

    async def wait_ready(self, timeout_s: float = 15.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.exit_code is not None:
                return False
            if self.agent is not None and self.agent.ready:
                return True
            await self._wait(max(0.05, deadline - time.monotonic()))
        return self.agent is not None and self.agent.ready

    async def link_all(self, timeout_s: float = 60.0) -> bool:
        """Request and wait for an echoed link to every --connect peer."""
        deadline = time.monotonic() + timeout_s
        pending = [p for p in self.connect_peers]
        attempts = 0
        while time.monotonic() < deadline and self.exit_code is None:
            still = [p for p in pending if p not in self.agent.links]
            if still and attempts < INTRODUCE_ATTEMPTS:
                attempts += 1
                for p in still:
                    self.agent.connect(p)
            if all(p in self._echoed for p in self.connect_peers):
                return True
            await self._wait(INTRODUCE_RETRY_S)
        return all(p in self._echoed for p in self.connect_peers)

    async def run_forever(self) -> None:
        while self.exit_code is None:
            await self._wait(3600.0)

    async def _wait(self, timeout_s: float) -> None:
        """Sleep until an event wakes the client or timeout_s passes."""
        self._wake.clear()
        try:
            await asyncio.wait_for(self._wake.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
        if self.agent is not None:
            self.agent.close()


async def _coordinator_main(host: str, port: int,
                            observer_ports: tuple[int, int]) -> int:
    server = CoordinatorServer(host, port, observer_ports)
    try:
        await server.start()
    except OSError as e:
        print(f"cannot bind {host}:{port} (or an observer port): {e}",
              file=sys.stderr)
        return EXIT_BIND_FAILURE
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
    return EXIT_OK


def run_coordinator_cli(host: str, port: int,
                        observer_ports: tuple[int, int]) -> int:
    try:
        return asyncio.run(_coordinator_main(host, port, observer_ports))
    except KeyboardInterrupt:
        print("coordinator stopped", file=sys.stderr)
        return EXIT_OK


async def _node_main(coord: str, node_id: str, key_path: Optional[str],
                     connect: list[str], once: bool, plain: bool) -> int:
    try:
        identity = _load_identity(key_path)
    except (OSError, ValueError) as e:
        print(f"cannot load key: {e}", file=sys.stderr)
        return EXIT_INVALID
    client = NodeClient(coord, node_id, identity=identity, connect=connect,
                        encrypted=not plain)
    code = await client.start()
    if code != EXIT_OK:
        return code
    try:
        if not await client.wait_ready():
            return client.exit_code if client.exit_code is not None \
                else EXIT_COORD_UNREACHABLE
        if client.connect_peers:
            linked = await client.link_all()
            if client.exit_code is not None:
                return client.exit_code
            if once:
                if linked:
                    print(f"{node_id}: all links verified", file=sys.stderr)
                    return EXIT_OK
                print(f"{node_id}: links did not come up", file=sys.stderr)
                return EXIT_SIM_FAILURE
        if once and not client.connect_peers:
            return EXIT_OK
        await client.run_forever()
        return client.exit_code if client.exit_code is not None else EXIT_OK
    finally:
        await client.close()


def run_node_cli(coord: str, node_id: str, key_path: Optional[str],
                 connect: list[str], once: bool, plain: bool) -> int:
    try:
        return asyncio.run(_node_main(coord, node_id, key_path,
                                      connect, once, plain))
    except KeyboardInterrupt:
        print(f"node {node_id} stopped", file=sys.stderr)
        return EXIT_OK
