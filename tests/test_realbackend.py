"""Real-socket backend: loopback rendezvous, links, and failure exits."""

import asyncio
import json
import logging
import os
import random
import signal
import socket
import subprocess
import sys
import time

import pytest

from bdmesh import traversal
from bdmesh.agent import NodeAgent
from bdmesh.netsim import MAX_CONTROL_LINE, Network
from bdmesh.realbackend import (
    MAX_WRITE_BACKLOG,
    AsyncioTransport,
    AsyncioUdpSocket,
    CoordinatorServer,
    NodeClient,
    TcpLineChannel,
    _coordinator_main,
    _load_identity,
    _parse_hostport,
)
from bdmesh.rendezvous import Coordinator
from bdmesh.securelink import Identity
from bdmesh.traversal import (KIND_CONFIRM, KIND_PROBE, KIND_PROBE_ACK, OBSERVE_LEN,
                              BirthdayOpener, PunchConfig, pack_probe, parse_probe,
                              probe_session_id)


def free_ports(n: int) -> list[int]:
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def run(coro, timeout_s: float = 30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout_s))


async def until(condition, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.01)


def stop(proc: subprocess.Popen) -> int:
    """SIGINT, then the exit code.  A process still running 10 s later
    is killed and reaped, and TimeoutExpired fails the test."""
    proc.send_signal(signal.SIGINT)
    try:
        return proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


class TestUdpSocket:
    def test_a_replaced_handler_takes_the_next_datagram(self):
        # The agent takes over an opener pinhole by assigning .handler.
        async def main():
            loop = asyncio.get_running_loop()
            first, got = [], []
            a = AsyncioUdpSocket(loop, lambda data, src, sock: first.append(data))
            b = AsyncioUdpSocket(loop, lambda *x: None)
            try:
                a.handler = lambda data, src, sock: got.append((data, sock is a))
                b.send(("127.0.0.1", a.local_port), b"hello")
                for _ in range(200):
                    if first or got:
                        break
                    await asyncio.sleep(0.01)
            finally:
                a.close()
                b.close()
            return first, got

        assert run(main()) == ([], [(b"hello", True)])


class TestOpenerOnLoopback:
    def test_burst_then_ack_and_confirm_close_no_pinhole(self):
        session = b"L" * 8

        async def main():
            loop = asyncio.get_running_loop()
            got, done = [], []
            listener = AsyncioUdpSocket(loop, lambda data, src, sock: got.append((data, src)))
            me = ("127.0.0.1", listener.local_port)
            transport = AsyncioTransport(loop)
            pinholes = transport.open_sockets(
                lambda data, src, sock: opener.on_datagram(data, src, sock), 8)
            opener = BirthdayOpener(transport, pinholes, session, me,
                                    PunchConfig(open_ports=8, max_duration_s=10.0),
                                    lambda *result: done.append(result), random.Random(2))
            opener.start()
            try:
                await until(lambda: len(got) == 8)
                probes = [parse_probe(data) for data, _ in got]
                assert all(p[:2] == (KIND_PROBE, session) for p in probes)
                assert len({p[2] for p in probes}) == 8
                assert ({src[1] for _, src in got}
                        == {sock.local_port for sock in pinholes})
                target = got[3][1]
                got.clear()
                listener.send(target, pack_probe(KIND_PROBE, session, b"n" * 8))
                await until(lambda: got)
                assert got == [(pack_probe(KIND_PROBE_ACK, session, b"n" * 8), target)]
                assert not done
                listener.send(target, pack_probe(KIND_CONFIRM, session, b"n" * 8))
                await until(lambda: done)
                (ok, sock, peer, why), = done
                assert (ok, sock.local_port, peer, why) == (True, target[1], me, "birthday")
                assert not any(s._closed for s in pinholes)  # the owner's to close
            finally:
                listener.close()
                for s in pinholes:
                    s.close()

        run(main())


class ControlRecorder:
    """A control channel that only records what the agent sends."""

    def __init__(self):
        self.sent, self.on_line, self.closed = [], None, False

    def send(self, msg: dict) -> None:
        self.sent.append(msg)

    def close(self) -> None:
        self.closed = True


class TestPinholePoolOnLoopback:
    def test_two_openers_share_one_pool_that_closes_with_the_agent(self, monkeypatch):
        opened = []
        open_socket = AsyncioTransport.open_socket

        def recording(transport, handler):
            sock = open_socket(transport, handler)
            opened.append(sock)
            return sock

        monkeypatch.setattr(AsyncioTransport, "open_socket", recording)

        async def main():
            loop = asyncio.get_running_loop()
            got = []
            listener = AsyncioUdpSocket(loop, lambda data, src, sock: got.append((data, src)))
            me = {"ip": "127.0.0.1", "port": listener.local_port}
            agent = NodeAgent("alice", AsyncioTransport(loop), ControlRecorder(),
                              "127.0.0.1", [])
            try:
                for i, peer in enumerate(("bob", "carol")):
                    agent._on_control({
                        "type": "introduce", "session_id": f"{i:016x}", "peer": peer,
                        "peer_endpoint": me, "peer_pubkey_b64": "", "role": "opener",
                        "punch": {"open_ports": 8}})
                await until(lambda: len(got) == 16)
                assert len(opened) == 8  # B sockets, not 2B
                assert {src[1] for _, src in got} == {s.local_port for s in opened}
                assert sorted(parse_probe(data)[1] for data, _ in got) == (
                    [bytes(8)] * 8 + [(1).to_bytes(8, "big")] * 8)
                assert not any(s._closed for s in opened)
            finally:
                agent.close()
                listener.close()
            assert all(s._closed for s in opened)

        run(main())


# Runs in a child process: alice is told to open a birthday punch (bob to
# use the relay), with the descriptor limit lowered below the 256 sockets
# the opener wants.  Prints the link's path and the open descriptor
# counts before the introduction and after the link came up.
OUT_OF_DESCRIPTORS_CHILD = r"""
import asyncio, json, os, resource, sys
from bdmesh import rendezvous
from bdmesh.realbackend import CoordinatorServer, NodeClient

rendezvous.assign_roles = lambda class_a, class_b: ("opener", "relay")
port, o1, o2 = (int(a) for a in sys.argv[1:4])

def open_fds():
    return sorted(int(fd) for fd in os.listdir("/proc/self/fd"))

async def main():
    server = CoordinatorServer("127.0.0.1", port, (o1, o2))
    await server.start()
    a = NodeClient(f"127.0.0.1:{port}", "alice", connect=["bob"], observer_ports=(o1, o2))
    b = NodeClient(f"127.0.0.1:{port}", "bob", observer_ports=(o1, o2))
    try:
        assert await a.start() == 0 and await b.start() == 0
        assert await a.wait_ready(10.0) and await b.wait_ready(10.0)
        before = open_fds()
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
        resource.setrlimit(resource.RLIMIT_NOFILE, (before[-1] + 16, hard))
        linked = await a.link_all(timeout_s=20.0)
        after = open_fds()
        link = a.agent.links.get("bob")
        print(json.dumps({"linked": linked, "path": link and link.path,
                          "before": len(before), "after": len(after)}))
    finally:
        await a.close()
        await b.close()
        await server.close()

asyncio.run(asyncio.wait_for(main(), 30.0))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_opener_out_of_descriptors_falls_back_to_the_relay():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", OUT_OF_DESCRIPTORS_CHILD,
                           *map(str, free_ports(3))],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["linked"] and result["path"] == "relayed"
    assert result["after"] == result["before"]  # every pinhole it opened was closed


class FakeTransport:
    """Just the asyncio.Transport members TcpLineChannel uses.  Nothing
    written ever drains, as when the peer stops reading."""

    def __init__(self, fail_writes: bool = False):
        self.fail_writes = fail_writes
        self.written = b""
        self.closed = self.aborted = False

    def get_extra_info(self, name, default=None):
        return ("192.0.2.7", 4321) if name == "peername" else default

    def write(self, data: bytes) -> None:
        if self.fail_writes:
            raise ConnectionResetError("peer reset")
        self.written += data

    def get_write_buffer_size(self) -> int:
        return len(self.written)

    def close(self) -> None:
        self.closed = True

    def abort(self) -> None:
        self.aborted = self.closed = True


def fake_channel(**kw):
    """A channel on a FakeTransport, with every line and close recorded."""
    channel, transport = TcpLineChannel(), FakeTransport(**kw)
    channel.connection_made(transport)
    got, closes = [], []
    channel.on_line = got.append
    channel.on_close = lambda: closes.append(1)
    return channel, transport, got, closes


def line_of(length: int) -> bytes:
    """A JSON line of exactly `length` bytes, its newline included."""
    head = b'{"type":"ping","pad":"'
    return head + b"x" * (length - len(head) - 3) + b'"}\n'


class TestTcpLineChannel:
    def test_deeply_nested_line_is_dropped_and_the_connection_kept(self):
        async def main():
            loop = asyncio.get_running_loop()
            got, channels = [], []

            def accept():
                channel = TcpLineChannel()
                channel.on_line = got.append
                channels.append(channel)
                return channel

            server = await loop.create_server(accept, "127.0.0.1", 0)
            _, writer = await asyncio.open_connection(*server.sockets[0].getsockname())
            try:
                writer.write(b"[" * 5000 + b"\n" + b'{"type":"ping"}\n')
                await until(lambda: got)
                assert got == [{"type": "ping"}]
                assert not channels[0].closed
            finally:
                writer.close()
                await until(lambda: channels and channels[0].closed)
                server.close()
                await server.wait_closed()

        run(main())


class TestLineFraming:
    """data_received, send and close driven by hand on a fake transport:
    every effect is visible when the call returns."""

    def test_connection_made_sets_the_observed_peer(self):
        channel, _, _, _ = fake_channel()
        assert channel.peer_observed == ("192.0.2.7", 4321)

    def test_a_line_split_across_chunks_is_delivered_once_complete(self):
        channel, _, got, _ = fake_channel()
        channel.data_received(b'{"type":"pi')
        assert got == []
        channel.data_received(b'ng","n":1}\n{"ty')
        assert got == [{"type": "ping", "n": 1}]
        channel.data_received(b'pe":"pong"}\n')
        assert got == [{"type": "ping", "n": 1}, {"type": "pong"}]

    def test_every_line_of_one_chunk_is_delivered_in_order(self):
        channel, _, got, _ = fake_channel()
        channel.data_received(b"".join(b'{"n":%d}\n' % n for n in range(50)))
        assert got == [{"n": n} for n in range(50)]

    def test_an_oversized_line_is_dropped_and_the_next_delivered(self, caplog):
        channel, transport, got, closes = fake_channel()
        longest = line_of(MAX_CONTROL_LINE)
        with caplog.at_level(logging.WARNING, logger="bdmesh.real"):
            channel.data_received(line_of(MAX_CONTROL_LINE + 1) + longest
                                  + b'{"type":"ping"}\n')
        assert got == [json.loads(longest), {"type": "ping"}]
        assert "oversized" in caplog.text
        assert not channel.closed and not transport.closed and closes == []

    def test_unparseable_lines_are_dropped_and_the_connection_kept(self):
        channel, _, got, closes = fake_channel()
        channel.data_received(b"not json\n\n" + b"[" * 5000 + b'\n{"n":1}\n')
        assert got == [{"n": 1}]
        assert not channel.closed and closes == []

    def test_a_partial_line_past_twice_the_limit_closes_the_channel(self):
        channel, transport, got, closes = fake_channel()
        channel.data_received(b"x" * MAX_CONTROL_LINE)
        channel.data_received(b"x" * MAX_CONTROL_LINE)
        assert not channel.closed  # 2 * MAX_CONTROL_LINE bytes may still end
        channel.data_received(b"x")
        assert channel.closed and transport.closed and closes == [1]
        channel.data_received(b'\n{"n":1}\n')
        assert got == []

    def test_a_handler_that_closes_stops_the_rest_of_the_chunk(self):
        channel, _, got, closes = fake_channel()
        channel.on_line = lambda msg: (got.append(msg), channel.close())
        channel.data_received(b'{"n":1}\n{"n":2}\n{"n":3}\n')
        assert got == [{"n": 1}] and closes == [1]

    def test_on_close_fires_once(self):
        channel, transport, _, closes = fake_channel()
        channel.close()
        channel.connection_lost(None)
        channel.close()
        assert closes == [1] and transport.closed

    def test_a_channel_closed_before_its_connection_closes_the_transport(self):
        # A server close can reach a channel its factory made before the
        # loop ran connection_made.
        channel, transport, closes = TcpLineChannel(), FakeTransport(), []
        channel.on_close = lambda: closes.append(1)
        channel.close()
        channel.connection_made(transport)
        assert transport.closed and closes == [1]

    def test_connection_lost_closes_the_channel(self):
        channel, _, _, closes = fake_channel()
        channel.connection_lost(ConnectionResetError())
        assert channel.closed and closes == [1]

    def test_send_writes_one_compact_line_and_nothing_once_closed(self):
        channel, transport, _, _ = fake_channel()
        channel.send({"type": "ping", "nonce": 7})
        assert transport.written == b'{"type":"ping","nonce":7}\n'
        channel.close()
        channel.send({"type": "ping"})
        assert transport.written == b'{"type":"ping","nonce":7}\n'

    def test_send_on_a_broken_transport_closes_the_channel(self):
        channel, _, _, closes = fake_channel(fail_writes=True)
        channel.send({"type": "ping"})
        assert channel.closed and closes == [1]

    def test_a_peer_that_stops_reading_is_cut_off_at_the_backlog_bound(self, caplog):
        channel, transport, _, closes = fake_channel()
        line = {"type": "relay_data", "payload_b64": "A" * 1000}
        sent = 0
        with caplog.at_level(logging.WARNING, logger="bdmesh.real"):
            while not channel.closed:
                assert len(transport.written) <= MAX_WRITE_BACKLOG
                channel.send(line)
                sent += 1
        # Cut off by the first line that took the backlog past the bound.
        assert sent == MAX_WRITE_BACKLOG // (len(transport.written) // sent) + 1
        assert transport.aborted and closes == [1]
        assert "not reading" in caplog.text
        size = len(transport.written)
        channel.send(line)
        assert len(transport.written) == size


class TestBackendContract:
    """Each backend's transport, socket and channel offer every member
    the agent, the punch machines and the coordinator use; a missing
    one fails only at run time, on the backend that lacks it."""

    TRANSPORT = ("call_later", "open_socket", "open_sockets", "send_burst")
    SOCKET = ("send", "close")
    CHANNEL = ("send", "close")

    @staticmethod
    def lacks(obj, methods, values=(), writable=()):
        missing = [m for m in methods if not callable(getattr(obj, m, None))]
        missing += [v for v in values if not hasattr(obj, v)]
        for name in writable:
            marker = lambda *args: None
            try:
                setattr(obj, name, marker)
            except AttributeError:
                missing.append(name)
                continue
            if getattr(obj, name) is not marker:
                missing.append(name)
        return missing

    def test_simulator_and_asyncio_backends_offer_the_same_members(self):
        async def main():
            loop = asyncio.get_running_loop()
            net = Network(seed=1)
            host, coord_host = net.add_host("h"), net.add_host("coord")
            coord_host.listen_channel(4500, lambda end: None)
            accepted = []

            def accept():
                accepted.append(TcpLineChannel())
                return accepted[-1]

            server = await loop.create_server(accept, "127.0.0.1", 0)
            _, aio_channel = await loop.create_connection(
                TcpLineChannel, *server.sockets[0].getsockname())
            aio_sock = AsyncioUdpSocket(loop, lambda *x: None)
            try:
                transports = (host, AsyncioTransport(loop))
                sockets = (host.bind(lambda *x: None), aio_sock)
                channels = (net.connect_channel(host, coord_host, 4500), aio_channel)
                for transport in transports:
                    assert self.lacks(transport, self.TRANSPORT, ("rng", "now_us")) == [], transport
                    assert isinstance(transport.rng, random.Random)
                    assert isinstance(transport.now_us, int)
                for sock in sockets:
                    assert self.lacks(sock, self.SOCKET, ("local_port",), ("handler",)) == [], sock
                    assert isinstance(sock.local_port, int)
                for channel in channels:
                    assert self.lacks(channel, self.CHANNEL, ("peer_observed",),
                                      ("on_line", "on_close")) == [], channel
                    assert len(channel.peer_observed) == 2
            finally:
                aio_sock.close()
                aio_channel.close()
                for channel in accepted:
                    channel.close()
                server.close()
                await server.wait_closed()

        run(main())


def _untemper(y: int) -> int:
    """Invert MT19937's output tempering of one 32-bit word."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def guess_after_opener_nonces(rng) -> bytes:
    """Draw the nonces of a 312-pinhole opener burst the way
    BirthdayOpener.start does (624 32-bit words, sent in plaintext),
    rebuild an MT19937 from them and return its guess at the next
    randbytes(32), which seeds the next handshake ephemeral."""
    leak = rng.randbytes(8 * 312)
    words = [int.from_bytes(leak[i:i + 4], "little") for i in range(0, len(leak), 4)]
    clone = random.Random()
    clone.setstate((3, tuple(_untemper(w) for w in words) + (624,), None))
    return clone.randbytes(32)


class TestRealRandomness:
    def test_the_recovery_predicts_a_seeded_generator(self):
        rng = random.Random()
        rng.randbytes(100)  # start the leak mid-block
        assert guess_after_opener_nonces(rng) == rng.randbytes(32)

    def test_asyncio_transport_rng_cannot_be_rebuilt_from_nonces(self):
        loop = asyncio.new_event_loop()
        try:
            rng = AsyncioTransport(loop).rng
        finally:
            loop.close()
        assert guess_after_opener_nonces(rng) != rng.randbytes(32)

    def test_coordinator_default_rng_cannot_be_rebuilt(self):
        rng = Coordinator().rng
        assert guess_after_opener_nonces(rng) != rng.randbytes(32)


class TestHelpers:
    def test_parse_hostport(self):
        assert _parse_hostport("127.0.0.1:4500") == ("127.0.0.1", 4500)
        with pytest.raises(ValueError):
            _parse_hostport("nocolon")
        with pytest.raises(ValueError):
            _parse_hostport(":99")

    def test_identity_file_round_trip(self, tmp_path):
        path = str(tmp_path / "node.key")
        first = _load_identity(path)
        again = _load_identity(path)
        assert first.public_bytes == again.public_bytes
        assert oct(os.stat(path).st_mode & 0o777) == "0o600"

    def test_identity_file_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.key"
        path.write_text("deadbeef\n")
        with pytest.raises(ValueError):
            _load_identity(str(path))

    def test_no_key_path_generates_fresh(self):
        assert _load_identity(None).public_bytes != _load_identity(None).public_bytes


class TestObserversOnLoopback:
    def test_replies_fit_their_requests_and_change_port_uses_the_other_port(self):
        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setblocking(False)
            sock.bind(("127.0.0.1", 0))
            got = []
            loop = asyncio.get_running_loop()
            loop.add_reader(sock.fileno(), lambda: got.append(sock.recvfrom(2048)))
            try:
                for token, extra in ((1, {}), (2, {"change_port": True})):
                    line = json.dumps({"type": "observe", "token": token, **extra}).encode()
                    sock.sendto(line, ("127.0.0.1", o1))  # unpadded: draws nothing
                    sock.sendto(line.ljust(OBSERVE_LEN), ("127.0.0.1", o1))
                await until(lambda: len(got) == 2)
                await asyncio.sleep(0.1)
                assert len(got) == 2
                by_token = {json.loads(data)["token"]: (data, src) for data, src in got}
                assert by_token[1][1] == ("127.0.0.1", o1)
                assert by_token[2][1] == ("127.0.0.1", o2)
                assert all(len(data) <= OBSERVE_LEN for data, _ in got)
                assert json.loads(by_token[1][0])["endpoint"] == {
                    "ip": "127.0.0.1", "port": sock.getsockname()[1]}
            finally:
                loop.remove_reader(sock.fileno())
                sock.close()
                await server.close()

        run(scenario())


class TestLoopbackMesh:
    def test_two_nodes_direct_encrypted_echo(self):
        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            a = NodeClient(f"127.0.0.1:{port}", "alice", connect=["bob"],
                           observer_ports=(o1, o2))
            b = NodeClient(f"127.0.0.1:{port}", "bob", observer_ports=(o1, o2))
            try:
                assert await a.start() == 0
                assert await b.start() == 0
                assert await a.wait_ready(10.0) and await b.wait_ready(10.0)
                assert a.agent.nat_class == b.agent.nat_class == "public"
                assert await a.link_all(timeout_s=20.0)
                link = a.agent.links["bob"]
                assert link.path == "direct" and link.encrypted
                assert b.agent.links["alice"].bytes_received > 0
            finally:
                await a.close()
                await b.close()
                await server.close()

        run(scenario())

    def test_plain_link_when_encryption_off(self):
        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            a = NodeClient(f"127.0.0.1:{port}", "n1", connect=["n2"],
                           encrypted=False, observer_ports=(o1, o2))
            b = NodeClient(f"127.0.0.1:{port}", "n2",
                           encrypted=False, observer_ports=(o1, o2))
            try:
                assert await a.start() == 0 and await b.start() == 0
                assert await a.wait_ready(10.0) and await b.wait_ready(10.0)
                assert await a.link_all(timeout_s=20.0)
                assert a.agent.links["n2"].encrypted is False
            finally:
                await a.close()
                await b.close()
                await server.close()

        run(scenario())

    def test_a_link_that_falls_back_to_the_relay_costs_one_introduction(self, monkeypatch):
        # Every probe is dropped, so the direct punch times out after 1 s
        # and falls back to the relay while link_all waits.
        monkeypatch.setattr(traversal, "DIRECT_TIMEOUT_S", 1.0)
        send = AsyncioUdpSocket.send

        def send_no_probes(sock, dst, payload):
            if probe_session_id(payload) is None:
                send(sock, dst, payload)

        monkeypatch.setattr(AsyncioUdpSocket, "send", send_no_probes)

        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            a = NodeClient(f"127.0.0.1:{port}", "alice", connect=["bob"],
                           observer_ports=(o1, o2))
            b = NodeClient(f"127.0.0.1:{port}", "bob", observer_ports=(o1, o2))
            try:
                assert await a.start() == 0 and await b.start() == 0
                assert await a.wait_ready(10.0) and await b.wait_ready(10.0)
                assert await a.link_all(timeout_s=20.0)
                link = a.agent.links["bob"]
                assert link.path == "relayed"
                await asyncio.sleep(2.0)
                assert server.core.introductions == 1
                assert len(a.agent.sessions) == len(b.agent.sessions) == 1
                assert a.agent.links["bob"] is link
            finally:
                await a.close()
                await b.close()
                await server.close()

        run(scenario())


class TestNodeCommandObservers:
    @pytest.mark.xfail(strict=True, reason="bdmesh node cannot pass observer ports: "
                       "_node_main builds NodeClient with the default 3478/3479")
    def test_a_node_built_as_the_node_command_does_classifies_itself(self):
        # The coordinator's observers listen on free ports, as with coord
        # --observer-port; the node asks 3478/3479, hears nothing and
        # reads udp_blocked, so every link it makes is relayed.
        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            node = NodeClient(f"127.0.0.1:{port}", "solo", identity=Identity.generate(),
                              connect=[], encrypted=True)
            try:
                assert await node.start() == 0
                assert await node.wait_ready(10.0)
                assert node.agent.nat_class == "public"
            finally:
                await node.close()
                await server.close()

        run(scenario())


class TestShutdown:
    def test_node_close_releases_agent(self):
        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            node = NodeClient(f"127.0.0.1:{port}", "solo", observer_ports=(o1, o2))
            try:
                assert await node.start() == 0
                assert await node.wait_ready(10.0)
                agent = node.agent
                await node.close()
                assert agent.primary._closed
                assert agent._keepalive_timer.cancelled()
            finally:
                await server.close()

        run(scenario())

    def test_a_node_closed_before_its_verdict_closes_every_socket(self, monkeypatch):
        opened = []
        open_socket = AsyncioTransport.open_socket

        def recording(transport, handler):
            sock = open_socket(transport, handler)
            opened.append(sock)
            return sock

        monkeypatch.setattr(AsyncioTransport, "open_socket", recording)

        async def scenario():
            port, o1, o2, silent1, silent2 = free_ports(5)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            # Observer ports nothing listens on: no verdict before 1.5 s.
            node = NodeClient(f"127.0.0.1:{port}", "solo", observer_ports=(silent1, silent2))
            try:
                assert await node.start() == 0
                await asyncio.sleep(0.1)
                agent = node.agent
                classifier = agent._classifier
                assert agent.nat_class == "unknown"
                assert opened == [agent.primary, classifier._probe]
                await node.close()
                assert all(sock._closed for sock in opened)
                assert classifier._timer.cancelled() and node.channel.closed
            finally:
                await server.close()

        run(scenario())

    def test_server_close_closes_every_connection_and_both_observers(self):
        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            core_closes = []
            core_close = server.core.close
            server.core.close = lambda: (core_closes.append(1), core_close())
            node = NodeClient(f"127.0.0.1:{port}", "solo", observer_ports=(o1, o2))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)  # never registers
            try:
                assert await node.start() == 0
                assert await node.wait_ready(10.0)
                await until(lambda: len(server.core.channels) == 2)
                channels = list(server.core.channels)
                await server.close()
                assert core_closes == [1]
                assert all(channel.closed for channel in channels)
                assert len(server.core.observers) == 2
                assert all(sock._closed for sock in server.core.observers)
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                await until(lambda: node.channel.closed)
            finally:
                writer.close()
                await node.close()

        run(scenario())

    def test_server_close_with_client_connected_logs_no_error(self, caplog):
        handled = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: handled.append(context))
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            node = NodeClient(f"127.0.0.1:{port}", "solo", observer_ports=(o1, o2))
            try:
                assert await node.start() == 0
                assert await node.wait_ready(10.0)
                await server.close()
                await until(lambda: node.channel.closed)
                assert node.exit_code == 6  # the node saw its coordinator go
                await asyncio.sleep(0.1)
            finally:
                await node.close()

        with caplog.at_level(logging.WARNING):
            run(scenario())
        assert handled == []
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.ERROR]
        assert not [r for r in caplog.records if r.exc_info or r.exc_text]


class TestFailureExits:
    def test_unreachable_coordinator_exits_6(self):
        async def scenario():
            # A port nothing listens on: connect is refused three times.
            (port,) = free_ports(1)
            client = NodeClient(f"127.0.0.1:{port}", "lonely")
            return await client.start()

        assert run(scenario()) == 6

    def test_identity_conflict_exits_7(self):
        async def scenario():
            port, o1, o2 = free_ports(3)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            first = NodeClient(f"127.0.0.1:{port}", "dup",
                               identity=Identity.generate(),
                               observer_ports=(o1, o2))
            second = NodeClient(f"127.0.0.1:{port}", "dup",
                                identity=Identity.generate(),
                                observer_ports=(o1, o2))
            try:
                assert await first.start() == 0
                assert await first.wait_ready(10.0)
                assert await second.start() == 0
                assert not await second.wait_ready(10.0)
                return second.exit_code
            finally:
                await first.close()
                await second.close()
                await server.close()

        assert run(scenario()) == 7

    def test_occupied_port_exits_5(self):
        async def scenario():
            port, o1, o2, o3, o4 = free_ports(5)
            server = CoordinatorServer("127.0.0.1", port, (o1, o2))
            await server.start()
            try:
                return await _coordinator_main("127.0.0.1", port, (o3, o4))
            finally:
                await server.close()

        assert run(scenario()) == 5


class TestCliProcesses:
    """The coord/node commands as real processes, loopback only."""

    def test_once_mode_round_trip(self):
        port, o1, o2 = free_ports(3)
        env = dict(os.environ, PYTHONPATH="src")
        coord = subprocess.Popen(
            [sys.executable, "-m", "bdmesh.cli", "coord", "--host", "127.0.0.1",
             "--port", str(port), "--observer-port", str(o1),
             "--observer-port2", str(o2)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with socket.socket() as probe:
                    if probe.connect_ex(("127.0.0.1", port)) == 0:
                        break
                time.sleep(0.1)
            listener = subprocess.Popen(
                [sys.executable, "-m", "bdmesh.cli", "node",
                 "--coord", f"127.0.0.1:{port}", "--id", "svc"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            try:
                caller = subprocess.run(
                    [sys.executable, "-m", "bdmesh.cli", "node",
                     "--coord", f"127.0.0.1:{port}", "--id", "cli",
                     "--connect", "svc", "--once"],
                    env=env, capture_output=True, timeout=60)
                assert caller.returncode == 0, caller.stderr.decode()
            finally:
                assert stop(listener) == 0
        finally:
            assert stop(coord) == 0

    def test_a_coordinator_that_fails_to_start_closes_what_it_opened(self):
        # Both observers on one port: the second bind fails once the TCP
        # listener and the first observer socket are open.
        port, o1 = free_ports(2)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "bdmesh.cli", "coord", "--host", "127.0.0.1",
             "--port", str(port), "--observer-port", str(o1), "--observer-port2", str(o1)],
            env=dict(os.environ, PYTHONPATH="src"), capture_output=True, timeout=60)
        assert proc.returncode == 5
        assert b"ResourceWarning" not in proc.stderr, proc.stderr.decode()

    def test_node_without_coordinator_exits_6(self):
        (port,) = free_ports(1)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "bdmesh.cli", "node",
             "--coord", f"127.0.0.1:{port}", "--id", "x", "--once"],
            env=env, capture_output=True, timeout=60)
        assert proc.returncode == 6
