"""Coordinator protocol: registration, observation, introductions with
role assignment, and the relay path."""

import base64
import json
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdmesh import rendezvous
from bdmesh.netsim import MAX_CONTROL_LINE, MAX_DATAGRAM, NatProfile, Network
from bdmesh.rendezvous import (
    DEFAULT_PUNCH,
    Coordinator,
    assign_roles,
)
from bdmesh.traversal import OBSERVE_LEN

KEY_A = base64.b64encode(bytes(range(32))).decode()
KEY_B = base64.b64encode(bytes(range(1, 33))).decode()
KEY_C = base64.b64encode(bytes(range(2, 34))).decode()


class TestRoleTable:
    def test_full_matrix(self):
        classes = ("public", "cone", "easy", "hard", "udp_blocked", "unknown")
        reachable = {"public", "cone", "easy"}
        for a in classes:
            for b in classes:
                roles = assign_roles(a, b)
                if a in ("udp_blocked", "unknown") or b in ("udp_blocked", "unknown"):
                    assert roles == ("relay", "relay"), (a, b)
                elif a == b == "hard":
                    assert roles == ("relay", "relay")
                elif (a, b) == ("hard", "easy"):
                    assert roles == ("opener", "prober"), (a, b)
                elif (a, b) == ("easy", "hard"):
                    assert roles == ("prober", "opener"), (a, b)
                elif "hard" in (a, b):  # a public or cone peer needs no birthday punch
                    assert roles == ("direct", "direct"), (a, b)
                else:
                    assert a in reachable and b in reachable
                    assert roles == ("direct", "direct"), (a, b)

    def test_symmetry(self):
        classes = ("public", "cone", "easy", "hard", "udp_blocked", "unknown")
        for a in classes:
            for b in classes:
                ra, rb = assign_roles(a, b)
                rb2, ra2 = assign_roles(b, a)
                assert (ra, rb) == (ra2, rb2)


class Client:
    def __init__(self, net, host, coord_host, port=4500):
        self.inbox = []
        self.ch = net.connect_channel(host, coord_host, port)
        self.ch.on_line = self.inbox.append

    def send(self, **msg):
        self.ch.send(msg)

    def of_type(self, type_):
        return [m for m in self.inbox if m["type"] == type_]

    def last_error(self):
        errs = self.of_type("error")
        return errs[-1]["error"] if errs else None


def world(punch=None):
    net = Network(seed=50)
    coord_host = net.add_host("coord")
    coord = Coordinator.sim(net, coord_host, punch=punch)
    return net, coord_host, coord


def register(net, client, node, key, **extra):
    client.send(type="register", node=node, pubkey_b64=key, **extra)
    net.run_for(20_000)


class TestRegistration:
    def test_register_returns_observed_endpoint(self):
        net, coord_host, coord = world()
        nat = net.add_nat(NatProfile.easy("n"))
        host = net.add_host("a", nat=nat)
        client = Client(net, host, coord_host)
        register(net, client, "a", KEY_A)
        reply = client.of_type("registered")[0]
        assert reply["node"] == "a"
        assert reply["observed"]["ip"] == nat.public_ip
        assert coord.nodes["a"].pubkey == base64.b64decode(KEY_A)

    def test_register_with_nat_class_and_udp_endpoint(self):
        net, coord_host, coord = world()
        host = net.add_host("a")
        client = Client(net, host, coord_host)
        register(net, client, "a", KEY_A, nat_class="easy",
                 udp_endpoint={"ip": "198.18.0.1", "port": 4242})
        assert coord.nodes["a"].nat_class == "easy"
        assert coord.nodes["a"].udp_endpoint == ("198.18.0.1", 4242)

    def test_malformed_udp_endpoint_is_not_kept(self):
        net, coord_host, coord = world()
        host = net.add_host("a")
        client = Client(net, host, coord_host)
        for ep in ({"ip": "198.18.0.1", "port": 70000}, {"ip": "198.18.0.1", "port": -1},
                   {"ip": "198.18.0.1", "port": True}, {"ip": "198.18.0.1"},
                   {"ip": 1, "port": 4242}, ["198.18.0.1", 4242]):
            register(net, client, "a", KEY_A, nat_class="easy", udp_endpoint=ep)
            assert coord.nodes["a"].udp_endpoint is None
        assert len(client.of_type("registered")) == 6

    def test_bad_node_or_key_rejected(self):
        net, coord_host, _ = world()
        host = net.add_host("a")
        client = Client(net, host, coord_host)
        register(net, client, "", KEY_A)
        assert client.last_error() == "bad-message"
        register(net, client, "x" * 65, KEY_A)
        assert client.last_error() == "bad-message"
        client.send(type="register", node="a", pubkey_b64="def!!not-base64")
        net.run_for(20_000)
        assert client.last_error() == "bad-message"
        client.send(type="register", node="a", pubkey_b64=base64.b64encode(b"short").decode())
        net.run_for(20_000)
        assert len(client.of_type("error")) == 4

    def test_identity_conflict(self):
        net, coord_host, _ = world()
        a1 = Client(net, net.add_host("h1"), coord_host)
        a2 = Client(net, net.add_host("h2"), coord_host)
        register(net, a1, "a", KEY_A)
        register(net, a2, "a", KEY_B)
        assert a2.last_error() == "identity-conflict"
        # Same key may re-register (reconnect) without conflict.
        register(net, a2, "a", KEY_A)
        assert len(a2.of_type("registered")) == 1

    def test_channel_registers_one_node_id(self):
        # A channel may re-register its own id (agents do, after
        # classification); test_malformed_udp_endpoint_is_not_kept does so.
        net, coord_host, coord = world()
        x = Client(net, net.add_host("hx"), coord_host)
        other = Client(net, net.add_host("ho"), coord_host)
        register(net, x, "a", KEY_A)
        register(net, x, "b", KEY_B)
        register(net, other, "c", KEY_C)
        x.ch.close()
        net.run_for(20_000)
        # a's channel is gone, so no introduction may be sent on it.
        other.send(type="introduce_request", peer="a")
        net.run_for(20_000)
        assert other.last_error() == "no-such-node"
        assert x.last_error() == "bad-message"
        assert set(coord.nodes) == {"a", "c"}

    def test_registration_expires(self, monkeypatch):
        monkeypatch.setattr(rendezvous, "REGISTRATION_TTL_S", 1.0)
        net, coord_host, coord = world()
        a = Client(net, net.add_host("h1"), coord_host)
        b = Client(net, net.add_host("h2"), coord_host)
        register(net, a, "a", KEY_A)
        register(net, b, "b", KEY_B)
        net.run_until(2_000_000)
        a.send(type="introduce_request", peer="b")
        net.run_for(20_000)
        assert a.last_error() == "no-such-node"

    def test_ping_refreshes_registration(self, monkeypatch):
        monkeypatch.setattr(rendezvous, "REGISTRATION_TTL_S", 1.0)
        net, coord_host, _ = world()
        a = Client(net, net.add_host("h1"), coord_host)
        b = Client(net, net.add_host("h2"), coord_host)
        register(net, a, "a", KEY_A)
        register(net, b, "b", KEY_B)
        for _ in range(4):
            net.run_for(600_000)
            b.send(type="ping", nonce=7)
        net.run_for(20_000)
        assert b.of_type("pong")[0]["nonce"] == 7
        a.send(type="introduce_request", peer="b")
        net.run_for(20_000)
        assert a.of_type("introduce")


class TestClose:
    def test_every_channel_and_both_observers_close(self):
        net, coord_host, coord = world()
        a = Client(net, net.add_host("a"), coord_host)
        quiet = Client(net, net.add_host("q"), coord_host)  # never registers
        register(net, a, "a", KEY_A)
        assert list(coord.channels.values()) == ["a", None]
        ends = list(coord.channels)
        coord.close()
        assert all(end.closed and end.on_line is None for end in ends)
        assert all(sock.closed for sock in coord.observers) and coord_host.sockets == {}
        net.run_for(50_000)
        assert a.ch.closed and quiet.ch.closed
        assert coord.nodes["a"].pubkey == base64.b64decode(KEY_A)  # what it reports stays


def observe(token, **extra) -> bytes:
    """An observe request padded as the classifier pads it."""
    return json.dumps({"type": "observe", "token": token, **extra}).encode().ljust(OBSERVE_LEN)


class TestObservation:
    def test_udp_observer_reflects_source(self):
        net, coord_host, coord = world()
        host = net.add_host("a")
        got = []
        sock = host.bind(lambda data, src, s: got.append((data, src)), 7000)
        sock.send((coord_host.ip, 3478), observe(9))
        sock.send((coord_host.ip, 3479), b"not json at all".ljust(OBSERVE_LEN))
        net.run_for(20_000)
        assert len(got) == 1
        reply, src = got[0]
        assert json.loads(reply) == {"type": "observed", "token": 9,
                                     "endpoint": {"ip": host.ip, "port": 7000}}
        assert src == (coord_host.ip, 3478)

    def test_change_port_is_answered_from_the_other_port(self):
        net, coord_host, _ = world()
        got = []
        sock = net.add_host("a").bind(lambda data, src, s: got.append((json.loads(data), src)))
        sock.send((coord_host.ip, 3478), observe(1, change_port=True))
        sock.send((coord_host.ip, 3479), observe(2, change_port=True))
        sock.send((coord_host.ip, 3479), observe(3, change_port=False))
        for flag in (1, 0, "yes", None, [True]):
            sock.send((coord_host.ip, 3478), observe(4, change_port=flag))
        net.run_for(20_000)
        assert [(r["token"], src[1]) for r, src in got] == [(1, 3479), (2, 3478), (3, 3479)]

    @pytest.mark.parametrize("extra", [{}, {"change_port": True}])
    def test_no_reply_is_longer_than_its_request(self, extra):
        net, coord_host, _ = world()
        got = []
        sock = net.add_host("a").bind(lambda data, src, s: got.append(data), 7000)
        for token in (0, 9, (1 << 63) - 1):
            sock.send((coord_host.ip, 3478), observe(token, **extra))
        net.run_for(20_000)
        assert len(got) == 3 and all(len(reply) <= OBSERVE_LEN for reply in got)

    @pytest.mark.parametrize("extra", [{}, {"change_port": True}])
    def test_a_request_shorter_than_its_reply_draws_nothing(self, extra):
        net, coord_host, _ = world()
        host = net.add_host("a")
        got = []
        sock = host.bind(lambda data, src, s: got.append(data), 7000)
        request = json.dumps({"type": "observe", "token": 9, **extra}).encode()
        reply_len = len(json.dumps({"type": "observed", "token": 9,
                                    "endpoint": {"ip": host.ip, "port": 7000}},
                                   separators=(",", ":")))
        for size in (len(request), reply_len - 1):  # unpadded, then one byte short
            sock.send((coord_host.ip, 3478), request.ljust(size))
        net.run_for(20_000)
        assert got == []
        sock.send((coord_host.ip, 3478), request.ljust(reply_len))
        net.run_for(20_000)
        assert [len(reply) for reply in got] == [reply_len]

    def test_only_a_classifier_token_is_echoed(self):
        net, coord_host, _ = world()
        got = []
        sock = net.add_host("a").bind(lambda data, src, s: got.append(data), 7000)
        for token in ("x" * 1024, {"a": [1, {"b": 2}]}, True, -1, 1 << 63, 1.0, None):
            sock.send((coord_host.ip, 3478), observe(token))
        sock.send((coord_host.ip, 3478), b'{"type":"observe"}'.ljust(OBSERVE_LEN))
        net.run_for(20_000)
        assert got == []
        for token in (9, 0, (1 << 63) - 1):
            sock.send((coord_host.ip, 3479), observe(token))
        net.run_for(20_000)
        assert [json.loads(g)["token"] for g in got] == [9, 0, (1 << 63) - 1]

    def test_deeply_nested_datagram_is_dropped(self):
        net, coord_host, _ = world()
        got = []
        sock = net.add_host("a").bind(lambda data, src, s: got.append(data), 7000)
        sock.send((coord_host.ip, 3478), b"[" * 1200)
        sock.send((coord_host.ip, 3478), observe(9))
        net.run_for(20_000)
        assert len(got) == 1

    def test_unknown_type_keeps_connection(self):
        net, coord_host, _ = world()
        client = Client(net, net.add_host("a"), coord_host)
        client.send(type="teleport")
        net.run_for(20_000)
        assert client.last_error() == "unknown-type"
        register(net, client, "a", KEY_A)
        assert client.of_type("registered")


class TestIntroduce:
    @staticmethod
    def pair(net, coord_host, class_a, class_b, punch=None):
        a = Client(net, net.add_host("ha"), coord_host)
        b = Client(net, net.add_host("hb"), coord_host)
        register(net, a, "a", KEY_A, nat_class=class_a,
                 udp_endpoint={"ip": "198.18.5.1", "port": 1111})
        register(net, b, "b", KEY_B, nat_class=class_b,
                 udp_endpoint={"ip": "198.18.5.2", "port": 2222})
        a.send(type="introduce_request", peer="b")
        net.run_for(20_000)
        return a, b

    def test_introduce_reaches_both_with_mirrored_roles(self):
        net, coord_host, coord = world()
        a, b = self.pair(net, coord_host, "easy", "hard")
        ia, ib = a.of_type("introduce")[0], b.of_type("introduce")[0]
        assert ia["session_id"] == ib["session_id"]
        assert (ia["role"], ib["role"]) == ("prober", "opener")
        assert ia["peer"] == "b" and ib["peer"] == "a"
        assert ia["peer_nat"] == "hard" and ib["peer_nat"] == "easy"
        assert ia["peer_endpoint"] == {"ip": "198.18.5.2", "port": 2222}
        assert ib["peer_endpoint"] == {"ip": "198.18.5.1", "port": 1111}
        assert ia["peer_pubkey_b64"] == KEY_B and ib["peer_pubkey_b64"] == KEY_A
        assert ia["punch"] == DEFAULT_PUNCH == ib["punch"]

    def test_punch_parameters_flow_through(self):
        net, coord_host, _ = world(punch={"open_ports": 512, "max_seconds": 10.0})
        a, b = self.pair(net, coord_host, "easy", "easy")
        punch = a.of_type("introduce")[0]["punch"]
        assert punch == {"open_ports": 512, "rate": 100.0, "max_seconds": 10.0}

    @pytest.mark.parametrize("pair_classes,want", [
        (("public", "public"), ("direct", "direct")),
        (("hard", "easy"), ("opener", "prober")),
        (("hard", "hard"), ("relay", "relay")),
        (("public", "udp_blocked"), ("relay", "relay")),
        (("easy", "unknown"), ("relay", "relay")),
        (("hard", "public"), ("direct", "direct")),
        (("public", "hard"), ("direct", "direct")),
        (("hard", "cone"), ("direct", "direct")),
        (("cone", "hard"), ("direct", "direct")),
        (("cone", "easy"), ("direct", "direct")),
    ])
    def test_role_matrix_applied(self, pair_classes, want):
        net, coord_host, _ = world()
        a, b = self.pair(net, coord_host, *pair_classes)
        assert (a.of_type("introduce")[0]["role"],
                b.of_type("introduce")[0]["role"]) == want

    def test_failures(self):
        net, coord_host, _ = world()
        a = Client(net, net.add_host("ha"), coord_host)
        a.send(type="introduce_request", peer="b")
        net.run_for(20_000)
        assert a.last_error() == "not-registered"
        register(net, a, "a", KEY_A)
        a.send(type="introduce_request", peer="ghost")
        net.run_for(20_000)
        assert a.last_error() == "no-such-node"
        a.send(type="introduce_request", peer="a")
        net.run_for(20_000)
        assert a.last_error() == "bad-message"


def relay_world():
    net, coord_host, coord = world()
    a = Client(net, net.add_host("ha"), coord_host)
    b = Client(net, net.add_host("hb"), coord_host)
    register(net, a, "a", KEY_A, nat_class="hard")
    register(net, b, "b", KEY_B, nat_class="hard")
    a.send(type="introduce_request", peer="b")
    net.run_for(20_000)
    sid = a.of_type("introduce")[0]["session_id"]
    return net, coord, a, b, sid


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


class TestRelay:
    def test_opens_when_both_sides_open(self):
        net, coord, a, b, sid = relay_world()
        a.send(type="relay_open", session_id=sid)
        net.run_for(20_000)
        assert a.of_type("relay_opened") == [] and b.of_type("relay_opened") == []
        b.send(type="relay_open", session_id=sid)
        net.run_for(20_000)
        assert a.of_type("relay_opened")[0]["session_id"] == sid
        assert b.of_type("relay_opened")[0]["session_id"] == sid

    def test_data_forwarded_both_ways(self):
        net, coord, a, b, sid = relay_world()
        a.send(type="relay_open", session_id=sid)
        b.send(type="relay_open", session_id=sid)
        net.run_for(20_000)
        a.send(type="relay_data", session_id=sid, payload_b64=b64(b"from a"))
        b.send(type="relay_data", session_id=sid, payload_b64=b64(b"from b"))
        net.run_for(20_000)
        assert base64.b64decode(b.of_type("relay_data")[0]["payload_b64"]) == b"from a"
        assert base64.b64decode(a.of_type("relay_data")[0]["payload_b64"]) == b"from b"
        assert coord.sessions[sid].relayed_bytes == 12

    def test_data_before_open_rejected(self):
        net, coord, a, b, sid = relay_world()
        a.send(type="relay_data", session_id=sid, payload_b64=b64(b"x"))
        net.run_for(20_000)
        assert a.last_error() == "no-such-session"

    def test_unknown_session_and_foreign_session(self):
        net, coord, a, b, sid = relay_world()
        a.send(type="relay_open", session_id="feedfacefeedface")
        net.run_for(20_000)
        assert a.last_error() == "no-such-session"

    @pytest.mark.parametrize("type_", ["relay_open", "relay_data"])
    @pytest.mark.parametrize("session_id", [["x"], {"x": 1}, 7, None])
    def test_non_string_session_id_is_bad_message(self, type_, session_id):
        net, coord, a, b, sid = relay_world()
        a.send(type=type_, session_id=session_id, payload_b64=b64(b"x"))
        net.run_for(20_000)
        assert a.last_error() == "bad-message"
        a.send(type="relay_open", session_id=sid)  # the channel still works
        b.send(type="relay_open", session_id=sid)
        net.run_for(20_000)
        assert a.of_type("relay_opened")

    def test_oversize_and_bad_base64(self):
        net, coord, a, b, sid = relay_world()
        a.send(type="relay_open", session_id=sid)
        b.send(type="relay_open", session_id=sid)
        net.run_for(20_000)
        a.send(type="relay_data", session_id=sid, payload_b64=b64(b"y" * MAX_DATAGRAM))
        net.run_for(20_000)
        assert a.of_type("error") == []  # one datagram of the largest size fits
        assert base64.b64decode(b.of_type("relay_data")[0]["payload_b64"]) == b"y" * MAX_DATAGRAM
        a.send(type="relay_data", session_id=sid,
               payload_b64=b64(b"x" * (MAX_DATAGRAM + 1)))
        net.run_for(20_000)
        assert a.last_error() == "bad-message"
        a.send(type="relay_data", session_id=sid, payload_b64="!!!")
        net.run_for(20_000)
        assert len(a.of_type("error")) == 2
        assert len(b.of_type("relay_data")) == 1

    def test_counterpart_disconnect_is_peer_gone(self):
        net, coord, a, b, sid = relay_world()
        a.send(type="relay_open", session_id=sid)
        b.send(type="relay_open", session_id=sid)
        net.run_for(20_000)
        b.ch.close()
        net.run_for(20_000)
        a.send(type="relay_data", session_id=sid, payload_b64=b64(b"x"))
        net.run_for(20_000)
        assert a.last_error() == "peer-gone"

    def test_chunked_transfer_is_order_preserving(self):
        net, coord, a, b, sid = relay_world()
        a.send(type="relay_open", session_id=sid)
        b.send(type="relay_open", session_id=sid)
        net.run_for(20_000)
        blob = bytes(range(256)) * 16  # 4096 bytes
        for i in range(0, len(blob), MAX_DATAGRAM):
            a.send(type="relay_data", session_id=sid,
                   payload_b64=b64(blob[i:i + MAX_DATAGRAM]))
        net.run_for(50_000)
        got = b"".join(base64.b64decode(m["payload_b64"]) for m in b.of_type("relay_data"))
        assert got == blob


def opened_relay_world():
    """relay_world with the session open at both ends."""
    net, coord, a, b, sid = relay_world()
    a.send(type="relay_open", session_id=sid)
    b.send(type="relay_open", session_id=sid)
    net.run_for(20_000)
    assert a.of_type("relay_opened")
    return net, coord, a, b, sid


class TestMalformedInput:
    @pytest.mark.parametrize("payload", [{}, {"payload_b64": 7}, {"payload_b64": None},
                                         {"payload_b64": "\u00e9"}])
    def test_relay_data_without_a_base64_string_is_bad_message(self, payload):
        net, coord, a, b, sid = opened_relay_world()
        a.send(type="relay_data", session_id=sid, **payload)
        net.run_for(20_000)
        assert a.last_error() == "bad-message"
        assert b.of_type("relay_data") == [] and coord.sessions[sid].relayed_bytes == 0

    def test_non_ascii_pubkey_is_bad_message(self):
        net, coord_host, coord = world()
        client = Client(net, net.add_host("a"), coord_host)
        register(net, client, "a", "\u00e9" * 44)
        assert client.last_error() == "bad-message" and "a" not in coord.nodes

    def test_error_details_do_not_echo_the_client(self):
        net, coord_host, _ = world()
        client = Client(net, net.add_host("a"), coord_host)
        lines = []
        net.on_wire = lambda kind, src, dst, line: lines.append(line)
        register(net, client, "a", KEY_A)
        echo = "\\" * 3000  # each backslash doubles in a repr, then again in JSON
        client.send(type=echo)
        client.send(type="introduce_request", peer=echo)
        net.run_for(20_000)
        errors = client.of_type("error")
        assert [e["error"] for e in errors] == ["unknown-type", "no-such-node"]
        assert all("\\" not in e["detail"] for e in errors)
        assert max(len(line) for line in lines) <= MAX_CONTROL_LINE

    @pytest.mark.parametrize("nonce", [0, (1 << 32) - 1])
    def test_a_ping_echoes_its_integer_nonce(self, nonce):
        net, coord_host, _ = world()
        client = Client(net, net.add_host("a"), coord_host)
        client.send(type="ping", nonce=nonce)
        net.run_for(20_000)
        assert client.of_type("pong") == [{"type": "pong", "nonce": nonce}]

    @pytest.mark.parametrize("extra", [{}, {"nonce": None}, {"nonce": -1}, {"nonce": 1 << 32},
                                       {"nonce": True}, {"nonce": 7.0}, {"nonce": "7"},
                                       {"nonce": [7]}])
    def test_a_ping_with_any_other_nonce_is_bad_message(self, extra):
        net, coord_host, _ = world()
        client = Client(net, net.add_host("a"), coord_host)
        client.send(type="ping", **extra)
        net.run_for(20_000)
        assert client.last_error() == "bad-message" and client.of_type("pong") == []

    def test_a_ping_reply_fits_a_line_as_the_asyncio_backend_writes_it(self):
        # The asyncio backend reads this ping as raw UTF-8 that fits a line,
        # but writes every reply with \u escapes: a pong echoing the nonce
        # would be three times as long, past MAX_CONTROL_LINE.
        msg = {"type": "ping", "nonce": "\u00e9" * 4000}
        assert len(json.dumps(msg, ensure_ascii=False).encode()) < MAX_CONTROL_LINE
        sent = []
        channel = SimpleNamespace(send=sent.append, peer_observed=("198.18.0.9", 4000))
        Coordinator().handle(channel, msg)
        (reply,) = sent
        assert reply["error"] == "bad-message"
        assert len(json.dumps(reply, separators=(",", ":"))) <= MAX_CONTROL_LINE

    def test_an_overlong_udp_endpoint_is_not_kept(self):
        # Sent on in the peer's introduce, it would overflow that line.
        net, coord_host, coord = world()
        a = Client(net, net.add_host("ha"), coord_host)
        b = Client(net, net.add_host("hb"), coord_host)
        register(net, a, "a", KEY_A, nat_class="easy",
                 udp_endpoint={"ip": "\\" * 4000, "port": 1})
        register(net, b, "b", KEY_B, nat_class="easy")
        assert coord.nodes["a"].udp_endpoint is None
        b.send(type="introduce_request", peer="a")
        net.run_for(20_000)
        assert b.of_type("introduce")[0]["peer_endpoint"] == {"ip": "10.0.0.2", "port": 61000}


# The fields each client type reads, each with a well-formed value.
# "$sid" stands for the open relay session's id.
CLIENT_FIELDS = {
    "register": {"node": "a", "pubkey_b64": KEY_A, "nat_class": "hard",
                 "udp_endpoint": {"ip": "198.18.5.1", "port": 1111}},
    "ping": {"nonce": 1},
    "introduce_request": {"node": "a", "peer": "b"},
    "relay_open": {"session_id": "$sid"},
    "relay_data": {"session_id": "$sid", "payload_b64": b64(b"x")},
}

# A character repeated to at most 8000 bytes of JSON: long enough to
# overflow a reply that echoed it twice escaped.
long_text = st.builds(lambda ch, n: ch * (n // (len(json.dumps(ch)) - 2)),
                      st.sampled_from(["\\", '"', "\x00", "\u00e9", "a"]),
                      st.integers(0, 8000))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | long_text,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids,
                                                              max_size=3),
    max_leaves=6)


@st.composite
def client_messages(draw):
    """A known client type or any JSON value as the type; each field the
    type reads is left out, well-formed or any JSON value."""
    kind = draw(st.sampled_from(sorted(CLIENT_FIELDS)) | long_text | json_values)
    msg = {"type": kind}
    fields = CLIENT_FIELDS.get(kind, {}) if isinstance(kind, str) else {}
    for name, good in fields.items():
        how = draw(st.sampled_from(("absent", "good", "any")))
        if how != "absent":
            msg[name] = good if how == "good" else draw(long_text | json_values)
    return msg


class TestCoordinatorFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(client_messages(), min_size=1, max_size=3))
    def test_handle_is_total_and_replies_fit_a_line(self, msgs):
        net, coord, a, b, sid = opened_relay_world()
        lines = []
        net.on_wire = lambda kind, src, dst, line: lines.append(line)
        for msg in msgs:
            msg = {k: sid if v == "$sid" else v for k, v in msg.items()}
            assume(len(json.dumps(msg, separators=(",", ":"))) < MAX_CONTROL_LINE)
            a.send(**msg)
            net.run_for(20_000)  # raises whatever escapes Coordinator.handle
        assert lines and max(len(line) for line in lines) <= MAX_CONTROL_LINE
