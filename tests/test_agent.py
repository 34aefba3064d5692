"""End-to-end agent flows over the simulator: classify, introduce,
punch (direct and birthday), relay fallback, handshake, payload."""

import base64
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdmesh import traversal
from bdmesh.agent import LINK_CHUNK, NodeAgent
from bdmesh.errors import SimulationError
from bdmesh.netsim import MAX_DATAGRAM, FilteringMode, LinkPolicy, NatProfile, Network
from bdmesh.rendezvous import ROLES, Coordinator
from bdmesh.securelink import (
    FRAME_HEADER_LEN,
    FRAME_TAG_LEN,
    HANDSHAKE_MAGIC,
    HANDSHAKE_VERSION,
    MSG_INIT,
    MSG_REPLY,
    HandshakeInitiator,
    frame_plain,
    is_handshake,
)


APDF = FilteringMode.ADDRESS_AND_PORT_DEPENDENT


def make_world(seed=100, punch=None, trace=False):
    net = Network(seed=seed, trace=trace)
    coord_host = net.add_host("coord")
    coord = Coordinator.sim(net, coord_host, punch=punch)
    return net, coord_host, coord


def spawn(net, coord_host, node_id, nat_profile=None, link=None, host_name=None, **kw):
    nat = net.add_nat(nat_profile) if nat_profile is not None else None
    host = net.add_host(host_name or f"h-{node_id}", nat=nat, link=link)
    agent = NodeAgent.sim(net, host, coord_host, node_id, **kw)
    agent.start()
    return agent, host


def wait(net, cond, timeout_s=30.0, step_ms=20):
    deadline = net.now_us + int(timeout_s * 1_000_000)
    while not cond() and net.now_us < deadline:
        net.run_until(min(deadline, net.now_us + step_ms * 1000))
    return cond()


def sniff(net):
    """Record every wire payload; relay lines are base64-expanded."""
    captured = []

    def on_wire(kind, src, dst, payload):
        captured.append(payload)
        if kind == "ctrl":
            try:
                obj = json.loads(payload)
            except ValueError:
                return
            if isinstance(obj, dict) and obj.get("type") == "relay_data":
                captured.append(base64.b64decode(obj.get("payload_b64", "")))

    net.on_wire = on_wire
    return captured


def linked(a, b, peer_a, peer_b):
    return lambda: peer_b in a.links and peer_a in b.links


class TestDirectLink:
    def test_public_pair_direct_encrypted(self):
        net, coord_host, coord = make_world(seed=101)
        a, _ = spawn(net, coord_host, "alpha")
        b, _ = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        assert a.nat_class == "public" and b.nat_class == "public"
        wire = sniff(net)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        link_ab, link_ba = a.links["beta"], b.links["alpha"]
        assert link_ab.path == link_ba.path == "direct"
        assert link_ab.encrypted and link_ba.encrypted
        got = []
        link_ba.on_payload = got.append
        link_ab.send(b"plaintext-marker/0001")
        net.run_for(1_000_000)
        assert got == [b"plaintext-marker/0001"]
        assert not any(b"plaintext-marker" in w for w in wire)

    def test_replayed_m1_from_an_earlier_session_keeps_the_link(self):
        # An M1 does not bind its session, so the one from an earlier
        # session between the same identities still verifies; answering it
        # would replace the responder's cipher and no later frame would open.
        net, coord_host, _ = make_world(seed=101)
        a, _ = spawn(net, coord_host, "alpha")
        b, host_b = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        wire = sniff(net)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        (old_m1,) = {w for w in wire if is_handshake(w) and w[5] == MSG_INIT}
        first = a.links["beta"]
        a.connect("beta")  # a second session between the same identities
        assert wait(net, lambda: a.links["beta"] is not first, 10.0)
        net.run_for(1_000_000)
        a.primary.send((host_b.ip, b.primary.local_port), old_m1)  # from alpha's endpoint
        net.run_for(100_000)
        got = []
        b.links["alpha"].on_payload = got.append
        a.links["beta"].send(b"after the replay")
        net.run_for(1_000_000)
        assert got == [b"after the replay"]

    def test_a_retried_m1_gets_the_cached_m2_and_nothing_else(self):
        net, coord_host, _ = make_world(seed=123)
        a, _ = spawn(net, coord_host, "alpha")
        b, host_b = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        (ls,) = b.sessions.values()  # beta responds
        m1, m2 = ls.handshake
        before = (ls.cipher, ls.link, dict(b.links), dict(b._channels), dict(a.links))
        wire = sniff(net)
        a.primary.send((host_b.ip, b.primary.local_port), m1)
        net.run_for(100_000)
        assert wire == [m1, m2]
        assert (ls.cipher, ls.link, dict(b.links), dict(b._channels), dict(a.links)) == before
        got = []
        b.links["alpha"].on_payload = got.append
        a.links["beta"].send(b"after the retry")
        net.run_for(100_000)
        assert got == [b"after the retry"]

    def test_easy_pair_direct(self):
        net, coord_host, _ = make_world(seed=102)
        a, _ = spawn(net, coord_host, "alpha", NatProfile.easy("na"))
        b, _ = spawn(net, coord_host, "beta", NatProfile.easy("nb"))
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        assert a.nat_class == "cone" and b.nat_class == "cone"  # no filter at all
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        assert a.links["beta"].path == "direct"

    def test_unencrypted_link_shows_plaintext(self):
        net, coord_host, _ = make_world(seed=103)
        a, _ = spawn(net, coord_host, "alpha", default_encrypted=False)
        b, _ = spawn(net, coord_host, "beta", default_encrypted=False)
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        wire = sniff(net)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        got = []
        b.links["alpha"].on_payload = got.append
        a.links["beta"].send(b"plaintext-marker/0002")
        net.run_for(1_000_000)
        assert got == [b"plaintext-marker/0002"]
        assert any(b"plaintext-marker/0002" in w for w in wire)
        assert not a.links["beta"].encrypted

    def test_sealed_frame_from_another_source_is_delivered(self):
        # Sealed frames are demuxed by channel id, not by source.
        net, coord_host, _ = make_world(seed=101)
        a, host_a = spawn(net, coord_host, "alpha")
        b, host_b = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        got = []
        b.links["alpha"].on_payload = got.append
        frame = a._session_by_peer["beta"].cipher.seal(b"roamed")
        other = host_a.bind(lambda *x: None)
        other.send((host_b.ip, b.primary.local_port), frame)
        net.run_for(100_000)
        assert got == [b"roamed"]

    def test_plain_frame_from_another_source_is_dropped(self):
        net, coord_host, _ = make_world(seed=103)
        a, host_a = spawn(net, coord_host, "alpha", default_encrypted=False)
        b, host_b = spawn(net, coord_host, "beta", default_encrypted=False)
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        got = []
        b.links["alpha"].on_payload = got.append
        other = host_a.bind(lambda *x: None)
        other.send((host_b.ip, b.primary.local_port), frame_plain(b"spoofed"))
        net.run_for(100_000)
        assert got == []

    def test_a_probe_is_parsed_once_and_a_malformed_one_is_dropped(self, monkeypatch):
        # The agent demuxes a probe by its session id field; the machine
        # makes the one full parse.
        net, coord_host, _ = make_world(seed=101)
        a, host_a = spawn(net, coord_host, "alpha")
        b, _ = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        ls = b._session_by_peer["alpha"]
        parsed = []
        monkeypatch.setattr(traversal, "parse_probe",
                            lambda data, real=traversal.parse_probe: parsed.append(data) or real(data))
        sent = net.stats["sent"]
        probe = traversal.pack_probe(traversal.KIND_PROBE, ls.session_id, b"n" * 8)
        src = (host_a.ip, a.primary.local_port)
        b._on_datagram(probe[:4] + b"\x09" + probe[5:], src, b.primary)  # bad version
        assert len(parsed) == 1 and net.stats["sent"] == sent
        b._on_datagram(probe, src, b.primary)  # a direct punch acks every PROBE
        assert parsed == [probe[:4] + b"\x09" + probe[5:], probe]
        assert net.stats["sent"] == sent + 1
        assert b.links["alpha"] is ls.link

    def test_unencrypted_link_ignores_a_handshake(self):
        # A link configured without encryption never answers an M1: no
        # cipher, no channel id, no M2 on the wire.
        net, coord_host, _ = make_world(seed=101)
        a, _ = spawn(net, coord_host, "alpha", default_encrypted=False)
        b, host_b = spawn(net, coord_host, "beta", default_encrypted=False)
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        wire = sniff(net)
        m1 = HandshakeInitiator(a.identity, b.identity.public_bytes, rng=net.rng).message1()
        a.primary.send((host_b.ip, b.primary.local_port), m1)  # from alpha's route
        net.run_for(1_000_000)
        ls = b._session_by_peer["alpha"]
        assert ls.cipher is None
        assert b._channels == {}
        assert not any(is_handshake(w) and w[5] == MSG_REPLY for w in wire)


class TestBirthdayLink:
    def test_hard_easy_pair_uses_birthday_punch(self):
        net, coord_host, _ = make_world(
            seed=104, punch={"open_ports": 256, "rate": 100.0, "max_seconds": 20.0})
        events = []
        a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"),
                     on_event=events.append)
        # An easy NAT that filters by port: the peer the birthday law describes.
        b, _ = spawn(net, coord_host, "beta", NatProfile("nb", filtering=APDF),
                     on_event=events.append)
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        assert a.nat_class == "hard" and b.nat_class == "easy"
        b.connect("alpha")
        assert wait(net, linked(a, b, "alpha", "beta"), 30.0)
        assert a.links["beta"].path == "direct"
        assert b.links["alpha"].path == "direct"
        # The prober reports how many ports it tried.
        prober_up = [e for e in events if e["event"] == "link_up" and e["peer"] == "alpha"]
        assert prober_up and prober_up[0]["probes"] >= 1
        got = []
        a.links["beta"].on_payload = got.append
        b.links["alpha"].send(b"through the pinhole")
        net.run_for(1_000_000)
        assert got == [b"through the pinhole"]

    def test_hard_public_pair(self):
        net, coord_host, _ = make_world(seed=105)
        a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        b, _ = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 30.0)
        assert a.links["beta"].path == "direct"


class TestPinholePool:
    """A hard node's openers share one pool of B pinhole sockets."""

    def test_concurrent_openers_share_one_pool(self):
        net, coord_host, _ = make_world(seed=107)
        a, host = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        held = []
        open_sockets = host.open_sockets

        def recording(handler, n):
            socks = open_sockets(handler, n)
            held.append(len(host.sockets))
            return socks

        host.open_sockets = recording
        peers = [spawn(net, coord_host, name, NatProfile(f"n{name}", filtering=APDF))[0]
                 for name in ("beta", "gamma", "delta")]
        assert wait(net, lambda: a.ready and all(p.ready for p in peers), 5.0)
        for p in peers:
            p.connect("alpha")
        net.run_for(200_000)
        assert [ls.role for ls in a.sessions.values()] == ["opener"] * 3
        assert not any(ls.terminal for ls in a.sessions.values())  # all three in flight
        assert wait(net, lambda: all(linked(a, p, "alpha", p.node_id)() for p in peers), 30.0)
        assert {a.links[p.node_id].path for p in peers} == {"direct"}
        b = a.sessions[next(iter(a.sessions))].cfg.open_ports
        assert max(held) <= 2 + b and len(a._pinholes) == b
        # Every link still carries payload on its own pinhole.
        for p in peers:
            got = []
            a.links[p.node_id].on_payload = got.append
            p.links["alpha"].send(b"via the pool")
            net.run_for(500_000)
            assert got == [b"via the pool"]
        assert len({ls.sock for ls in a.sessions.values()}) == 3

    def test_a_pool_that_cannot_open_or_grow_relays_the_opener(self):
        # Out of ephemeral ports: the session asks for the relay at once,
        # with no machine, and the openers already running keep the pool.
        net, coord_host, _ = make_world(seed=108)
        a, host = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        assert wait(net, lambda: a.ready, 5.0)
        span = host.EPHEMERAL_HI - host.EPHEMERAL_LO + 1
        host.open_sockets(lambda *x: None, span - 1 - 16)  # 16 ports stay free
        relay_requests = []
        net.on_wire = lambda kind, src, dst, payload: (
            b'"relay_open"' in payload and relay_requests.append(json.loads(payload)))
        intro = dict(TestIntroduceParameters.INTRO, role="opener")
        for sid, ports in (("01" * 8, 8), ("02" * 8, 4096), ("03" * 8, 17), ("04" * 8, 16)):
            rng_state = net.rng.getstate()
            a._on_control(dict(intro, session_id=sid, peer=f"p{sid}", punch={"open_ports": ports}))
            assert (net.rng.getstate() == rng_state) == (sid in ("02" * 8, "03" * 8))
        held = dict(host.sockets)
        net.run_for(100_000)
        s1, s2, s3, s4 = (a.sessions[bytes.fromhex(sid)] for sid in ("01" * 8, "02" * 8,
                                                                    "03" * 8, "04" * 8))
        assert [r["session_id"] for r in relay_requests] == ["02" * 8, "03" * 8]
        assert s2.machine is None and s3.machine is None
        assert not s1.machine.done and not s4.machine.done
        assert len(a._pinholes) == 16 and s4.machine._sockets == a._pinholes
        assert host.sockets == held and len(held) == span  # every port taken, none more

    def test_data_from_an_acked_prober_confirms_and_reaches_the_link(self):
        # Every CONFIRM of the prober is lost.  The prober initiates the
        # handshake, so its M1 is the first datagram the opener's pinhole
        # gets from it after the ack: it confirms the punch and is answered
        # at once, with no M1 retry.
        net, coord_host, _ = make_world(seed=104)
        easy, host_e = spawn(net, coord_host, "alpha", NatProfile("na", filtering=APDF))
        hard, _ = spawn(net, coord_host, "beta", NatProfile.hard("nb"))
        send = net._send_from

        def lossy(host, src_port, dst, payload):
            parsed = traversal.parse_probe(payload)
            if host is host_e and parsed is not None and parsed[0] == traversal.KIND_CONFIRM:
                return
            send(host, src_port, dst, payload)

        net._send_from = lossy
        assert wait(net, lambda: easy.ready and hard.ready, 5.0)
        easy.connect("beta")
        assert wait(net, linked(easy, hard, "alpha", "beta"), 30.0)
        (e,), (h,) = easy.sessions.values(), hard.sessions.values()
        assert (e.role, h.role) == ("prober", "opener") and h.path == e.path == "direct"
        assert e.initiator and e.handshake_tries == 1


class TestHardPublicLink:
    """A hard side facing a public or cone peer needs no birthday punch:
    both run the direct punch, the hard side's probe from its primary
    socket opens one mapping toward the peer's endpoint, and the peer
    keeps the source of that mapping as the hard side's endpoint."""

    @staticmethod
    def link_up(seed, link=None, lost=None, peer_nat=None):
        """lost(kind, number) says whether the hard side's number-th
        punch datagram of that kind (counted from 1) is lost on the wire;
        peer_nat puts the peer behind a NAT, one that must read cone."""
        net, coord_host, _ = make_world(seed=seed)
        a, host_a = spawn(net, coord_host, "alpha", NatProfile.hard("na"), link=link)
        b, host_b = spawn(net, coord_host, "beta", peer_nat)
        if lost is not None:
            send = net._send_from
            sent = {}

            def lossy(host, src_port, dst, payload):
                parsed = traversal.parse_probe(payload)
                if host is host_a and parsed is not None:
                    kind = parsed[0]
                    sent[kind] = sent.get(kind, 0) + 1
                    if lost(kind, sent[kind]):
                        return
                send(host, src_port, dst, payload)
            net._send_from = lossy
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        assert (a.nat_class, b.nat_class) == ("hard", "public" if peer_nat is None else "cone")
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        (hard,), (peer,) = a.sessions.values(), b.sessions.values()
        assert (hard.role, peer.role) == ("direct", "direct")
        assert a.links["beta"].path == b.links["alpha"].path == "direct"
        # The hard host never opened a socket beyond its primary.
        assert list(host_a.sockets.values()) == [a.primary] and hard.sock is a.primary
        toward_b = host_a.nat._by_key[((host_a.ip, a.primary.local_port), b.observed)]
        assert peer.peer_ep == (host_a.nat.public_ip, toward_b.ext_port)
        assert peer.peer_ep != a.observed  # the registered udp_endpoint
        got = []
        a.links["beta"].on_payload = got.append
        b.links["alpha"].send(b"to the hard side's mapping")
        net.run_for(1_000_000)
        assert got == [b"to the hard side's mapping"]
        return hard, peer

    def test_one_round_trip_from_the_primary_socket(self):
        hard, public = self.link_up(seed=105)
        assert hard.machine.probes_sent <= 3 and public.machine.probes_sent <= 3

    @pytest.mark.parametrize("filtering", [FilteringMode.ENDPOINT_INDEPENDENT,
                                           FilteringMode.ADDRESS_DEPENDENT])
    def test_a_cone_peer_links_in_one_round_trip(self, filtering):
        # Neither NAT filters the other's probes by port: no birthday burst.
        hard, cone = self.link_up(seed=131, peer_nat=NatProfile("nb", filtering=filtering))
        assert hard.machine.probes_sent <= 3 and cone.machine.probes_sent <= 3

    def test_a_lossy_hard_uplink_still_links_directly(self):
        # The direct punch resends every DIRECT_INTERVAL_S until acked; the
        # hard side's first probe is lost, and 30 % of the rest.
        hard, _ = self.link_up(seed=129, link=LinkPolicy(loss=0.3),
                               lost=lambda kind, n: kind == traversal.KIND_PROBE and n == 1)
        assert hard.machine.probes_sent > 1

    def test_every_confirm_of_the_hard_side_lost(self):
        # The hard NAT filters the public side's probes at the registered
        # endpoint, so the public side finishes only by probing the source
        # of the probe it acked, which the hard side acks in turn.
        hard, public = self.link_up(seed=105, lost=lambda kind, n: kind == traversal.KIND_CONFIRM)
        assert hard.machine.probes_sent <= 3 and public.machine.probes_sent <= 3


def relayed_pair():
    """Two hard NATs, so alpha and beta link over the relay."""
    net, coord_host, _ = make_world(seed=106)
    a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
    b, _ = spawn(net, coord_host, "beta", NatProfile.hard("nb"))
    assert wait(net, lambda: a.ready and b.ready, 5.0)
    a.connect("beta")
    assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
    return net, a, b


class TestRelayLink:
    def test_hard_hard_pair_is_relayed(self):
        net, coord_host, coord = make_world(seed=106)
        a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        b, _ = spawn(net, coord_host, "beta", NatProfile.hard("nb"))
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        wire = sniff(net)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        assert a.links["beta"].path == "relayed"
        assert b.links["alpha"].path == "relayed"
        got = []
        b.links["alpha"].on_payload = got.append
        a.links["beta"].send(b"plaintext-marker/0003")
        net.run_for(1_000_000)
        assert got == [b"plaintext-marker/0003"]
        # Encrypted even across the relay: the marker never shows.
        assert not any(b"plaintext-marker" in w for w in wire)
        assert sum(s.relayed_bytes for s in coord.sessions.values()) > 0

    def test_udp_blocked_node_is_relayed(self):
        net, coord_host, _ = make_world(seed=107)
        a, _ = spawn(net, coord_host, "alpha", link=LinkPolicy(udp_blocked=True))
        b, _ = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 10.0)
        assert a.nat_class == "udp_blocked"
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        assert a.links["beta"].path == "relayed"

    def test_punch_failure_falls_back_to_relay(self):
        net, coord_host, _ = make_world(seed=108)
        a, host_a = spawn(net, coord_host, "alpha")
        b, host_b = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        # UDP dies after classification: both direct punches must time
        # out and the session must recover over the relay.
        host_a.link = LinkPolicy(udp_blocked=True)
        host_b.link = LinkPolicy(udp_blocked=True)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 30.0)
        assert a.links["beta"].path == "relayed"
        assert b.links["alpha"].path == "relayed"

    def test_large_payload_relayed_intact(self):
        net, coord_host, _ = make_world(seed=109)
        a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        b, _ = spawn(net, coord_host, "beta", NatProfile.hard("nb"))
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        blob = bytes(i % 251 for i in range(65536))
        chunks = []
        b.links["alpha"].on_payload = chunks.append
        a.links["beta"].send(blob)
        assert wait(net, lambda: sum(len(c) for c in chunks) >= len(blob), 30.0)
        got = b"".join(chunks)
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(blob).hexdigest()

    def test_a_bogus_relay_record_does_not_wedge_the_link(self):
        # A relay line carries one datagram, so a body whose first two bytes
        # read as a length no later body can satisfy is dropped on its own.
        net, a, b = relayed_pair()
        (ls,) = b.sessions.values()
        b._on_control({"type": "relay_data", "session_id": ls.session_id.hex(),
                       "payload_b64": base64.b64encode(b"\xff\xff").decode()})
        got = []
        b.links["alpha"].on_payload = got.append
        a.links["beta"].send(b"after the bogus record")
        net.run_for(1_000_000)
        assert got == [b"after the bogus record"]

    def test_a_sealed_chunk_is_one_relay_line_per_hop(self):
        net, a, b = relayed_pair()
        wire = []
        net.on_wire = lambda kind, src, dst, payload: wire.append((kind, payload))
        got = []
        b.links["alpha"].on_payload = got.append
        a.links["beta"].send(bytes(LINK_CHUNK))
        net.run_for(1_000_000)
        assert got == [bytes(LINK_CHUNK)]
        lines = [json.loads(payload) for kind, payload in wire if kind == "ctrl"]
        relayed = [m for m in lines if m["type"] == "relay_data"]
        assert len(relayed) == 2  # alpha -> coordinator -> beta
        assert len(base64.b64decode(relayed[0]["payload_b64"])) == (
            LINK_CHUNK + FRAME_HEADER_LEN + FRAME_TAG_LEN)

    def test_the_largest_body_fits_a_datagram(self):
        assert LINK_CHUNK + FRAME_HEADER_LEN + FRAME_TAG_LEN <= MAX_DATAGRAM


class TestAgentEdges:
    def test_identity_conflict_is_fatal(self):
        net, coord_host, _ = make_world(seed=110)
        events = []
        a1, _ = spawn(net, coord_host, "alpha")
        a2, _ = spawn(net, coord_host, "alpha", host_name="h-imposter",  # same id, fresh key
                      on_event=events.append)
        wait(net, lambda: a1.ready, 5.0)
        net.run_for(3_000_000)
        assert {e["error"] for e in events if e["event"] == "coordinator_error"} == {
            "identity-conflict"}
        assert not a2.ready

    def test_link_encryption_override(self):
        net, coord_host, _ = make_world(seed=111)
        # Set after construction, as realize_plan sets a plan's theta.
        a, _ = spawn(net, coord_host, "alpha", default_encrypted=True)
        b, _ = spawn(net, coord_host, "beta", default_encrypted=True)
        a.default_encrypted = b.default_encrypted = False
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        assert not a.links["beta"].encrypted and not b.links["alpha"].encrypted

    def test_deterministic_event_stream(self):
        def run():
            net, coord_host, _ = make_world(seed=112, trace=True)
            a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
            b, _ = spawn(net, coord_host, "beta", NatProfile.easy("nb"))
            wait(net, lambda: a.ready and b.ready, 5.0)
            b.connect("alpha")
            wait(net, linked(a, b, "alpha", "beta"), 30.0)
            got = []
            if "alpha" in b.links:
                a.links["beta"].on_payload = got.append
                b.links["alpha"].send(b"ping")
                net.run_for(1_000_000)
            return net.trace.digest(), bool(got)

        first, second = run(), run()
        assert first == second
        assert first[1]

    def test_empty_payload_travels(self):
        net, coord_host, _ = make_world(seed=113)
        a, _ = spawn(net, coord_host, "alpha")
        b, _ = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        got = []
        b.links["alpha"].on_payload = got.append
        a.links["beta"].send(b"")
        net.run_for(1_000_000)
        assert got == [b""]

    def test_deeply_nested_json_datagram_is_dropped(self):
        net, coord_host, _ = make_world(seed=121)
        a, host_a = spawn(net, coord_host, "alpha")
        b, _ = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        prankster = net.add_host("prankster").bind(lambda *x: None)
        prankster.send((host_a.ip, a.primary.local_port), b'{"a":' + b"[" * 1190)
        net.run_for(100_000)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)


class TestIntroduceParameters:
    INTRO = {"type": "introduce", "session_id": "00" * 8, "peer": "beta",
             "peer_endpoint": {"ip": "10.9.9.9", "port": 9}, "peer_pubkey_b64": "",
             "role": "relay"}

    def test_malformed_punch_fails_the_session_without_raising(self):
        net, coord_host, _ = make_world(seed=114)
        events = []
        a, _ = spawn(net, coord_host, "alpha", on_event=events.append)
        assert wait(net, lambda: a.ready, 5.0)
        bad = (None, 7, {"rate": "fast"}, {"open_ports": None}, {"open_ports": 0},
               json.loads('{"max_seconds": 1e999}'), {"max_seconds": float("nan")},
               json.loads('{"open_ports": 1e999}'))
        for punch in bad:
            a._on_control(dict(self.INTRO, punch=punch))
        failed = [e for e in events if e["event"] == "session_failed"]
        assert len(failed) == len(bad) and not a.sessions
        assert all(e["reason"].startswith("bad punch params") for e in failed)

    def test_json_numbers_take_the_default_types(self):
        net, coord_host, _ = make_world(seed=115)
        a, _ = spawn(net, coord_host, "alpha")
        assert wait(net, lambda: a.ready, 5.0)
        a._on_control(dict(self.INTRO, punch={"rate": 50, "max_seconds": 4}))
        cfg = a.sessions[bytes(8)].cfg
        assert (cfg.open_ports, cfg.probe_rate, cfg.max_duration_s) == (256, 50.0, 4.0)
        assert type(cfg.probe_rate) is float and type(cfg.max_duration_s) is float

    def test_non_string_peer_or_bad_endpoint_is_dropped(self):
        net, coord_host, _ = make_world(seed=116)
        a, _ = spawn(net, coord_host, "alpha")
        assert wait(net, lambda: a.ready, 5.0)
        for bad in ({"peer": 5}, {"peer": [1]}, {"peer": None},
                    {"peer_endpoint": {"ip": "10.9.9.9"}},
                    {"peer_endpoint": {"ip": "10.9.9.9", "port": 70000}},
                    {"peer_endpoint": {"ip": "10.9.9.9", "port": True}},
                    {"peer_endpoint": ["10.9.9.9", 9]}):
            a._on_control(dict(self.INTRO, **bad))
        assert not a.sessions


class TestSessionState:
    """A session's state is its LinkSession's path, failure and link."""

    def test_happy_path_direct(self):
        net, coord_host, _ = make_world(seed=117)
        a, _ = spawn(net, coord_host, "alpha")
        b, _ = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        for agent in (a, b):
            (ls,) = agent.sessions.values()
            assert (ls.path, ls.failure, ls.terminal) == ("direct", None, True)
            assert ls.link is agent.links[ls.peer_id]

    def test_relay_fallback_path(self):
        net, coord_host, _ = make_world(seed=118)
        events = []
        a, host_a = spawn(net, coord_host, "alpha", on_event=events.append)
        b, host_b = spawn(net, coord_host, "beta")
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        host_a.link = host_b.link = LinkPolicy(udp_blocked=True)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 30.0)
        (ls,) = a.sessions.values()
        assert (ls.role, ls.path, ls.failure, ls.terminal) == ("direct", "relayed", None, True)
        assert ls.machine.done and not ls.machine.established_peer
        up = [e for e in events if e["event"] == "link_up"]
        assert [e["probes"] for e in up] == [ls.machine.probes_sent]

    def test_late_punch_result_is_ignored(self):
        # The relay opened first and closed the punch machine: an ack that
        # would have finished it sends and changes nothing.
        net, coord_host, _ = make_world(seed=119)
        a, _ = spawn(net, coord_host, "alpha")
        assert wait(net, lambda: a.ready, 5.0)
        intro = dict(TestIntroduceParameters.INTRO, role="direct")
        a._on_control(intro)  # probes an endpoint nobody holds
        net.run_for(500_000)
        (ls,) = a.sessions.values()
        a._on_control({"type": "relay_opened", "session_id": intro["session_id"]})
        assert ls.path == "relayed" and ls.machine.done
        before = (ls.path, ls.link, ls.peer_ep)
        wire = sniff(net)
        nonce = next(iter(ls.machine._sent_nonces))
        for kind in (traversal.KIND_PROBE_ACK, traversal.KIND_CONFIRM):
            a._on_datagram(traversal.pack_probe(kind, ls.session_id, nonce), ("10.9.9.9", 9),
                           a.primary)
        assert (ls.path, ls.link, ls.peer_ep) == before
        assert not a._routes and wire == []

    def test_the_relay_stops_an_opener(self):
        # No refresh burst once the relay carries the link: at 15 s the
        # opener would send its B probes again.
        net, coord_host, _ = make_world(seed=123)
        a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        assert wait(net, lambda: a.ready, 5.0)
        intro = dict(TestIntroduceParameters.INTRO, role="opener")
        a._on_control(intro)  # pinholes toward an endpoint nobody holds
        net.run_for(1_000_000)
        (ls,) = a.sessions.values()
        a._on_control({"type": "relay_opened", "session_id": intro["session_id"]})
        net.run_for(20_000_000)
        assert ls.path == "relayed" and ls.machine.probes_sent == ls.cfg.open_ports

    def test_second_introduce_for_a_live_session_is_ignored(self):
        net, coord_host, _ = make_world(seed=122)
        a, _ = spawn(net, coord_host, "alpha")
        assert wait(net, lambda: a.ready, 5.0)
        intro = dict(TestIntroduceParameters.INTRO, role="direct")
        a._on_control(intro)  # probes an endpoint nobody holds: live for seconds
        net.run_for(500_000)
        (ls,) = a.sessions.values()
        assert not ls.terminal
        wire = sniff(net)
        a._on_control(dict(intro, session_id="11" * 8, role="prober"))
        assert wire == [] and list(a.sessions) == [bytes(8)]
        assert a._session_by_peer["beta"] is ls and not ls.terminal

    def test_deadline_failure_is_final(self):
        net, coord_host, _ = make_world(seed=120)
        events = []
        a, _ = spawn(net, coord_host, "alpha", on_event=events.append)
        assert wait(net, lambda: a.ready, 5.0)
        intro = dict(TestIntroduceParameters.INTRO, role="opener",
                     punch={"open_ports": 8, "max_seconds": 1.0})
        a._on_control(intro)  # the coordinator knows no such relay session
        net.run_for(7_000_000)
        (ls,) = a.sessions.values()
        assert (ls.path, ls.failure, ls.terminal) == (None, "deadline", True)
        assert [e["reason"] for e in events if e["event"] == "session_failed"] == ["deadline"]
        assert ls.machine.done
        a._on_control({"type": "relay_opened", "session_id": intro["session_id"]})
        sent, pinhole = net.stats["sent"], a._pinholes[0]
        for kind in (traversal.KIND_PROBE, traversal.KIND_CONFIRM):
            pinhole.handler(traversal.pack_probe(kind, ls.session_id, b"n" * 8),
                            ("10.9.9.9", 9), pinhole)
        assert (ls.path, ls.link) == (None, None) and not a.links and not a._routes
        assert net.stats["sent"] == sent


class TestClose:
    """NodeAgent.close in flight: after 60 s more of virtual time the
    node has sent nothing, no control line of its channel crossed the
    wire, its host holds no socket and its channel is closed.  What it
    reports (sessions with role and path, links) stays."""

    @staticmethod
    def close_and_idle(net, agent, host):
        mine = agent.channel.local
        lines = []
        net.on_wire = lambda kind, src, dst, payload: (
            kind == "ctrl" and mine in (src, dst) and lines.append(payload))
        sent = net.stats["sent"]
        agent.close()
        net.run_for(60_000_000)
        assert net.stats["sent"] == sent
        assert lines == []
        assert host.sockets == {}
        assert agent.channel.closed

    def test_an_opener_holding_its_pinholes(self):
        net, coord_host, _ = make_world(seed=123)
        a, host = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        assert wait(net, lambda: a.ready, 5.0)
        # Pinholes toward an endpoint nobody holds: no probe ever lands.
        a._on_control(dict(TestIntroduceParameters.INTRO, role="opener"))
        net.run_for(1_000_000)
        (ls,) = a.sessions.values()
        assert not ls.terminal and len(host.sockets) == 1 + ls.cfg.open_ports
        self.close_and_idle(net, a, host)
        assert ls.role == "opener" and ls.machine.done and ls.failure is None

    def test_an_opener_that_hit_after_its_relay_opened(self):
        # The relay came first and closed the opener, so a PROBE and a
        # CONFIRM on its pinhole get no answer and no path.  The pinhole
        # is the pool's: it stays open until the agent closes.
        net, coord_host, _ = make_world(seed=123)
        a, host = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        assert wait(net, lambda: a.ready, 5.0)
        intro = dict(TestIntroduceParameters.INTRO, role="opener")
        a._on_control(intro)
        net.run_for(1_000_000)
        (ls,) = a.sessions.values()
        a._on_control({"type": "relay_opened", "session_id": intro["session_id"]})
        assert ls.terminal and ls.path == "relayed" and ls.machine.done
        pinhole = a._pinholes[0]
        assert pinhole.port == 30002  # after the primary and the classifier's probe socket
        sent = net.stats["sent"]
        for kind in (traversal.KIND_PROBE, traversal.KIND_CONFIRM):
            pinhole.handler(traversal.pack_probe(kind, ls.session_id, b"n" * 8),
                            ("10.9.9.9", 9), pinhole)
        assert net.stats["sent"] == sent and ls.machine.established_peer is None
        assert host.sockets[30002] is pinhole and len(host.sockets) == 1 + ls.cfg.open_ports
        assert ls.path == "relayed" and ls.sock is None
        self.close_and_idle(net, a, host)
        assert pinhole.closed

    def test_a_classifier_waiting_for_its_verdict(self):
        net, coord_host, coord = make_world(seed=124)
        for sock in coord.observers:  # observers that never answer
            sock.close()
        a, host = spawn(net, coord_host, "alpha")
        net.run_for(300_000)
        assert a.nat_class == "unknown" and len(host.sockets) == 2  # primary and probe
        self.close_and_idle(net, a, host)
        assert a.nat_class == "unknown" and not a.ready

    def test_a_prober_that_just_hit(self):
        # Closed right after its hit, the prober still has two spaced
        # CONFIRM copies pending on the primary socket.
        net, coord_host, _ = make_world(seed=104)
        a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        b, host = spawn(net, coord_host, "beta", NatProfile("nb", filtering=APDF))
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        b.connect("alpha")
        prober = lambda: next((ls.machine for ls in b.sessions.values()), None)
        assert wait(net, lambda: prober() is not None and prober().done, 30.0, step_ms=1)
        (ls,) = b.sessions.values()
        assert ls.role == "prober" and ls.path == "direct"
        # Its peer keeps sending (handshake retries): count beta's datagrams.
        mine = []
        net.on_wire = lambda kind, src, dst, payload: (
            src[0] == host.nat.public_ip and mine.append(payload))
        b.close()
        net.run_for(60_000_000)
        assert mine == []
        assert host.sockets == {} and b.channel.closed

    def test_a_node_closed_before_the_coordinator_answered(self):
        # Its register line is still on the wire: the coordinator's answer
        # is lost with the closed channel, as on TCP.  (Silent observers:
        # an answer to an observe sent before the close would count.)
        net, coord_host, coord = make_world(seed=126)
        for sock in coord.observers:
            sock.close()
        a, host = spawn(net, coord_host, "alpha")
        self.close_and_idle(net, a, host)
        assert not a.ready and coord.nodes["alpha"].channel is None

    def test_a_direct_and_a_relayed_link_up(self):
        net, coord_host, _ = make_world(seed=125)
        a, host = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        b, _ = spawn(net, coord_host, "beta")
        c, _ = spawn(net, coord_host, "gamma", NatProfile.hard("nc"))
        assert wait(net, lambda: a.ready and b.ready and c.ready, 5.0)
        a.connect("beta")
        a.connect("gamma")
        assert wait(net, lambda: linked(a, b, "alpha", "beta")() and linked(a, c, "alpha", "gamma")(),
                    10.0)
        links = dict(a.links)
        self.close_and_idle(net, a, host)
        a.close()  # a second close does nothing
        assert a.links == links
        for peer in ("beta", "gamma"):  # on the closed primary socket and channel
            with pytest.raises(SimulationError):
                links[peer].send(b"after close")
        assert sorted((ls.peer_id, ls.role, ls.path) for ls in a.sessions.values()) == [
            ("beta", "direct", "direct"), ("gamma", "relay", "relayed")]


# -- fuzzing the agent's entry points ------------------------------------

PENDING_KEY = base64.b64encode(bytes(range(32))).decode()
STRANGER = ("198.51.100.7", 4242)


def fuzz_world():
    """Agent "m" with a relayed link to "r", a direct link to "d" (both
    encrypted) and two relayed sessions still in their handshake: m
    initiates toward "n" and answers "a", whom nobody runs."""
    net, coord_host, _ = make_world(seed=130)
    m, _ = spawn(net, coord_host, "m")
    r, _ = spawn(net, coord_host, "r")
    d, _ = spawn(net, coord_host, "d")
    m.relay_only_peers.add("r")
    r.relay_only_peers.add("m")
    assert wait(net, lambda: m.ready and r.ready and d.ready, 5.0)
    m.connect("r")
    m.connect("d")
    assert wait(net, lambda: linked(m, r, "m", "r")() and linked(m, d, "m", "d")(), 10.0)
    assert (m.links["r"].path, m.links["d"].path) == ("relayed", "direct")
    for sid, peer in (("01" * 8, "n"), ("02" * 8, "a")):
        m._on_control(dict(TestIntroduceParameters.INTRO, session_id=sid, peer=peer,
                           peer_pubkey_b64=PENDING_KEY))
        m._on_control({"type": "relay_opened", "session_id": sid})
    return net, m, {"r": r, "d": d}


class Live:
    """An id of m's session with a peer, filled in once the world exists:
    its session id ("sid") or its channel id ("channel")."""

    def __init__(self, what, peer):
        self.what, self.peer = what, peer

    def __repr__(self):
        return f"Live({self.what!r}, {self.peer!r})"


def body_bytes(sessions, body):
    """A drawn body: bytes, a Live id, or a tuple of parts."""
    if isinstance(body, tuple):
        return b"".join(body_bytes(sessions, part) for part in body)
    if isinstance(body, Live):
        ls = sessions[body.peer]
        return ls.session_id if body.what == "sid" else ls.cipher.channel_id
    return body


def field_value(sessions, name, value):
    """A drawn control field: a Live session id goes as hex, a drawn body
    as base64, any other JSON value as it is."""
    if isinstance(value, Live):
        return sessions[value.peer].session_id.hex()
    if name == "payload_b64" and isinstance(value, (bytes, tuple)):
        return base64.b64encode(body_bytes(sessions, value)).decode()
    return value


def bogus_handshake(msg_type):
    """A handshake message of the right length from an unknown identity."""
    return HANDSHAKE_MAGIC + bytes([HANDSHAKE_VERSION, msg_type, 1]) + bytes(128)


def relay_record(peer, body):
    return "control", {"type": "relay_data", "session_id": Live("sid", peer),
                       "payload_b64": body}


live_sids = st.sampled_from(["r", "d", "n", "a"]).map(lambda p: Live("sid", p))
# Live session ids, random ones and strings that are not hex at all.
session_ids = (live_sids | st.binary(min_size=8, max_size=8).map(bytes.hex)
               | st.text(max_size=16))
fuzz_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids,
                                                              max_size=3),
    max_leaves=6)
# Bodies that reach each reader: handshake messages of the right length
# or not, sealed frames under a live channel id, plain frames whose length
# prefix overruns them, probes of live sessions, broken JSON and anything
# at all.
bodies = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=16).map(lambda b: b"{" + b),
    st.builds(lambda t, rest: bogus_handshake(t)[:7] + rest,
              st.sampled_from([MSG_INIT, MSG_REPLY, 9]),
              st.binary(min_size=128, max_size=128) | st.binary(max_size=8)),
    st.tuples(st.sampled_from(["r", "d"]).map(lambda p: Live("channel", p)),
              st.binary(max_size=48)),
    st.builds(lambda n, rest: n.to_bytes(2, "big") + rest, st.integers(0, 0xFFFF),
              st.binary(max_size=8)),
    st.tuples(st.integers(0, 4).map(lambda kind: traversal.PROBE_MAGIC + bytes([1, kind])),
              live_sids | st.binary(min_size=8, max_size=8),
              st.binary(min_size=8, max_size=8)),
)
# Each control type the agent reads, with a well-formed value per field.
AGENT_FIELDS = {
    "introduce": {"session_id": session_ids,
                  "peer": st.sampled_from(["r", "d", "n", "a", "x"]),
                  "peer_endpoint": st.just({"ip": "10.9.9.9", "port": 9}),
                  "peer_pubkey_b64": st.just(PENDING_KEY),
                  "role": st.sampled_from(ROLES),
                  "punch": st.sampled_from([{}, {"max_seconds": 1.0}])},
    "relay_opened": {"session_id": session_ids},
    "relay_data": {"session_id": session_ids, "payload_b64": bodies},
    "registered": {},
    "error": {"error": st.sampled_from(["identity-conflict", "peer-gone"]),
              "detail": st.text(max_size=20)},
}


@st.composite
def agent_inputs(draw):
    """A control line, or a datagram from the direct link's route, from a
    stranger or from an observer.  A control line is well-formed but for
    up to two of the fields the agent reads, each left out or any JSON
    value."""
    kind = draw(st.sampled_from(["route", "stranger", "observed", "non-dict",
                                 *sorted(AGENT_FIELDS)]))
    if kind in ("route", "stranger"):
        return kind, draw(bodies)
    if kind == "observed":
        obj = {"type": "observed", "token": draw(fuzz_json),
               "endpoint": draw(st.just({"ip": "10.0.0.9", "port": 9}) | fuzz_json)}
        return kind, json.dumps(obj).encode()
    if kind == "non-dict":
        return "control", draw(fuzz_json.filter(lambda v: not isinstance(v, dict)))
    fields = AGENT_FIELDS[kind]
    spoilt = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)) if fields else ()
    msg = {"type": kind}
    for name, good in fields.items():
        if name not in spoilt:
            msg[name] = draw(good)
        elif draw(st.booleans()):
            msg[name] = draw(fuzz_json)
    return "control", msg


class TestAgentFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(agent_inputs(), min_size=1, max_size=3))
    # A record whose length prefix overruns it, and a bogus M2 and M1 for
    # the sessions still in their handshake.
    @example([relay_record("r", b"\xff\xff")])
    @example([relay_record("n", bogus_handshake(MSG_REPLY))])
    @example([relay_record("a", bogus_handshake(MSG_INIT))])
    def test_control_and_datagrams_are_total_and_links_survive(self, inputs):
        net, m, peers = fuzz_world()
        links, sessions = dict(m.links), dict(m._session_by_peer)
        direct = sessions["d"]
        for kind, value in inputs:
            if kind == "control":
                if isinstance(value, dict):
                    value = {k: field_value(sessions, k, v) for k, v in value.items()}
                m._on_control(value)
            else:
                src = {"route": direct.peer_ep, "stranger": STRANGER,
                       "observed": m.observers[0]}[kind]
                m._on_datagram(body_bytes(sessions, value), src,
                               direct.sock if kind == "route" else m.primary)
        for peer_id, peer in peers.items():
            got, back = [], []
            peer.links["m"].on_payload = got.append
            links[peer_id].on_payload = back.append
            links[peer_id].send(b"to " + peer_id.encode())
            peer.links["m"].send(b"from " + peer_id.encode())
            net.run_for(1_000_000)
            assert (got, back) == ([b"to " + peer_id.encode()], [b"from " + peer_id.encode()])
