"""End-to-end agent flows over the simulator: classify, introduce,
punch (direct and birthday), relay fallback, handshake, payload."""

import base64
import hashlib
import json

from bdmesh import traversal
from bdmesh.agent import NodeAgent
from bdmesh.netsim import LinkPolicy, NatProfile, Network
from bdmesh.rendezvous import Coordinator
from bdmesh.securelink import MSG_INIT, MSG_REPLY, HandshakeInitiator, frame_plain, is_handshake


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
        assert a.nat_class == "easy" and b.nat_class == "easy"
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
        b, _ = spawn(net, coord_host, "beta", NatProfile.easy("nb"),
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


class TestHardPublicLink:
    """A hard side facing a public peer needs no birthday punch: both run
    the direct punch, the hard side's probe from its primary socket opens
    one mapping toward the public endpoint, and the public side keeps the
    source of that mapping as the hard side's endpoint."""

    @staticmethod
    def link_up(seed, link=None, drop_hard_confirms=False):
        net, coord_host, _ = make_world(seed=seed)
        a, host_a = spawn(net, coord_host, "alpha", NatProfile.hard("na"), link=link)
        b, host_b = spawn(net, coord_host, "beta")
        if drop_hard_confirms:
            send = net._send_from

            def lossy(host, src_port, dst, payload):
                parsed = traversal.parse_probe(payload)
                if host is host_a and parsed is not None and parsed[0] == traversal.KIND_CONFIRM:
                    return  # lost on the wire
                send(host, src_port, dst, payload)
            net._send_from = lossy
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        assert (a.nat_class, b.nat_class) == ("hard", "public")
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        (hard,), (public,) = a.sessions.values(), b.sessions.values()
        assert (hard.role, public.role) == ("direct", "direct")
        assert a.links["beta"].path == b.links["alpha"].path == "direct"
        # The hard host never opened a socket beyond its primary.
        assert list(host_a.sockets.values()) == [a.primary] and hard.sock is a.primary
        toward_b = host_a.nat._by_key[((host_a.ip, a.primary.local_port),
                                       (host_b.ip, b.primary.local_port))]
        assert public.peer_ep == (host_a.nat.public_ip, toward_b.ext_port)
        assert public.peer_ep != a.observed  # the registered udp_endpoint
        got = []
        a.links["beta"].on_payload = got.append
        b.links["alpha"].send(b"to the hard side's mapping")
        net.run_for(1_000_000)
        assert got == [b"to the hard side's mapping"]
        return hard, public

    def test_one_round_trip_from_the_primary_socket(self):
        hard, public = self.link_up(seed=105)
        assert hard.machine.probes_sent <= 3 and public.machine.probes_sent <= 3

    def test_a_lossy_hard_uplink_still_links_directly(self):
        # The direct punch resends every DIRECT_INTERVAL_S until acked; at
        # this seed the hard side's first probe is lost.
        hard, _ = self.link_up(seed=129, link=LinkPolicy(loss=0.3))
        assert hard.machine.probes_sent > 1

    def test_every_confirm_of_the_hard_side_lost(self):
        # The hard NAT filters the public side's probes at the registered
        # endpoint, so the public side finishes only by probing the source
        # of the probe it acked, which the hard side acks in turn.
        hard, public = self.link_up(seed=105, drop_hard_confirms=True)
        assert hard.machine.probes_sent <= 3 and public.machine.probes_sent <= 3


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


class TestAgentEdges:
    def test_identity_conflict_is_fatal(self):
        net, coord_host, _ = make_world(seed=110)
        a1, _ = spawn(net, coord_host, "alpha")
        a2, _ = spawn(net, coord_host, "alpha", host_name="h-imposter")  # same id, fresh key
        wait(net, lambda: a1.ready, 5.0)
        net.run_for(3_000_000)
        assert a2.fatal_error == "identity-conflict"

    def test_link_encryption_override(self):
        net, coord_host, _ = make_world(seed=111)
        a, _ = spawn(net, coord_host, "alpha", default_encrypted=True)
        b, _ = spawn(net, coord_host, "beta", default_encrypted=True)
        a.link_encryption["beta"] = False
        b.link_encryption["alpha"] = False
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
        net, coord_host, _ = make_world(seed=119)
        a, _ = spawn(net, coord_host, "alpha", NatProfile.hard("na"))
        b, _ = spawn(net, coord_host, "beta", NatProfile.hard("nb"))
        assert wait(net, lambda: a.ready and b.ready, 5.0)
        a.connect("beta")
        assert wait(net, linked(a, b, "alpha", "beta"), 10.0)
        (ls,) = a.sessions.values()
        before = (ls.path, ls.link, ls.peer_ep, ls.relay_requested)
        a._punch_done(ls)(True, a.primary, ("10.9.9.9", 9), "direct")
        a._punch_done(ls)(False, None, None, "timeout")
        assert (ls.path, ls.link, ls.peer_ep, ls.relay_requested) == before
        assert before[0] == "relayed" and not a._routes

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
        intro = dict(TestIntroduceParameters.INTRO, punch={"max_seconds": 1.0})
        a._on_control(intro)  # the coordinator knows no such relay session
        net.run_for(7_000_000)
        (ls,) = a.sessions.values()
        assert (ls.path, ls.failure, ls.terminal) == (None, "deadline", True)
        assert [e["reason"] for e in events if e["event"] == "session_failed"] == ["deadline"]
        a._on_control({"type": "relay_opened", "session_id": intro["session_id"]})
        a._punch_done(ls)(True, a.primary, ("10.9.9.9", 9), "direct")
        assert (ls.path, ls.link) == (None, None) and not a.links
