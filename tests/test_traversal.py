"""Punch machines over the simulator: classification, direct punch,
and the birthday opener/prober pair."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmesh import traversal
from bdmesh.errors import InvalidParametersError
from bdmesh.netsim import (FilteringMode, Host, LinkPolicy, MappingMode,
                           NatProfile, Network)
from bdmesh.probability import PortSpace, schedule_ports
from bdmesh.traversal import (
    DEFAULT_PUNCH,
    KIND_CONFIRM,
    KIND_PROBE,
    KIND_PROBE_ACK,
    PROBE_LEN,
    PROBE_VERSION,
    BirthdayOpener,
    BirthdayProber,
    DirectPunch,
    NatClassifier,
    PunchConfig,
    pack_probe,
    parse_probe,
)


class TestProbeWireFormat:
    def test_round_trip(self):
        data = pack_probe(KIND_PROBE, b"12345678", b"abcdefgh")
        assert len(data) == PROBE_LEN == 22
        assert data[:4] == b"BDHP"
        assert parse_probe(data) == (KIND_PROBE, b"12345678", b"abcdefgh")

    @pytest.mark.parametrize("kind", [KIND_PROBE, KIND_PROBE_ACK, KIND_CONFIRM])
    def test_all_kinds(self, kind):
        assert parse_probe(pack_probe(kind, b"s" * 8, b"n" * 8))[0] == kind

    def test_malformed_returns_none(self):
        good = pack_probe(KIND_PROBE, b"s" * 8, b"n" * 8)
        assert parse_probe(good[:-1]) is None                       # short
        assert parse_probe(good + b"x") is None                     # long
        assert parse_probe(b"XXXX" + good[4:]) is None              # magic
        assert parse_probe(good[:4] + b"\x09" + good[5:]) is None   # version
        assert parse_probe(good[:5] + b"\x07" + good[6:]) is None   # kind


class TestPunchConfig:
    def test_defaults(self):
        cfg = PunchConfig()
        assert cfg.open_ports == 256
        assert cfg.probe_rate == 100.0
        assert cfg.max_duration_s == 20.0
        assert cfg.probe_budget == 2000
        assert cfg.space.size == 64511

    def test_wire_parameters_share_the_field_defaults(self):
        assert DEFAULT_PUNCH == {"open_ports": 256, "rate": 100.0, "max_seconds": 20.0}
        assert [type(v) for v in DEFAULT_PUNCH.values()] == [int, float, float]
        assert PunchConfig.from_params({}) == PunchConfig.from_params(DEFAULT_PUNCH) == PunchConfig()
        cfg = PunchConfig.from_params({"rate": 50.0, "max_seconds": 4.0})
        assert (cfg.open_ports, cfg.probe_rate, cfg.max_duration_s) == (256, 50.0, 4.0)

    def test_budget_must_fit_space(self):
        PunchConfig(space=PortSpace(1, 2000), probe_rate=1000, max_duration_s=2.0)
        with pytest.raises(InvalidParametersError, match="budget"):
            PunchConfig(space=PortSpace(1, 1999), probe_rate=1000, max_duration_s=2.0)

    def test_rate_cap(self):
        with pytest.raises(InvalidParametersError, match="probe_rate"):
            PunchConfig(probe_rate=1001)
        with pytest.raises(InvalidParametersError, match="probe_rate"):
            PunchConfig(probe_rate=0)

    def test_open_ports_bounds(self):
        with pytest.raises(InvalidParametersError, match="open_ports"):
            PunchConfig(open_ports=0)
        with pytest.raises(InvalidParametersError, match="open_ports"):
            PunchConfig(open_ports=5000)
        with pytest.raises(InvalidParametersError, match="open_ports"):
            PunchConfig(open_ports=200, space=PortSpace(1, 100))


def add_observers(host, ports=(3478, 3479)):
    """Minimal endpoint reflectors: each answers an observe datagram with
    the source endpoint it saw, a change_port one from the other port."""
    socks = []

    def handler(payload, src, sock):
        try:
            obj = json.loads(payload)
        except ValueError:
            return
        if obj.get("type") == "observe":
            reply = {"type": "observed", "token": obj.get("token"),
                     "endpoint": {"ip": src[0], "port": src[1]}}
            if obj.get("change_port"):
                others = [s for s in socks if s is not sock]
                if not others:
                    return
                sock = others[0]
            sock.send(src, json.dumps(reply, separators=(",", ":")).encode())

    socks.extend(host.bind(handler, port) for port in ports)
    return [(host.ip, port) for port in ports]


def classify(net, host, observers):
    """The classifier's (verdict, observed, when it came), run from a
    socket of its own.  The probe socket the classifier opens is closed
    by then."""
    result = []
    sock = host.bind(lambda *a: None)
    cl = NatClassifier(host, sock, (host.ip, sock.port), observers,
                       lambda verdict, observed: result.append((verdict, observed, net.now_us)),
                       rng=net.rng)
    sock.handler = cl.on_datagram
    cl.start()
    assert len(host.sockets) == 2  # the primary and the change-port probe
    net.run_for(10_000_000)
    assert list(host.sockets.values()) == [sock]
    (got,) = result
    return got


# The test world's round trip to its observers: 1 ms each way.
RTT_US = 2000


class TestNatClassifier:
    @staticmethod
    def world():
        net = Network(seed=20)
        return net, add_observers(net.add_host("obs"))

    def behind(self, mapping, filtering):
        net, observers = self.world()
        nat = net.add_nat(NatProfile("n", mapping=mapping, filtering=filtering))
        verdict, observed, t_us = classify(net, net.add_host("h", nat=nat), observers)
        assert observed[0] == nat.public_ip
        return verdict, t_us

    def test_public(self):
        net, observers = self.world()
        host = net.add_host("h")
        verdict, observed, t_us = classify(net, host, observers)
        assert verdict == "public"
        assert observed[0] == host.ip
        assert t_us == RTT_US

    @pytest.mark.parametrize("filtering", [FilteringMode.ENDPOINT_INDEPENDENT,
                                           FilteringMode.ADDRESS_DEPENDENT])
    def test_cone(self, filtering):
        # The change-port answer comes from a port the probe socket never
        # contacted: a NAT that does not filter by port lets it in.
        assert self.behind(MappingMode.ENDPOINT_INDEPENDENT, filtering) == ("cone", RTT_US)

    def test_easy(self):
        # Filtering by port drops the change-port answer; the verdict waits
        # one more round trip after the two mapping answers.
        assert self.behind(MappingMode.ENDPOINT_INDEPENDENT,
                           FilteringMode.ADDRESS_AND_PORT_DEPENDENT) == ("easy", 2 * RTT_US)

    def test_hard(self):
        # Divergent mappings decide at once, without the change-port wait.
        assert self.behind(MappingMode.ENDPOINT_DEPENDENT,
                           FilteringMode.ADDRESS_AND_PORT_DEPENDENT) == ("hard", RTT_US)

    def test_lost_change_port_answer_is_easy(self):
        # A public address whose change-port answer never comes, as behind
        # a default-deny firewall, is easy: it takes the birthday punch.
        net, observers = self.world()
        host = net.add_host("h")
        primary = (host.ip, Host.EPHEMERAL_LO)  # classify binds it first, then the probe
        send = net._send_from

        def lossy(src_host, src_port, dst, payload):
            if (src_host.ip, src_port) != observers[1] or dst == primary:
                send(src_host, src_port, dst, payload)
        net._send_from = lossy
        assert classify(net, host, observers) == ("easy", primary, 2 * RTT_US)

    def test_udp_blocked(self):
        net, observers = self.world()
        host = net.add_host("h", link=LinkPolicy(udp_blocked=True))
        verdict, observed, _ = classify(net, host, observers)
        assert verdict == "udp_blocked"
        assert observed is None

    def test_single_answer_is_unknown(self):
        net = Network(seed=21)
        obs_host = net.add_host("obs")
        add_observers(obs_host, (3478,))  # 3479 never bound
        host = net.add_host("h")
        verdict, _, _ = classify(net, host, [(obs_host.ip, 3478), (obs_host.ip, 3479)])
        assert verdict == "unknown"

    def test_malformed_observed_replies_are_dropped(self):
        net, observers = self.world()
        host = net.add_host("h")
        sock = host.bind(lambda *a: None)
        result = []
        cl = NatClassifier(host, sock, (host.ip, sock.port), observers,
                           lambda verdict, observed: result.append((verdict, observed)),
                           rng=net.rng)
        cl.start()  # the replies below are fed by hand; the network never runs
        bad = (None, [], {"port": 5}, {"ip": "198.18.0.1"}, {"ip": 7, "port": 5},
               {"ip": "198.18.0.1", "port": "5"}, {"ip": "198.18.0.1", "port": True},
               {"ip": "198.18.0.1", "port": 70000}, {"ip": "198.18.0.1", "port": -1})

        def observed(token, ep):
            return json.dumps({"type": "observed", "token": token, "endpoint": ep}).encode()

        for token in cl._tokens:
            for ep in bad:
                cl.on_datagram(observed(token, ep), observers[0], sock)
        assert result == []
        for token in cl._tokens:
            cl.on_datagram(observed(token, {"ip": host.ip, "port": sock.port}),
                           observers[0], sock)
        assert result == [("public", (host.ip, sock.port))]

    def test_retries_survive_loss(self, monkeypatch):
        monkeypatch.setattr(traversal, "CLASSIFY_TRIES", 10)
        net, observers = self.world()
        host = net.add_host("h", link=LinkPolicy(loss=0.6))
        verdict, _, _ = classify(net, host, observers)
        assert verdict == "public"


def stun(nat, host, port, target):
    """Create the host's outbound mapping and return the external endpoint."""
    ext = nat.outbound((host.ip, port), target, 0)
    return (nat.public_ip, ext)


class TestDirectPunch:
    def run_pair(self, net, host_a, host_b, ep_a, ep_b):
        results = {}
        sock_a = host_a.sockets[7000]
        sock_b = host_b.sockets[7000]
        punch_a = DirectPunch(host_a, sock_a, b"S" * 8, ep_b,
                              lambda ok, sock, peer, why: results.setdefault("a", (ok, peer, why)),
                              net.rng)
        punch_b = DirectPunch(host_b, sock_b, b"S" * 8, ep_a,
                              lambda ok, sock, peer, why: results.setdefault("b", (ok, peer, why)),
                              net.rng)
        sock_a.handler = punch_a.on_datagram
        sock_b.handler = punch_b.on_datagram
        punch_a.start()
        punch_b.start()
        net.run_for(int(traversal.DIRECT_TIMEOUT_S * 1_000_000) + 1_000_000)
        return results

    def test_public_to_public(self):
        net = Network(seed=22)
        a, b = net.add_host("a"), net.add_host("b")
        a.bind(lambda *x: None, 7000)
        b.bind(lambda *x: None, 7000)
        results = self.run_pair(net, a, b, (a.ip, 7000), (b.ip, 7000))
        assert results["a"][0] and results["b"][0]
        assert results["a"][1] == (b.ip, 7000)
        assert results["b"][1] == (a.ip, 7000)

    def test_easy_to_easy_through_nats(self):
        net = Network(seed=23)
        nat_a = net.add_nat(NatProfile.easy("na"))
        nat_b = net.add_nat(NatProfile.easy("nb"))
        a = net.add_host("a", nat=nat_a)
        b = net.add_host("b", nat=nat_b)
        a.bind(lambda *x: None, 7000)
        b.bind(lambda *x: None, 7000)
        anchor = ("10.200.0.1", 3478)
        ep_a = stun(nat_a, a, 7000, anchor)
        ep_b = stun(nat_b, b, 7000, anchor)
        results = self.run_pair(net, a, b, ep_a, ep_b)
        assert results["a"][0] and results["b"][0]
        assert results["a"][1] == ep_b and results["b"][1] == ep_a

    def test_timeout_when_peer_dark(self, monkeypatch):
        monkeypatch.setattr(traversal, "DIRECT_TIMEOUT_S", 1.0)
        net = Network(seed=24)
        a = net.add_host("a")
        a.bind(lambda *x: None, 7000)
        results = []
        punch = DirectPunch(a, a.sockets[7000], b"S" * 8, ("10.77.0.9", 7000),
                            lambda ok, sock, peer, why: results.append((ok, why)), net.rng)
        a.sockets[7000].handler = punch.on_datagram
        punch.start()
        net.run_for(3_000_000)
        assert results == [(False, "timeout")]
        assert punch.probes_sent == 10  # one per 100 ms over 1 s


def make_opener(host, session, prober_ep, cfg, on_done, rng):
    """A BirthdayOpener on cfg.open_ports fresh sockets of host, which hand
    it their datagrams, as an agent's pinhole pool does."""
    pinholes = host.open_sockets(
        lambda data, src, sock: opener.on_datagram(data, src, sock), cfg.open_ports)
    opener = BirthdayOpener(host, pinholes, session, prober_ep, cfg, on_done, rng)
    return opener


def birthday_world(seed, space, loss=0.0, ttl_s=30.0,
                   prober_filtering=FilteringMode.ENDPOINT_INDEPENDENT):
    net = Network(seed=seed)
    nat_hard = net.add_nat(NatProfile.hard("nh", alloc_space=space, mapping_ttl_s=ttl_s))
    nat_easy = net.add_nat(NatProfile("ne", filtering=prober_filtering, mapping_ttl_s=ttl_s))
    opener_host = net.add_host("opener", nat=nat_hard,
                               link=LinkPolicy(latency_us=500, loss=loss))
    prober_host = net.add_host("prober", nat=nat_easy,
                               link=LinkPolicy(latency_us=500, loss=loss))
    return net, nat_hard, nat_easy, opener_host, prober_host


def run_birthday(net, nat_easy, opener_host, prober_host, cfg, session=b"B" * 8):
    results = {}
    prober_sock = prober_host.bind(lambda *x: None, 7000)
    prober_ep = stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
    opener = make_opener(opener_host, session, prober_ep, cfg,
                         lambda ok, sock, peer, why: results.setdefault("opener", (ok, peer, why)),
                         net.rng)
    prober = BirthdayProber(prober_host, prober_sock, session,
                            opener_host.nat.public_ip, cfg,
                            lambda ok, sock, peer, why: results.setdefault("prober", (ok, peer, why)),
                            net.rng, schedule_seed=net.rng.getrandbits(32))
    prober_sock.handler = prober.on_datagram
    opener.start()
    prober.start()
    net.run_for(int(cfg.max_duration_s * 1_000_000) + 2_000_000)
    return results, opener, prober


class TestBirthdayPunch:
    SPACE = PortSpace(10000, 11999)  # 2000 candidate ports

    def test_guaranteed_hit_with_full_budget(self):
        # Budget equals the whole space, so success is certain.
        net, nat_hard, nat_easy, opener_host, prober_host = birthday_world(30, self.SPACE)
        cfg = PunchConfig(open_ports=64, probe_rate=1000, max_duration_s=2.0,
                          space=self.SPACE)
        results, opener, prober = run_birthday(net, nat_easy, opener_host, prober_host, cfg)
        assert results["prober"][0] and results["opener"][0]
        hit_ip, hit_port = results["prober"][1]
        assert hit_ip == nat_hard.public_ip
        assert self.SPACE.contains(hit_port)
        # The opener saw the prober's one fixed external endpoint.
        assert results["opener"][1] == stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
        # The opener closed none of its pinholes: they are their owner's.
        assert len(opener_host.sockets) == 64

    def test_typical_hit_is_fast(self):
        # 256 pinholes in a 2000-port space: even odds need ~5 probes.
        net, _, nat_easy, opener_host, prober_host = birthday_world(31, self.SPACE)
        cfg = PunchConfig(open_ports=256, probe_rate=1000, max_duration_s=2.0,
                          space=self.SPACE)
        results, opener, prober = run_birthday(net, nat_easy, opener_host, prober_host, cfg)
        assert results["prober"][0]
        assert prober.probes_sent < 200

    def test_opener_sends_exactly_b_when_no_refresh_due(self):
        net, _, nat_easy, opener_host, prober_host = birthday_world(32, self.SPACE)
        cfg = PunchConfig(open_ports=100, probe_rate=1000, max_duration_s=2.0,
                          space=self.SPACE)
        results, opener, prober = run_birthday(net, nat_easy, opener_host, prober_host, cfg)
        assert opener.probes_sent == 100

    def test_opener_nonces_are_b_draws_of_eight(self):
        net, _, nat_easy, opener_host, _ = birthday_world(42, self.SPACE)
        rng, twin = random.Random(9), random.Random(9)
        opener = make_opener(opener_host, b"B" * 8, ("10.210.0.1", 3478),
                             PunchConfig(open_ports=32, space=self.SPACE),
                             lambda *r: None, rng)
        opener.start()
        assert opener._probes == [pack_probe(KIND_PROBE, b"B" * 8, twin.randbytes(8))
                                  for _ in range(32)]
        assert rng.getstate() == twin.getstate()

    def test_refresh_keeps_mappings_alive(self, monkeypatch):
        monkeypatch.setattr(traversal, "REFRESH_INTERVAL_S", 0.4)
        net, nat_hard, nat_easy, opener_host, prober_host = birthday_world(
            33, self.SPACE, ttl_s=0.8)
        results = {}
        prober_ep = stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
        prober_host.bind(lambda *x: None, 7000)
        cfg = PunchConfig(open_ports=50, probe_rate=1, max_duration_s=3.0,
                          space=self.SPACE)
        opener = make_opener(opener_host, b"B" * 8, prober_ep, cfg,
                             lambda *a: results.setdefault("opener", a), net.rng)
        opener.start()
        net.run_for(2_900_000)
        assert nat_hard.live_mappings(net.now_us) == 50
        assert opener.probes_sent > 50 * 3

    def test_failure_when_opener_absent(self):
        net, _, nat_easy, opener_host, prober_host = birthday_world(34, self.SPACE)
        cfg = PunchConfig(open_ports=10, probe_rate=100, max_duration_s=1.0,
                          space=self.SPACE)
        results = {}
        prober_sock = prober_host.bind(lambda *x: None, 7000)
        prober = BirthdayProber(prober_host, prober_sock, b"B" * 8,
                                "198.18.0.77", cfg,
                                lambda ok, sock, peer, why: results.setdefault("prober", (ok, why)),
                                net.rng)
        prober_sock.handler = prober.on_datagram
        prober.start()
        net.run_for(5_000_000)
        assert results["prober"] == (False, "timeout")
        assert prober.probes_sent == cfg.probe_budget

    def test_opener_times_out_without_prober(self):
        net, _, nat_easy, opener_host, prober_host = birthday_world(35, self.SPACE)
        prober_ep = stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
        cfg = PunchConfig(open_ports=20, probe_rate=100, max_duration_s=1.0,
                          space=self.SPACE)
        results = {}
        opener = make_opener(opener_host, b"B" * 8, prober_ep, cfg,
                             lambda ok, sock, peer, why: results.setdefault("o", (ok, why)),
                             net.rng)
        opener.start()
        net.run_for(5_000_000)
        assert results["o"] == (False, "timeout")
        assert len(opener_host.sockets) == 20 and opener.done

    def test_implicit_confirm_by_data(self):
        # A data frame from the prober whose PROBE a pinhole acked
        # establishes the link even if every CONFIRM was lost; passing the
        # frame on is the owner's part (the agent routes it).
        net, _, nat_easy, opener_host, prober_host = birthday_world(36, self.SPACE)
        prober_ep = stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
        cfg = PunchConfig(open_ports=5, probe_rate=100, max_duration_s=2.0, space=self.SPACE)
        results = {}
        opener = make_opener(opener_host, b"B" * 8, prober_ep, cfg,
                             lambda ok, sock, peer, why: results.setdefault("o", (ok, sock, peer)),
                             net.rng)
        opener.start()
        net.run_for(100_000)
        pinhole = opener._sockets[2]
        data = b"\x00\x0bhello there"
        opener.on_datagram(data, prober_ep, pinhole)
        assert not opener.done  # not acked yet
        opener.on_datagram(pack_probe(KIND_PROBE, b"B" * 8, bytes(8)), prober_ep, pinhole)
        opener.on_datagram(data, prober_ep, opener._sockets[1])
        assert not opener.done  # acked on another pinhole
        opener.on_datagram(data, prober_ep, pinhole)
        assert results["o"] == (True, pinhole, prober_ep)
        assert len(opener_host.sockets) == 5 and not pinhole.closed

    def test_the_opener_reads_only_its_live_pinholes(self):
        # A PROBE of the session on another socket (the agent's primary
        # one) goes unanswered, and so does one on a pinhole once the
        # opener is done.
        net, _, nat_easy, opener_host, prober_host = birthday_world(43, self.SPACE)
        prober_ep = stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
        cfg = PunchConfig(open_ports=5, probe_rate=100, max_duration_s=2.0, space=self.SPACE)
        opener = make_opener(opener_host, b"B" * 8, prober_ep, cfg,
                             lambda *r: None, net.rng)
        opener.start()
        shared = opener_host.bind(lambda *x: None)
        pinhole = opener._sockets[0]
        probe = pack_probe(KIND_PROBE, b"B" * 8, bytes(8))
        sent = net.stats["sent"]
        opener.on_datagram(probe, prober_ep, shared)
        assert net.stats["sent"] == sent and not opener._acked
        opener.on_datagram(probe, prober_ep, pinhole)
        opener.on_datagram(pack_probe(KIND_CONFIRM, b"B" * 8, bytes(8)), prober_ep, pinhole)
        assert opener.done and net.stats["sent"] == sent + 1
        opener.on_datagram(probe, prober_ep, pinhole)
        assert net.stats["sent"] == sent + 1

    def test_stray_datagrams_do_not_take_over_a_punch(self):
        # An endpoint-dependent-mapping NAT that filters nothing lets
        # any host reach a pinhole.  Junk and a CONFIRM from a host
        # whose PROBE was never acked leave the opener waiting, and the
        # real prober still completes.
        net = Network(seed=41)
        nat_hard = net.add_nat(NatProfile("nh", mapping=MappingMode.ENDPOINT_DEPENDENT,
                                          filtering=FilteringMode.ENDPOINT_INDEPENDENT,
                                          alloc_space=self.SPACE))
        nat_easy = net.add_nat(NatProfile.easy("ne"))
        opener_host = net.add_host("opener", nat=nat_hard, link=LinkPolicy(latency_us=500))
        prober_host = net.add_host("prober", nat=nat_easy, link=LinkPolicy(latency_us=500))
        stranger = net.add_host("stranger", link=LinkPolicy(latency_us=500))
        pinholes = []
        net.on_wire = lambda kind, src, dst, payload: (
            pinholes.append(src) if src[0] == nat_hard.public_ip else None)
        cfg = PunchConfig(open_ports=64, probe_rate=1000, max_duration_s=2.0, space=self.SPACE)
        prober_sock = prober_host.bind(lambda *x: None, 7000)
        prober_ep = stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
        results = {}
        opener = make_opener(opener_host, b"B" * 8, prober_ep, cfg,
                             lambda ok, sock, peer, why: results.setdefault("o", (ok, peer, why)),
                             net.rng)
        opener.start()
        net.run_for(100_000)
        assert len(pinholes) == 64
        stray = stranger.bind(lambda *x: None, 9000)
        for pinhole in pinholes:
            stray.send(pinhole, b"junk")
            stray.send(pinhole, pack_probe(KIND_CONFIRM, b"B" * 8, bytes(8)))
        net.run_for(100_000)
        assert not opener.done and results == {}
        prober = BirthdayProber(prober_host, prober_sock, b"B" * 8,
                                nat_hard.public_ip, cfg,
                                lambda ok, sock, peer, why: results.setdefault("p", ok), net.rng)
        prober_sock.handler = prober.on_datagram
        prober.start()
        net.run_for(4_000_000)
        assert results == {"o": (True, prober_ep, "birthday"), "p": True}

    def test_prober_ignores_probes_and_wrong_sessions(self):
        net, _, nat_easy, opener_host, prober_host = birthday_world(37, self.SPACE)
        cfg = PunchConfig(open_ports=5, probe_rate=100, max_duration_s=1.0, space=self.SPACE)
        results = {}
        prober_sock = prober_host.bind(lambda *x: None, 7000)
        prober = BirthdayProber(prober_host, prober_sock, b"B" * 8,
                                "198.18.0.77", cfg,
                                lambda ok, *a: results.setdefault("p", ok), net.rng)
        prober.on_datagram(pack_probe(KIND_PROBE, b"B" * 8, b"\x00" * 8), ("10.9.9.9", 1),
                           prober_sock)
        prober.on_datagram(pack_probe(KIND_PROBE_ACK, b"X" * 8, b"\x00" * 8), ("10.9.9.9", 1),
                           prober_sock)
        # An ack for a probe index never sent is ignored too.
        prober.on_datagram(pack_probe(KIND_PROBE_ACK, b"B" * 8, (99).to_bytes(8, "big")),
                           ("10.9.9.9", 1), prober_sock)
        assert not prober.done

    @staticmethod
    def probed_ports(net, prober_host, opener_ip):
        """Destination ports of every PROBE the prober puts on the wire."""
        ports = []

        def sniff(kind, src, dst, payload):
            parsed = parse_probe(payload)
            if (src[0] == prober_host.nat.public_ip and dst[0] == opener_ip
                    and parsed is not None and parsed[0] == KIND_PROBE):
                ports.append(dst[1])

        net.on_wire = sniff
        return ports

    def test_prober_without_a_hit_sends_its_whole_schedule(self):
        net, _, _, _, prober_host = birthday_world(39, self.SPACE)
        cfg = PunchConfig(open_ports=10, probe_rate=200, max_duration_s=1.0,
                          space=self.SPACE)
        ports = self.probed_ports(net, prober_host, "198.18.0.77")
        prober_sock = prober_host.bind(lambda *x: None, 7000)
        prober = BirthdayProber(prober_host, prober_sock, b"B" * 8,
                                "198.18.0.77", cfg, lambda *a: None, net.rng,
                                schedule_seed=4242)
        prober.start()
        net.run_for(3_000_000)
        assert ports == schedule_ports(cfg.space, cfg.probe_budget, 4242)
        assert len(set(ports)) == cfg.probe_budget == 200

    def test_prober_that_hits_sends_a_prefix_of_its_schedule(self):
        # Behind a filtering NAT the prober never sends a triggered check.
        net, nat_hard, nat_easy, opener_host, prober_host = birthday_world(
            40, self.SPACE, prober_filtering=FilteringMode.ADDRESS_AND_PORT_DEPENDENT)
        cfg = PunchConfig(open_ports=64, probe_rate=1000, max_duration_s=2.0,
                          space=self.SPACE)
        ports = self.probed_ports(net, prober_host, nat_hard.public_ip)
        results = {}
        prober_sock = prober_host.bind(lambda *x: None, 7000)
        prober_ep = stun(nat_easy, prober_host, 7000, ("10.210.0.1", 3478))
        opener = make_opener(opener_host, b"B" * 8, prober_ep, cfg,
                             lambda *a: None, net.rng)
        prober = BirthdayProber(prober_host, prober_sock, b"B" * 8,
                                nat_hard.public_ip, cfg,
                                lambda ok, *a: results.setdefault("prober", ok),
                                net.rng, schedule_seed=4343)
        prober_sock.handler = prober.on_datagram
        opener.start()
        prober.start()
        net.run_for(4_000_000)
        assert results["prober"] is True
        assert 1 <= len(ports) == prober.probes_sent < cfg.probe_budget
        full = schedule_ports(cfg.space, cfg.probe_budget, 4343)
        assert ports == full[:len(ports)]

    def test_deterministic_replay(self):
        def once():
            net, _, nat_easy, opener_host, prober_host = birthday_world(38, self.SPACE)
            cfg = PunchConfig(open_ports=64, probe_rate=500, max_duration_s=2.0,
                              space=self.SPACE)
            results, opener, prober = run_birthday(net, nat_easy, opener_host, prober_host, cfg)
            return results["prober"], prober.probes_sent, net.now_us

        assert once() == once()


class TestTriggeredCheck:
    """A prober that hears an opener PROBE from a port it has not swept
    answers it once with an indexed PROBE straight back."""

    SPACE = PortSpace(10000, 11999)
    LATENCY_US = 500

    def world(self, prober_nat):
        net = Network(seed=60)
        nat_hard = net.add_nat(NatProfile.hard("nh", alloc_space=self.SPACE))
        opener_host = net.add_host("opener", nat=nat_hard,
                                   link=LinkPolicy(latency_us=self.LATENCY_US))
        nat = net.add_nat(prober_nat) if prober_nat is not None else None
        prober_host = net.add_host("prober", nat=nat,
                                   link=LinkPolicy(latency_us=self.LATENCY_US))
        return net, nat_hard, opener_host, prober_host

    @pytest.mark.parametrize("prober_nat", [None, NatProfile.easy("full-cone")],
                             ids=["public", "full-cone"])
    def test_hard_opener_links_in_one_round_trip(self, prober_nat):
        net, nat_hard, opener_host, prober_host = self.world(prober_nat)
        prober_sock = prober_host.bind(lambda *x: None, 7000)
        prober_ep = ((prober_host.ip, 7000) if prober_host.nat is None
                     else stun(prober_host.nat, prober_host, 7000, ("10.210.0.1", 3478)))
        cfg = PunchConfig(open_ports=256, probe_rate=100, max_duration_s=10.0, space=self.SPACE)
        done = {}
        opener = make_opener(opener_host, b"T" * 8, prober_ep, cfg,
                             lambda ok, sock, peer, why: done.setdefault(
                                 "opener", (ok, peer, why, net.now_us)), net.rng)
        prober = BirthdayProber(prober_host, prober_sock, b"T" * 8,
                                nat_hard.public_ip, cfg,
                                lambda ok, sock, peer, why: done.setdefault(
                                    "prober", (ok, peer, why, net.now_us)), net.rng)
        prober_sock.handler = prober.on_datagram
        t0 = net.now_us
        opener.start()
        prober.start()
        net.run_for(1_000_000)
        # The opener's probes land one latency after t0; the triggered
        # check and its ack make one round trip; the CONFIRM one more leg.
        ok, pinhole, why, at = done["prober"]
        assert (ok, why) == (True, "birthday") and pinhole[0] == nat_hard.public_ip
        assert at - t0 <= 3 * self.LATENCY_US
        assert done["opener"][:3] == (True, prober_ep, "birthday")
        assert done["opener"][3] - t0 <= 4 * self.LATENCY_US
        assert 1 <= prober.probes_sent <= 2
        assert len(opener_host.sockets) == 256  # the opener closes no pinhole

    def started_prober(self, budget_s=1.0, run_us=25_000):
        net, _, _, prober_host = self.world(None)
        sent = []
        net.on_wire = lambda kind, src, dst, payload: sent.append((dst, parse_probe(payload)))
        cfg = PunchConfig(open_ports=8, probe_rate=100, max_duration_s=budget_s,
                          space=self.SPACE)
        prober = BirthdayProber(prober_host, prober_host.bind(lambda *x: None, 7000),
                                b"T" * 8, "198.18.0.77", cfg, lambda *r: None, net.rng,
                                schedule_seed=4545)
        prober.start()
        net.run_for(run_us)  # by default three sweep probes, at 0, 10 and 20 ms
        return net, prober, sent

    def test_only_a_probe_of_the_session_from_an_unswept_opener_port_is_answered(self):
        net, prober, sent = self.started_prober()
        swept = [dst[1] for dst, _ in sent]
        unswept = next(p for p in range(10000, 12000) if p not in swept)
        assert len(swept) == prober.probes_sent == 3
        probe = pack_probe(KIND_PROBE, b"T" * 8, bytes(8))
        sock = prober._sock
        prober.on_datagram(probe, ("198.18.0.78", unswept), sock)            # another IP
        prober.on_datagram(pack_probe(KIND_PROBE, b"U" * 8, bytes(8)),
                           ("198.18.0.77", unswept), sock)                   # another session
        prober.on_datagram(probe, ("198.18.0.77", swept[1]), sock)           # a swept port
        prober.on_datagram(probe[:4] + b"\x09" + probe[5:],
                           ("198.18.0.77", unswept), sock)                   # malformed
        assert prober.probes_sent == 3 and len(sent) == 3
        prober.on_datagram(probe, ("198.18.0.77", unswept), sock)
        assert prober.probes_sent == 4
        assert sent[3] == (("198.18.0.77", unswept), (KIND_PROBE, b"T" * 8, (3).to_bytes(8, "big")))
        # The schedule is not advanced: the next sweep probe takes index 4
        # and the port the schedule had next.
        net.run_for(10_000)
        assert sent[4][1][2] == (4).to_bytes(8, "big")
        assert [dst[1] for dst, _ in sent[:3] + sent[4:]] == schedule_ports(
            self.SPACE, 100, 4545)[:4]

    def test_the_prober_answers_only_once(self):
        net, prober, sent = self.started_prober()
        probe = pack_probe(KIND_PROBE, b"T" * 8, bytes(8))
        swept = {dst[1] for dst, _ in sent}
        fresh = [p for p in range(10000, 12000) if p not in swept][:3]
        for port in fresh:
            prober.on_datagram(probe, ("198.18.0.77", port), prober._sock)
        assert [dst for dst, _ in sent[3:]] == [("198.18.0.77", fresh[0])]
        assert prober.probes_sent == 4

    def test_no_answer_once_the_budget_is_spent(self):
        net, prober, sent = self.started_prober(budget_s=0.03)
        assert prober.probes_sent == prober._budget == 3
        prober.on_datagram(pack_probe(KIND_PROBE, b"T" * 8, bytes(8)), ("198.18.0.77", 1),
                           prober._sock)
        assert prober.probes_sent == 3 and len(sent) == 3

    def test_a_triggered_check_that_takes_the_last_index_ends_the_sweep(self):
        # Budget 3: two sweep probes, then the triggered check takes
        # index 2 while the third sweep tick is still pending.
        net, prober, sent = self.started_prober(budget_s=0.03, run_us=15_000)
        assert len(sent) == prober.probes_sent == 2
        swept = {dst[1] for dst, _ in sent}
        unswept = next(p for p in range(10000, 12000) if p not in swept)
        prober.on_datagram(pack_probe(KIND_PROBE, b"T" * 8, bytes(8)), ("198.18.0.77", unswept),
                           prober._sock)
        assert sent[2][1][2] == (2).to_bytes(8, "big")
        net.run_for(50_000)
        assert prober.probes_sent == 3 and len(sent) == 3


FUZZ_SESSION = b"F" * 8
# Probes close to valid: each field valid or one step off, and nonces
# that are small probe indices or anything.
_probe_like = st.builds(
    lambda magic, version, kind, session, nonce: magic + bytes((version, kind)) + session + nonce,
    st.sampled_from([b"BDHP", b"BDHQ"]),
    st.sampled_from([PROBE_VERSION, 0, 2]),
    st.sampled_from([KIND_PROBE, KIND_PROBE_ACK, KIND_CONFIRM]) | st.integers(0, 255),
    st.sampled_from([FUZZ_SESSION, b"G" * 8]),
    st.integers(0, 12).map(lambda i: i.to_bytes(8, "big")) | st.binary(min_size=8, max_size=8),
)
wire_bytes = (st.binary(max_size=1200) | _probe_like
              | _probe_like.flatmap(lambda d: st.integers(0, 30).map(lambda n: d[:n])))
endpoints = st.tuples(st.sampled_from(["10.0.0.1", "198.18.0.1", "127.0.0.1", ""]),
                      st.integers(0, 65535))
datagrams = st.lists(st.tuples(wire_bytes, endpoints), max_size=6)


class TestWireFuzz:
    """Arbitrary datagrams at every probe entry point: none raises."""

    @staticmethod
    def world():
        net = Network(seed=50)
        return net, net.add_host("a"), net.add_host("b")

    @given(data=wire_bytes)
    @settings(max_examples=300, deadline=None)
    def test_parse_probe_is_total_and_round_trips(self, data):
        parsed = parse_probe(data)
        if parsed is not None:
            assert parsed[0] in (KIND_PROBE, KIND_PROBE_ACK, KIND_CONFIRM)
            assert pack_probe(*parsed) == data

    @given(seq=datagrams)
    @settings(max_examples=200, deadline=None)
    def test_direct_punch(self, seq):
        net, a, b = self.world()
        sock = a.bind(lambda *x: None, 7000)
        punch = DirectPunch(a, sock, FUZZ_SESSION, (b.ip, 7000),
                            lambda *r: None, net.rng)
        punch.start()
        for data, src in seq:
            punch.on_datagram(data, src, sock)
        net.run_for(10_000)

    @given(seq=datagrams)
    @settings(max_examples=300, deadline=None)
    def test_prober_decides_as_the_full_parse_does(self, seq):
        net, a, b = self.world()
        results = []
        sock = a.bind(lambda *x: None, 7000)
        prober = BirthdayProber(a, sock, FUZZ_SESSION,
                                b.ip, PunchConfig(), lambda ok, *r: results.append(ok), net.rng)
        prober.start()
        net.run_for(50_000)  # probes 0..5 sent
        sent = prober.probes_sent
        for data, src in seq:
            parsed = parse_probe(data)
            accepts = (not prober.done and parsed is not None and parsed[1] == FUZZ_SESSION
                       and parsed[0] == KIND_PROBE_ACK
                       and int.from_bytes(parsed[2], "big") < sent)
            prober.on_datagram(data, src, sock)
            assert prober.done == (accepts or bool(results))
        assert results in ([], [True])

    @given(seq=st.lists(st.tuples(st.just(pack_probe(KIND_PROBE, FUZZ_SESSION, bytes(8)))
                                  | wire_bytes,
                                  st.integers(-6, -1) | st.integers(0, 65535)),
                        max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_prober_answers_at_most_one_opener_probe(self, seq):
        # Datagrams from the opener's address (a negative port picks one of
        # the six swept ones): only the first PROBE of the session from an
        # unswept port, before any valid ack, is answered.
        net, a, b = self.world()
        probes_to = []
        net.on_wire = lambda kind, src, dst, payload: (
            probes_to.append(dst) if payload[5:6] == bytes((KIND_PROBE,)) else None)
        sock = a.bind(lambda *x: None, 7000)
        prober = BirthdayProber(a, sock, FUZZ_SESSION,
                                b.ip, PunchConfig(), lambda *r: None, net.rng)
        prober.start()
        net.run_for(50_000)  # probes 0..5 sent
        swept = [dst[1] for dst in probes_to]
        expect, sent, done = [], prober.probes_sent, False
        for data, port in seq:
            port = swept[port] if port < 0 else port
            parsed = parse_probe(data)
            if done or parsed is None or parsed[1] != FUZZ_SESSION:
                pass
            elif parsed[0] == KIND_PROBE_ACK and int.from_bytes(parsed[2], "big") < sent:
                done = True
            elif parsed[0] == KIND_PROBE and not expect and port not in swept:
                expect.append((b.ip, port))
                sent += 1
            prober.on_datagram(data, (b.ip, port), sock)
        assert probes_to[len(swept):] == expect
        assert prober.probes_sent == sent and prober.done == done

    @given(seq=st.lists(st.tuples(wire_bytes, endpoints, st.integers(0, 3)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_opener(self, seq):
        net, a, b = self.world()
        opener = make_opener(a, FUZZ_SESSION, (b.ip, 7000),
                             PunchConfig(open_ports=4), lambda *r: None, net.rng)
        opener.start()
        pinholes = list(opener._sockets)
        for data, src, i in seq:
            opener.on_datagram(data, src, pinholes[i])
        net.run_for(10_000)
