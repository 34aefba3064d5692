"""Simulator semantics: clock ordering, NAT behavior, impairments,
control channels, and run-to-run determinism."""

import hashlib
import json

import pytest

from bdmesh.errors import InvalidParametersError, PortsExhaustedError, SimulationError
from bdmesh.netsim import (
    FilteringMode,
    HostTransport,
    LinkPolicy,
    MappingMode,
    NatProfile,
    Network,
    PortAlloc,
    TraceLog,
    VirtualClock,
)
from bdmesh.probability import PortSpace


def collector():
    got = []

    def handler(payload, src, sock):
        got.append((sock.host.net.now_us, payload, src))

    return got, handler


class TestVirtualClock:
    def test_orders_by_time_then_sequence(self):
        clock = VirtualClock()
        fired = []
        clock.schedule_at(50, lambda: fired.append("b"))
        clock.schedule_at(10, lambda: fired.append("a"))
        clock.schedule_at(50, lambda: fired.append("c"))
        assert clock.run_until(100) == 3
        assert fired == ["a", "b", "c"]

    def test_time_advances_to_target_without_events(self):
        clock = VirtualClock()
        clock.run_until(500)
        assert clock.now_us == 500
        clock.run_until(100)  # never moves backwards
        assert clock.now_us == 500

    def test_events_scheduled_during_run_fire_in_same_run(self):
        clock = VirtualClock()
        fired = []
        clock.schedule_at(10, lambda: clock.schedule_at(clock.now_us + 5,
                                                        lambda: fired.append("nested")))
        clock.run_until(100)
        assert fired == ["nested"]
        assert clock.now_us == 100

    def test_cancelled_timer_does_not_fire_or_count(self):
        clock = VirtualClock()
        fired = []
        timer = clock.call_later(10, lambda: fired.append("x"))
        clock.call_later(20, lambda: fired.append("y"))
        timer.cancel()
        assert clock.run_until(100) == 1
        assert fired == ["y"]


def easy_pair(net):
    """Host behind an easy NAT plus a public peer; returns both."""
    nat = net.add_nat(NatProfile.easy("n1"))
    inside = net.add_host("inside", nat=nat)
    public = net.add_host("pub")
    return inside, public


class TestNatMapping:
    def test_endpoint_independent_reuses_port_across_destinations(self):
        net = Network(seed=1)
        inside, public = easy_pair(net)
        other = net.add_host("other")
        got_a, handler_a = collector()
        got_b, handler_b = collector()
        public.bind(handler_a, 5000)
        other.bind(handler_b, 5000)
        sock = inside.bind(lambda *a: None)
        sock.send((public.ip, 5000), b"one")
        sock.send((other.ip, 5000), b"two")
        net.run_for(10_000)
        assert got_a[0][2] == got_b[0][2]  # same external endpoint seen

    def test_endpoint_dependent_allocates_per_destination(self):
        net = Network(seed=1)
        nat = net.add_nat(NatProfile.hard("n1"))
        inside = net.add_host("inside", nat=nat)
        a, b = net.add_host("a"), net.add_host("b")
        got_a, handler_a = collector()
        got_b, handler_b = collector()
        a.bind(handler_a, 5000)
        b.bind(handler_b, 5000)
        sock = inside.bind(lambda *a: None)
        sock.send((a.ip, 5000), b"one")
        sock.send((b.ip, 5000), b"two")
        net.run_for(10_000)
        assert got_a[0][2][0] == got_b[0][2][0] == nat.public_ip
        assert got_a[0][2][1] != got_b[0][2][1]

    def test_mapping_refresh_and_expiry(self):
        net = Network(seed=2)
        nat = net.add_nat(NatProfile.easy("n1", mapping_ttl_s=1.0))
        inside = net.add_host("inside", nat=nat)
        public = net.add_host("pub")
        got_pub, handler = collector()
        pub_sock = public.bind(handler, 5000)
        got_in, handler_in = collector()
        in_sock = inside.bind(handler_in, 7000)

        in_sock.send((public.ip, 5000), b"hello")
        net.run_for(5_000)
        ext = got_pub[0][2]

        # Refresh at 0.6 s keeps the mapping alive past the original TTL.
        net.run_until(600_000)
        in_sock.send((public.ip, 5000), b"refresh")
        net.run_until(1_200_000)
        pub_sock.send(ext, b"back")
        net.run_for(5_000)
        assert [p for _, p, _ in got_in] == [b"back"]

        # After a full idle TTL the inbound path goes dark.
        net.run_until(2_700_000)
        pub_sock.send(ext, b"late")
        net.run_for(5_000)
        assert len(got_in) == 1
        assert nat.live_mappings(net.now_us) == 0

    def test_expired_mapping_port_is_reusable(self):
        net = Network(seed=3)
        space = PortSpace(2000, 2003)
        nat = net.add_nat(NatProfile.easy("n1", mapping_ttl_s=0.5, alloc_space=space))
        inside = net.add_host("inside", nat=nat)
        public = net.add_host("pub")
        public.bind(lambda *a: None, 5000)
        # Four distinct internal sockets exhaust the 4-port space.
        for i in range(4):
            inside.bind(lambda *a: None, 7000 + i).send((public.ip, 5000), b"x")
        net.run_for(1000)
        with pytest.raises(PortsExhaustedError):
            nat.outbound((inside.ip, 7100), (public.ip, 5000), net.now_us)
        # Once the TTL passes, allocation succeeds again.
        assert space.contains(nat.outbound((inside.ip, 7100), (public.ip, 5000), net.now_us + 600_000))

    def test_sequential_allocation_walks_the_space(self):
        net = Network(seed=4)
        space = PortSpace(3000, 3009)
        nat = net.add_nat(NatProfile("n1", port_alloc=PortAlloc.SEQUENTIAL, alloc_space=space))
        inside = net.add_host("inside", nat=nat)
        ports = [nat.outbound((inside.ip, 7000 + i), ("10.9.9.9", 1), 0) for i in range(4)]
        assert ports == [3000, 3001, 3002, 3003]

    def test_uniform_allocation_spreads_over_space(self):
        # First allocation over many seeds: chi-square against uniform,
        # 15 dof, 99.9th percentile ~ 37.7.
        counts = [0] * 16
        space = PortSpace(1, 16)
        for seed in range(20000):
            net = Network(seed=seed)
            nat = net.add_nat(NatProfile.easy("n1", alloc_space=space))
            inside = net.add_host("inside", nat=nat)
            counts[nat.outbound((inside.ip, 7000), ("10.9.9.9", 1), 0) - 1] += 1
        expected = 20000 / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 37.7, chi2


class TestNatFiltering:
    @staticmethod
    def world(filtering):
        net = Network(seed=5)
        nat = net.add_nat(NatProfile("n1", filtering=filtering))
        inside = net.add_host("inside", nat=nat)
        peer = net.add_host("peer")
        stranger = net.add_host("stranger")
        got, handler = collector()
        in_sock = inside.bind(handler, 7000)
        peer.bind(lambda *a: None, 5000)
        peer.bind(lambda *a: None, 5001)
        stranger.bind(lambda *a: None, 5000)
        in_sock.send((peer.ip, 5000), b"open")
        net.run_for(5_000)
        ext = (nat.public_ip, nat.outbound((inside.ip, 7000), (peer.ip, 5000), net.now_us))
        return net, peer, stranger, ext, got

    def test_endpoint_independent_accepts_anyone(self):
        net, peer, stranger, ext, got = self.world(FilteringMode.ENDPOINT_INDEPENDENT)
        stranger.sockets[5000].send(ext, b"hi")
        net.run_for(5_000)
        assert [p for _, p, _ in got] == [b"hi"]

    def test_address_dependent_requires_known_ip(self):
        net, peer, stranger, ext, got = self.world(FilteringMode.ADDRESS_DEPENDENT)
        stranger.sockets[5000].send(ext, b"nope")
        peer.sockets[5001].send(ext, b"same-ip-new-port")
        net.run_for(5_000)
        assert [p for _, p, _ in got] == [b"same-ip-new-port"]

    def test_address_and_port_dependent_requires_exact_endpoint(self):
        net, peer, stranger, ext, got = self.world(FilteringMode.ADDRESS_AND_PORT_DEPENDENT)
        peer.sockets[5001].send(ext, b"nope")
        stranger.sockets[5000].send(ext, b"nope")
        peer.sockets[5000].send(ext, b"yes")
        net.run_for(5_000)
        assert [p for _, p, _ in got] == [b"yes"]

    def test_address_dependent_survives_purge_of_a_sibling_mapping(self):
        # Two mappings of one internal endpoint (endpoint-dependent
        # mapping); the older expires and is purged.  The younger still
        # proves contact with the peer's IP, so a reply from a new port
        # of that IP passes, and a stranger's does not.
        net = Network(seed=5)
        nat = net.add_nat(NatProfile("n1", mapping=MappingMode.ENDPOINT_DEPENDENT,
                                     filtering=FilteringMode.ADDRESS_DEPENDENT))
        inside = net.add_host("inside", nat=nat)
        peer = net.add_host("peer")
        stranger = net.add_host("stranger")
        internal = (inside.ip, 7000)
        old_port = nat.outbound(internal, (peer.ip, 5000), 0)
        new_port = nat.outbound(internal, (peer.ip, 5001), 20_000_000)
        now = 35_000_000
        assert nat.inbound((peer.ip, 5000), old_port, now) == (None, "expired")
        assert nat.live_mappings(now) == 1
        assert nat.inbound((peer.ip, 5002), new_port, now) == (internal, "ok")
        assert nat.inbound((stranger.ip, 5001), new_port, now) == (None, "filtered")

    # Under endpoint-dependent mapping each destination gets a mapping of
    # its own, whose key names its one remote: no mode keeps a set there.
    @pytest.mark.parametrize("filtering,mapping,kept", [
        (FilteringMode.ENDPOINT_INDEPENDENT, MappingMode.ENDPOINT_INDEPENDENT, 0),
        (FilteringMode.ADDRESS_DEPENDENT, MappingMode.ENDPOINT_INDEPENDENT, 1000),
        (FilteringMode.ADDRESS_AND_PORT_DEPENDENT, MappingMode.ENDPOINT_INDEPENDENT, 1000),
        (FilteringMode.ENDPOINT_INDEPENDENT, MappingMode.ENDPOINT_DEPENDENT, 0),
        (FilteringMode.ADDRESS_DEPENDENT, MappingMode.ENDPOINT_DEPENDENT, 0),
        (FilteringMode.ADDRESS_AND_PORT_DEPENDENT, MappingMode.ENDPOINT_DEPENDENT, 0),
    ])
    def test_remotes_kept_only_where_filtering_reads_them(self, filtering, mapping, kept):
        net = Network(seed=5)
        nat = net.add_nat(NatProfile("n1", mapping=mapping, filtering=filtering))
        sock = net.add_host("inside", nat=nat).bind(lambda *a: None, 7000)
        peer = net.add_host("peer")
        for port in range(1000):
            sock.send((peer.ip, 5000 + port), b"x")
        net.run_for(5_000)
        mappings = list(nat._by_ext.values())
        assert len(mappings) == (1000 if mapping is MappingMode.ENDPOINT_DEPENDENT else 1)
        assert sum(len(m.remotes) for m in mappings) == kept


class TestDatagramPath:
    def test_delivery_time_is_sender_latency(self):
        net = Network(seed=6)
        a = net.add_host("a", link=LinkPolicy(latency_us=7_500))
        b = net.add_host("b")
        got, handler = collector()
        b.bind(handler, 5000)
        a.bind(lambda *a_: None).send((b.ip, 5000), b"x")
        net.run_for(100_000)
        assert got[0][0] == 7_500

    def test_jitter_stays_within_bound(self):
        def arrivals(jitter_us):
            net = Network(seed=7)
            a = net.add_host("a", link=LinkPolicy(latency_us=1000, jitter_us=jitter_us))
            b = net.add_host("b")
            got, handler = collector()
            b.bind(handler, 5000)
            sock = a.bind(lambda *a_: None)
            for _ in range(200):
                sock.send((b.ip, 5000), b"x")
            net.run_for(100_000)
            return [t for t, _, _ in got]

        times = arrivals(500)
        assert all(1000 <= t <= 1500 for t in times)
        assert len(set(times)) > 1
        # The scenario schema's integer type admits 500.0; it draws as 500.
        assert arrivals(500.0) == times

    def test_loss_drops_roughly_half_at_fifty_percent(self):
        net = Network(seed=8)
        a = net.add_host("a", link=LinkPolicy(loss=0.5))
        b = net.add_host("b")
        got, handler = collector()
        b.bind(handler, 5000)
        sock = a.bind(lambda *a_: None)
        for _ in range(2000):
            sock.send((b.ip, 5000), b"x")
        net.run_for(100_000)
        assert 880 <= len(got) <= 1120  # ~5 sigma around 1000

    def test_lost_packet_still_creates_mapping(self):
        net = Network(seed=9)
        nat = net.add_nat(NatProfile.easy("n1"))
        inside = net.add_host("inside", nat=nat, link=LinkPolicy(loss=0.999999))
        public = net.add_host("pub")
        public.bind(lambda *a: None, 5000)
        inside.bind(lambda *a: None, 7000).send((public.ip, 5000), b"x")
        net.run_for(10_000)
        assert nat.live_mappings(net.now_us) == 1

    def test_udp_blocked_blocks_both_directions(self):
        net = Network(seed=10)
        a = net.add_host("a", link=LinkPolicy(udp_blocked=True))
        b = net.add_host("b")
        got_a, handler_a = collector()
        got_b, handler_b = collector()
        a.bind(handler_a, 5000)
        b.bind(handler_b, 5000)
        a.sockets[5000].send((b.ip, 5000), b"out")
        b.sockets[5000].send((a.ip, 5000), b"in")
        net.run_for(10_000)
        assert got_a == [] and got_b == []

    def test_dead_letters(self):
        net = Network(seed=11)
        a = net.add_host("a")
        nat = net.add_nat(NatProfile.easy("n1"))
        hidden = net.add_host("hidden", nat=nat)
        sock = a.bind(lambda *a_: None)
        sock.send(("172.16.0.9", 5000), b"unknown ip")
        sock.send((a.ip, 9), b"no socket")
        sock.send((hidden.ip, 5000), b"private address")
        net.run_for(10_000)
        assert net.stats["dead_letters"] == 3

    def test_hairpin_between_hosts_behind_same_nat(self):
        net = Network(seed=12)
        nat = net.add_nat(NatProfile.easy("n1"))
        a = net.add_host("a", nat=nat)
        b = net.add_host("b", nat=nat)
        got_b, handler_b = collector()
        b.bind(handler_b, 7000)
        ext_b = (nat.public_ip, nat.outbound((b.ip, 7000), ("10.99.0.1", 1), 0))
        a.bind(lambda *a_: None).send(ext_b, b"hairpin")
        net.run_for(10_000)
        assert [p for _, p, _ in got_b] == [b"hairpin"]

    def test_oversize_datagram_rejected(self):
        net = Network(seed=13)
        a = net.add_host("a")
        sock = a.bind(lambda *a_: None)
        with pytest.raises(InvalidParametersError):
            sock.send(("10.1.2.3", 1), b"x" * 1201)

    def test_send_on_closed_socket_rejected(self):
        net = Network(seed=14)
        a = net.add_host("a")
        sock = a.bind(lambda *a_: None)
        sock.close()
        with pytest.raises(SimulationError):
            sock.send(("10.1.2.3", 1), b"x")


class TestBurstsAndBatches:
    """send_burst and same-tick delivery batches against the one heap
    entry per datagram they replace: every expected value below was
    computed with a loop of single sends and one entry per datagram."""

    def test_same_tick_order_is_one_entry_per_datagram(self):
        # Two bursts due at one tick with a timer between them; the echo
        # replies with no latency from inside the batch, and one reply
        # schedules a zero-delay timer of its own.
        net = Network(seed=3)
        transport = HostTransport(net.add_host("sender", nat=net.add_nat(NatProfile.hard("hard"))))
        echo = net.add_host("echo", link=LinkPolicy(latency_us=0))
        order = []

        def reply(payload, src, sock):
            order.append((net.now_us, payload))
            sock.send(src, payload.upper())
            if payload == b"a1":
                net.clock.call_later(0, lambda: order.append((net.now_us, b"x")))

        echo.bind(reply, port=7000)
        socks = transport.open_sockets(lambda p, s, k: order.append((net.now_us, p)), 6)
        dst = (echo.ip, 7000)
        transport.send_burst(socks[:3], dst, [b"a0", b"a1", b"a2"])
        net.clock.call_later(1000, lambda: order.append((net.now_us, b"timer")))
        transport.send_burst(socks[3:], dst, [b"b0", b"b1", b"b2"])
        assert net.run_for(5000) == 5  # heap entries, not datagrams
        assert order == [(1000, p) for p in (b"a0", b"a1", b"a2", b"timer", b"b0", b"b1",
                                             b"b2", b"A0", b"A1", b"x", b"A2", b"B0", b"B1",
                                             b"B2")]

    @staticmethod
    def echo_world(jitter_us, burst):
        net = Network(seed=11, trace=True)
        lossy = LinkPolicy(loss=0.3, latency_us=1000, jitter_us=jitter_us)
        nat = net.add_nat(NatProfile.hard("hard"))
        transport = HostTransport(net.add_host("sender", nat=nat, link=lossy))
        echo = net.add_host("echo", link=lossy)
        got = []
        echo.bind(lambda payload, src, sock: sock.send(src, payload + b"!"), port=7000)
        socks = transport.open_sockets(lambda p, s, sock: got.append((net.now_us, sock.port, p)), 24)
        payloads = [b"p%02d" % i for i in range(24)]
        for _ in range(3):
            if burst:
                transport.send_burst(socks, (echo.ip, 7000), payloads)
            else:
                for sock, payload in zip(socks, payloads):
                    sock.send((echo.ip, 7000), payload)
            net.run_for(5000)
        return net.trace.digest(), net.stats, len(got)

    @pytest.mark.parametrize("jitter_us,digest,stats,got", [
        (0, "136b1248832b4842489cc74776cde167367309008603c21d89cf981d3aaac6e0",
         {"sent": 116, "delivered": 73, "dropped": 43, "dead_letters": 0}, 29),
        (300, "a7105d32d0490c9316ceafb21c883723be5395f255c24eb55a234c60c7a9c1ee",
         {"sent": 118, "delivered": 80, "dropped": 38, "dead_letters": 0}, 34),
    ])
    @pytest.mark.parametrize("burst", [True, False])
    def test_burst_traces_and_counts_as_single_sends(self, burst, jitter_us, digest, stats, got):
        assert self.echo_world(jitter_us, burst) == (digest, stats, got)

    def test_a_handler_that_raises_leaves_the_rest_of_its_batch_first(self):
        net = Network(seed=5)
        a, b = net.add_host("a"), net.add_host("b")
        order = []

        def handler(payload, src, sock):
            order.append(payload)
            if payload == b"d0":
                net.clock.call_later(0, lambda: order.append(b"inner"))
                raise RuntimeError("boom")

        b.bind(handler, 5000)
        transport = HostTransport(a)
        transport.send_burst(transport.open_sockets(lambda *x: None, 3), (b.ip, 5000),
                             [b"d0", b"d1", b"d2"])
        net.clock.call_later(1000, lambda: order.append(b"timer"))
        with pytest.raises(RuntimeError):
            net.run_for(5000)
        assert net.now_us == 1000
        net.run_for(5000)
        assert order == [b"d0", b"d1", b"d2", b"timer", b"inner"]
        assert net.stats["delivered"] == 3

    def test_a_send_at_the_tick_of_a_delivered_batch_still_arrives(self):
        net = Network(seed=4)
        a = net.add_host("a")
        b = net.add_host("b", link=LinkPolicy(latency_us=0))
        got, handler = collector()
        sock_a = a.bind(handler, 5000)
        sock_b = b.bind(lambda *x: None, 5000)
        sock_a.send((b.ip, 5000), b"first")
        net.run_until(1000)
        sock_b.send((a.ip, 5000), b"later")
        net.run_for(1000)
        assert got == [(1000, b"later", (b.ip, 5000))]

    def test_open_sockets_take_the_ports_successive_binds_take(self):
        net = Network(seed=1)
        host = net.add_host("h")
        host.bind(lambda *x: None, 30001)
        ports = [s.port for s in HostTransport(host).open_sockets(lambda *x: None, 3)]
        assert ports == [30000, 30002, 30003]
        assert host.bind(lambda *x: None).port == 30004

    def test_open_sockets_stop_where_the_ephemeral_range_runs_out(self):
        net = Network(seed=1)
        host = net.add_host("h")
        span = host.EPHEMERAL_HI - host.EPHEMERAL_LO + 1
        HostTransport(host).open_sockets(lambda *x: None, span - 1)
        with pytest.raises(PortsExhaustedError):
            HostTransport(host).open_sockets(lambda *x: None, 2)
        # A call that cannot take all n ports takes none of them.
        assert len(host.sockets) == span - 1
        assert host.bind(lambda *x: None).port == host.EPHEMERAL_HI
        with pytest.raises(PortsExhaustedError):
            host.bind(lambda *x: None)
        host.sockets[30005].close()
        assert host.bind(lambda *x: None).port == 30005

    def test_burst_on_a_closed_socket_rejected(self):
        net = Network(seed=14)
        transport = HostTransport(net.add_host("a"))
        socks = transport.open_sockets(lambda *x: None, 2)
        socks[1].close()
        with pytest.raises(SimulationError):
            transport.send_burst(socks, ("10.1.2.3", 1), [b"x", b"y"])
        assert net.stats["sent"] == 0


class TestControlChannels:
    def test_lines_arrive_in_order(self):
        net = Network(seed=15)
        client = net.add_host("c", link=LinkPolicy(latency_us=1000, jitter_us=0))
        server = net.add_host("s")
        seen = []

        def acceptor(end):
            end.on_line = lambda obj: seen.append(obj["n"])

        server.listen_channel(4500, acceptor)
        ch = net.connect_channel(client, server, 4500)
        for n in range(50):
            ch.send({"n": n})
        net.run_for(1_000_000)
        assert seen == list(range(50))

    def test_observed_endpoint_for_natted_client(self):
        net = Network(seed=16)
        nat = net.add_nat(NatProfile.hard("n1"))
        client = net.add_host("c", nat=nat)
        server = net.add_host("s")
        ends = []
        server.listen_channel(4500, ends.append)
        ch = net.connect_channel(client, server, 4500)
        net.run_for(10_000)
        assert ends[0].peer_observed[0] == nat.public_ip
        assert ch.peer_observed == (server.ip, 4500)

    def test_bidirectional_and_close_notification(self):
        net = Network(seed=17)
        client = net.add_host("c")
        server = net.add_host("s")
        server_seen, client_seen, closed = [], [], []

        def acceptor(end):
            end.on_line = server_seen.append
            end.on_close = lambda: closed.append("server")
            end.send({"hello": "from server"})

        server.listen_channel(4500, acceptor)
        ch = net.connect_channel(client, server, 4500)
        ch.on_line = client_seen.append
        ch.send({"hello": "from client"})
        net.run_for(50_000)
        assert server_seen == [{"hello": "from client"}]
        assert client_seen == [{"hello": "from server"}]
        ch.close()
        net.run_for(50_000)
        assert closed == ["server"]
        with pytest.raises(SimulationError):
            ch.send({"too": "late"})

    def test_oversize_line_rejected(self):
        net = Network(seed=18)
        client = net.add_host("c")
        server = net.add_host("s")
        server.listen_channel(4500, lambda end: None)
        ch = net.connect_channel(client, server, 4500)
        with pytest.raises(InvalidParametersError):
            ch.send({"blob": "x" * 9000})


class TestDeterminism:
    @staticmethod
    def run_world(seed):
        net = Network(seed=seed, trace=True)
        nat_a = net.add_nat(NatProfile.hard("na"))
        nat_b = net.add_nat(NatProfile.easy("nb"))
        a = net.add_host("a", nat=nat_a, link=LinkPolicy(loss=0.1, jitter_us=300))
        b = net.add_host("b", nat=nat_b, link=LinkPolicy(loss=0.1, jitter_us=300))
        got, handler = collector()
        sock_b = b.bind(handler, 7000)
        ext_b = (nat_b.public_ip, nat_b.outbound((b.ip, 7000), ("10.50.0.1", 1), 0))
        sock_a = a.bind(lambda *a_: None, 7000)
        for i in range(300):
            sock_a.send(ext_b, b"m%d" % i)
        net.run_for(1_000_000)
        return net.trace.digest(), len(got)

    def test_trace_hash_is_pinned(self):
        # Pinned so that a change to the trace format or to any event of
        # this run (RNG draws included) cannot pass unnoticed.
        assert self.run_world(42) == (
            "a883200e28dded1b4c84451a906028c4abfcca246c57cd677a5ad21b5cade5b8", 275)

    def test_same_seed_same_trace(self):
        d1, n1 = self.run_world(42)
        d2, n2 = self.run_world(42)
        assert d1 == d2 and n1 == n2

    def test_different_seed_different_trace(self):
        d1, _ = self.run_world(42)
        d2, _ = self.run_world(43)
        assert d1 != d2

    def test_trace_records_drops_with_reasons(self):
        net = Network(seed=19, trace=True)
        a = net.add_host("a", link=LinkPolicy(udp_blocked=True))
        a.bind(lambda *a_: None, 5000).send(("10.2.3.4", 1), b"x")
        net.run_for(10_000)
        assert net.trace.digest() == reference_digest(
            [(0, "drop", (a.ip, 5000), ("10.2.3.4", 1), "udp-blocked")])


def reference_line(entry):
    """A trace line as first defined: json.dumps with sorted keys and
    no spaces, endpoints written ip:port, plus a newline."""
    t_us, kind, (src_ip, src_port), (dst_ip, dst_port), info = entry
    e = {"t_us": t_us, "kind": kind, "src": f"{src_ip}:{src_port}",
         "dst": f"{dst_ip}:{dst_port}", "info": info}
    return json.dumps(e, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def reference_digest(entries):
    return hashlib.sha256(b"".join(map(reference_line, entries))).hexdigest()


class TestTraceDigest:
    AWKWARD = [
        (0, "send", ("10.0.0.1", 30000), ("198.18.0.1", 40000), "len=0"),
        (2**70, 'say "hi"', ("back\\slash\\", 1), ("nul\x00 bel\x07 esc\x1b del\x7f", 0),
         "\n\r\t\b\f"),
        (-1, "drop", ("caf\u00e9 \u65e5\u672c", 65535), ("emoji \U0001f600", -7),
         "nbsp\u00a0 ls\u2028"),
        (-(2**63), "ctrl", ("lone \ud800", 2), ("\udfff lone", 3), "pair \ud83d\ude00 then \ud800x"),
        (123456789, "", ("", 0), ("", 0), "/ slashes / stay"),
    ]

    def test_empty_log_is_hash_of_nothing(self):
        assert TraceLog().digest() == hashlib.sha256(b"").hexdigest()

    def test_awkward_fields_hash_as_json_dumps_did(self):
        log = TraceLog()
        for entry in self.AWKWARD:
            log.add(*entry)
        assert log.digest() == reference_digest(self.AWKWARD)
        for entry in self.AWKWARD:
            one = TraceLog()
            one.add(*entry)
            assert one.digest() == hashlib.sha256(reference_line(entry)).hexdigest()

    def test_digest_mid_run_leaves_the_stream_intact(self):
        log = TraceLog()
        for entry in self.AWKWARD[:2]:
            log.add(*entry)
        assert log.digest() == reference_digest(self.AWKWARD[:2])
        assert log.digest() == reference_digest(self.AWKWARD[:2])
        for entry in self.AWKWARD[2:]:
            log.add(*entry)
        assert log.digest() == reference_digest(self.AWKWARD)
