"""Scheme classification, plan construction, route lookup, realization."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmesh.agent import NodeAgent
from bdmesh.errors import (
    InvalidParametersError,
    NoRouteError,
    PlanError,
    SimulationError,
    UnsupportedSchemeError,
)
from bdmesh.meshplan import (
    SCHEME_PARAMS,
    SCHEME_TABLE,
    MeshPlan,
    NodeSpec,
    SchemeKind,
    classify_scheme,
    nearest_scheme,
    plan_links,
    realize_plan,
    route_lookup,
)
from bdmesh.netsim import NatProfile, Network
from bdmesh.rendezvous import Coordinator


class TestClassify:
    @pytest.mark.parametrize("triple,kind", [
        ((1, 0, 1), SchemeKind.POINT_TO_SITE),
        ((1, 0, 0), SchemeKind.SITE_TO_SITE),
        ((1, 1, 1), SchemeKind.SITE_MESH),
        ((0, 1, 1), SchemeKind.FULL_MESH),
    ])
    def test_supported_combinations(self, triple, kind):
        assert classify_scheme(*triple) is kind

    @pytest.mark.parametrize("triple,nearest", [
        ((0, 0, 0), "site_to_site"),   # distance 1
        ((0, 0, 1), "point_to_site"),  # tie with full_mesh, earliest declared wins
        ((0, 1, 0), "full_mesh"),      # distance 1
        ((1, 1, 0), "site_to_site"),   # tie with site_mesh, earliest declared wins
    ])
    def test_rejected_combinations_name_nearest(self, triple, nearest):
        with pytest.raises(UnsupportedSchemeError) as exc:
            classify_scheme(*triple)
        assert exc.value.params == triple
        assert exc.value.nearest == nearest
        assert nearest in str(exc.value)
        assert f"G={triple[0]}" in str(exc.value)

    @pytest.mark.parametrize("bad", [2, -1, "1", 1.0, None, True])
    def test_non_binary_knobs_rejected(self, bad):
        with pytest.raises(InvalidParametersError):
            classify_scheme(bad, 1, 1)
        with pytest.raises(InvalidParametersError):
            classify_scheme(0, bad, 1)
        with pytest.raises(InvalidParametersError):
            classify_scheme(0, 1, bad)

    def test_table_round_trips_through_params(self):
        for triple, kind in SCHEME_TABLE.items():
            assert SCHEME_PARAMS[kind] == triple
            assert classify_scheme(*triple) is kind

    @given(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
    def test_every_triple_classifies_or_names_a_neighbor(self, triple):
        try:
            kind = classify_scheme(*triple)
        except UnsupportedSchemeError as exc:
            near = nearest_scheme(triple)
            assert exc.nearest == near.value
            dist = sum(a != b for a, b in zip(triple, SCHEME_PARAMS[near]))
            for other in SchemeKind:
                other_dist = sum(a != b for a, b in zip(triple, SCHEME_PARAMS[other]))
                assert dist <= other_dist
        else:
            assert SCHEME_PARAMS[kind] == triple


def specs(*ids, kind="point", subnets=()):
    return [NodeSpec(i, kind=kind, subnets=subnets) for i in ids]


# (scheme, nodes, the exact PlanError text): these texts reach the stderr
# of `bdmesh scenario`, so a rewording must be deliberate.
COMPOSITION_ERRORS = [
    (SchemeKind.FULL_MESH, specs("a", "b", kind="gateway"),
     "full_mesh takes points only; ['a', 'b'] are gateways"),
    (SchemeKind.FULL_MESH, specs("a"), "full_mesh needs at least 2 points"),
    (SchemeKind.SITE_MESH, specs("a", "b"),               # points, not gateways
     "site_mesh takes gateways only; ['a', 'b'] are points"),
    (SchemeKind.SITE_MESH, specs("a", kind="gateway"), "site_mesh needs at least 2 gateways"),
    (SchemeKind.SITE_TO_SITE, specs("a", "b", "c", kind="gateway"),
     "site_to_site needs exactly 2 gateways, got 3"),
    (SchemeKind.SITE_TO_SITE, specs("a", kind="gateway"),
     "site_to_site needs exactly 2 gateways, got 1"),
    (SchemeKind.POINT_TO_SITE, specs("a", "b"),           # no gateway
     "point_to_site needs exactly 1 gateway, got 0"),
    (SchemeKind.POINT_TO_SITE, specs("a", "b", kind="gateway"),
     "point_to_site needs exactly 1 gateway, got 2"),
    (SchemeKind.POINT_TO_SITE, [NodeSpec("gw", "gateway")],
     "point_to_site needs at least one point"),
    (SchemeKind.SITE_TO_SITE, specs("a", "b", kind="gateway") + specs("c"),
     "site_to_site takes gateways only; ['c'] are points"),
    (SchemeKind.FULL_MESH, specs("p") + specs("g", kind="gateway"),
     "full_mesh takes points only; ['g'] are gateways"),
    (SchemeKind.SITE_MESH, specs("g", kind="gateway") + specs("p", "q"),
     "site_mesh takes gateways only; ['p', 'q'] are points"),
]


class TestPlanLinks:
    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20)
    def test_full_mesh_link_count_law(self, n):
        nodes = [NodeSpec(f"n{i:02d}") for i in range(n)]
        plan = plan_links(SchemeKind.FULL_MESH, nodes)
        assert len(plan.links) == n * (n - 1) // 2
        assert all(l.encrypted and l.path == "direct" for l in plan.links)
        assert len({frozenset((l.a, l.b)) for l in plan.links}) == len(plan.links)

    def test_site_mesh_links_and_routes(self):
        nodes = [NodeSpec(f"gw{i}", "gateway", (f"10.{i}.0.0/16",)) for i in range(1, 5)]
        plan = plan_links(SchemeKind.SITE_MESH, nodes)
        assert len(plan.links) == 6
        assert all(l.encrypted and l.path == "direct" for l in plan.links)
        assert plan.routes == {f"10.{i}.0.0/16": f"gw{i}" for i in range(1, 5)}

    def test_site_to_site_single_plain_link(self):
        plan = plan_links(SchemeKind.SITE_TO_SITE, [
            NodeSpec("east", "gateway", ("10.1.0.0/16",)),
            NodeSpec("west", "gateway", ("10.2.0.0/16",)),
        ])
        assert len(plan.links) == 1
        link = plan.links[0]
        assert (link.a, link.b) == ("east", "west")
        assert not link.encrypted
        assert link.path == "relayed"
        assert len(plan.routes) == 2

    def test_point_to_site_star(self):
        plan = plan_links(SchemeKind.POINT_TO_SITE, [
            NodeSpec("p1"), NodeSpec("hub", "gateway", ("192.168.0.0/24",)),
            NodeSpec("p2"), NodeSpec("p3"),
        ])
        assert len(plan.links) == 3
        for link in plan.links:
            assert "hub" in (link.a, link.b)
            assert link.encrypted and link.path == "relayed"
        # pair order follows declaration order
        assert (plan.links[0].a, plan.links[0].b) == ("p1", "hub")
        assert (plan.links[1].a, plan.links[1].b) == ("hub", "p2")

    @pytest.mark.parametrize("scheme,nodes,message", COMPOSITION_ERRORS, ids=[
        f"{scheme}-nodes{i}" for i, (scheme, _, _) in enumerate(COMPOSITION_ERRORS)])
    def test_composition_errors(self, scheme, nodes, message):
        with pytest.raises(PlanError) as exc:
            plan_links(scheme, nodes)
        assert str(exc.value) == message

    def test_point_may_not_advertise(self):
        with pytest.raises(PlanError, match="may not advertise"):
            plan_links(SchemeKind.FULL_MESH,
                       [NodeSpec("a", subnets=("10.0.0.0/8",)), NodeSpec("b")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PlanError, match="duplicate"):
            plan_links(SchemeKind.FULL_MESH, specs("a", "a"))

    def test_bad_cidr_rejected(self):
        with pytest.raises(PlanError, match="bad subnet"):
            plan_links(SchemeKind.SITE_TO_SITE, [
                NodeSpec("a", "gateway", ("10.1.0.5/16",)),  # host bits set
                NodeSpec("b", "gateway"),
            ])

    def test_overlapping_subnets_rejected(self):
        with pytest.raises(PlanError, match="overlap"):
            plan_links(SchemeKind.SITE_TO_SITE, [
                NodeSpec("a", "gateway", ("10.0.0.0/8",)),
                NodeSpec("b", "gateway", ("10.5.0.0/16",)),
            ])

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError):
            plan_links(SchemeKind.FULL_MESH, [])

    def test_not_a_scheme_rejected(self):
        with pytest.raises(InvalidParametersError):
            plan_links("full_mesh", specs("a", "b"))

    def test_addresses_sequential_and_unique(self):
        plan = plan_links(SchemeKind.FULL_MESH, specs("x", "y", "z"))
        assert plan.addresses == {"x": "100.64.0.1", "y": "100.64.0.2",
                                  "z": "100.64.0.3"}

    def test_to_dict_shape(self):
        plan = plan_links(SchemeKind.SITE_TO_SITE, [
            NodeSpec("a", "gateway", ("10.1.0.0/16",)),
            NodeSpec("b", "gateway", ("10.2.0.0/16",)),
        ])
        d = plan.to_dict()
        assert set(d) == {"scheme", "nodes", "links", "routes"}
        assert d["scheme"] == "site_to_site"
        assert d["nodes"][0] == {"id": "a", "kind": "gateway",
                                 "address": "100.64.0.1",
                                 "subnets": ["10.1.0.0/16"]}
        assert d["links"] == [{"a": "a", "b": "b", "encrypted": False,
                               "path": "relayed"}]


class TestRouteLookup:
    def make_plan(self) -> MeshPlan:
        return plan_links(SchemeKind.SITE_MESH, [
            NodeSpec("gw-a", "gateway", ("10.1.0.0/16",)),
            NodeSpec("gw-b", "gateway", ("10.2.0.0/16", "10.3.128.0/17")),
            NodeSpec("gw-c", "gateway", ("172.20.0.0/14",)),
        ])

    def test_subnet_match(self):
        plan = self.make_plan()
        assert route_lookup(plan, "10.2.3.4") == "gw-b"
        assert route_lookup(plan, "10.3.200.1") == "gw-b"
        assert route_lookup(plan, "172.21.0.9") == "gw-c"

    def test_node_address_beats_subnet(self):
        plan = plan_links(SchemeKind.SITE_TO_SITE, [
            NodeSpec("wide", "gateway", ("100.64.0.0/10",)),  # covers node addresses
            NodeSpec("other", "gateway", ("10.9.0.0/16",)),
        ])
        assert route_lookup(plan, plan.addresses["other"]) == "other"
        assert route_lookup(plan, "100.64.5.5") == "wide"

    def test_own_subnet_resolves_to_self(self):
        plan = self.make_plan()
        # a packet for gw-a's own subnet terminates at gw-a: local delivery
        assert route_lookup(plan, "10.1.44.2") == "gw-a"

    def test_no_route(self):
        with pytest.raises(NoRouteError):
            route_lookup(self.make_plan(), "192.0.2.1")

    def test_invalid_destination(self):
        with pytest.raises(InvalidParametersError):
            route_lookup(self.make_plan(), "not-an-ip")

    def test_longest_prefix_and_ipv6_routes(self):
        plan = MeshPlan(scheme=SchemeKind.SITE_MESH, nodes=(), links=(),
                        addresses={"a": "100.64.0.1", "b": "100.64.0.2"},
                        routes={"10.0.0.0/8": "a", "2001:db8::/32": "a",
                                "10.5.0.0/16": "b", "2001:db8:5::/48": "b"})
        assert route_lookup(plan, "10.5.1.1") == "b"
        assert route_lookup(plan, "10.6.1.1") == "a"
        assert route_lookup(plan, "2001:db8:5::1") == "b"
        assert route_lookup(plan, "2001:db8:6::1") == "a"
        assert route_lookup(plan, "100.64.0.2") == "b"
        with pytest.raises(NoRouteError):
            route_lookup(plan, "::ffff:10.5.1.1")  # an IPv6 address, not 10.5.1.1

    def test_a_plan_is_parsed_once(self, monkeypatch):
        plan = self.make_plan()
        calls = {"ip_address": 0, "ip_network": 0}
        for name in calls:
            def counted(text, _real=getattr(ipaddress, name), _name=name):
                calls[_name] += 1
                return _real(text)
            monkeypatch.setattr(ipaddress, name, counted)
        for _ in range(5):
            assert route_lookup(plan, "10.2.3.4") == "gw-b"
        # Each call parses its destination; the plan's three addresses and
        # four subnets are parsed on the first call only.
        assert calls == {"ip_address": 5 + 3, "ip_network": 4}

    def test_deterministic(self):
        plan = self.make_plan()
        assert [route_lookup(plan, "10.2.0.77") for _ in range(5)] == ["gw-b"] * 5


def make_world(seed):
    net = Network(seed=seed)
    coord_host = net.add_host("coord")
    Coordinator.sim(net, coord_host)
    return net, coord_host


def spawn_agents(net, coord_host, node_ids, profiles=None, links=None):
    agents = {}
    for nid in node_ids:
        prof = (profiles or {}).get(nid)
        nat = net.add_nat(prof) if prof is not None else None
        host = net.add_host(f"h-{nid}", nat=nat, link=(links or {}).get(nid))
        agents[nid] = NodeAgent.sim(net, host, coord_host, nid)
        agents[nid].start()
    return agents


class TestRealize:
    def test_full_mesh_three_public_nodes(self):
        net, coord_host = make_world(201)
        agents = spawn_agents(net, coord_host, ["n1", "n2", "n3"])
        plan = plan_links(SchemeKind.FULL_MESH, specs("n1", "n2", "n3"))
        report = realize_plan(net, agents, plan)
        assert report.connected
        assert len(report.links) == 3
        assert all(o.up and o.path == "direct" and o.encrypted for o in report.links)
        assert report.dead_links == []
        # both ends hold a live payload link
        assert "n2" in agents["n1"].links and "n1" in agents["n2"].links

    def test_site_to_site_relayed_plain(self):
        net, coord_host = make_world(202)
        profiles = {"east": NatProfile.easy("ne"), "west": NatProfile.easy("nw")}
        agents = spawn_agents(net, coord_host, ["east", "west"], profiles)
        plan = plan_links(SchemeKind.SITE_TO_SITE, [
            NodeSpec("east", "gateway", ("10.1.0.0/16",)),
            NodeSpec("west", "gateway", ("10.2.0.0/16",)),
        ])
        report = realize_plan(net, agents, plan)
        assert report.connected
        (outcome,) = report.links
        assert outcome.up and outcome.path == "relayed"
        assert not outcome.encrypted
        assert outcome.probes_sent == 0  # never punched: the plan said relay
        got = []
        agents["west"].links["east"].on_payload = got.append
        agents["east"].links["west"].send(b"across the tunnel")
        net.run_for(2_000_000)
        assert got == [b"across the tunnel"]

    def test_blocked_node_falls_back_to_relay(self):
        from bdmesh.netsim import LinkPolicy
        net, coord_host = make_world(203)
        agents = spawn_agents(net, coord_host, ["ok", "mute"],
                              links={"mute": LinkPolicy(udp_blocked=True)})
        plan = plan_links(SchemeKind.FULL_MESH, specs("ok", "mute"))
        report = realize_plan(net, agents, plan)
        assert report.connected
        (outcome,) = report.links
        assert outcome.up and outcome.path == "relayed" and outcome.encrypted

    def test_missing_agent_rejected(self):
        net, coord_host = make_world(204)
        agents = spawn_agents(net, coord_host, ["n1"])
        plan = plan_links(SchemeKind.FULL_MESH, specs("n1", "n2"))
        with pytest.raises(InvalidParametersError, match="n2"):
            realize_plan(net, agents, plan)

    def test_agent_that_never_readies_raises(self):
        net, coord_host = make_world(205)
        agents = spawn_agents(net, coord_host, ["n1"])
        host = net.add_host("h-n2")
        agents["n2"] = NodeAgent.sim(net, host, coord_host, "n2")  # never started
        plan = plan_links(SchemeKind.FULL_MESH, specs("n1", "n2"))
        with pytest.raises(SimulationError, match="n2"):
            realize_plan(net, agents, plan)

    def test_dead_peer_reported_not_raised(self):
        net, coord_host = make_world(206)
        agents = spawn_agents(net, coord_host, ["n1", "n2"])
        plan = plan_links(SchemeKind.FULL_MESH, specs("n1", "n2"))
        # wait until both registered, then take n2's control channel down
        realize_ready = lambda: agents["n1"].ready and agents["n2"].ready
        while not realize_ready():
            net.run_for(20_000)
        agents["n2"].channel.close()
        net.run_for(100_000)
        report = realize_plan(net, agents, plan, deadline_s=3.0)
        assert not report.connected
        assert report.dead_links == [("n1", "n2")]
        (outcome,) = report.links
        assert not outcome.up and outcome.path is None and outcome.elapsed_ms is None


class TestRealizeEvents:
    """realize_plan listens to each agent's events through a hook that
    chains to the agent's own on_event and is removed afterwards."""

    def test_an_agents_own_on_event_sees_every_event_and_is_restored(self):
        net, coord_host = make_world(207)
        agents = spawn_agents(net, coord_host, ["n1", "n2"])
        events = []
        agents["n1"].on_event = events.append
        report = realize_plan(net, agents, plan_links(SchemeKind.FULL_MESH, specs("n1", "n2")))
        assert report.connected
        assert agents["n1"].on_event == events.append and agents["n2"].on_event is None
        assert [(e["event"], e.get("peer")) for e in events] == [("ready", None), ("link_up", "n2")]

    def test_a_relay_that_never_opens_is_reported_down_at_the_session_deadline(self):
        class DeafToRelayOpen(Coordinator):
            _HANDLERS = dict(Coordinator._HANDLERS, relay_open=lambda self, channel, msg: None)

        net = Network(seed=208)
        coord_host = net.add_host("coord")
        DeafToRelayOpen.sim(net, coord_host)
        agents = spawn_agents(net, coord_host, ["east", "west"])
        plan = plan_links(SchemeKind.SITE_TO_SITE, [
            NodeSpec("east", "gateway", ("10.1.0.0/16",)),
            NodeSpec("west", "gateway", ("10.2.0.0/16",)),
        ])
        while not (agents["east"].ready and agents["west"].ready):
            net.run_for(20_000)
        t0 = net.now_us
        report = realize_plan(net, agents, plan, deadline_s=60.0)
        (outcome,) = report.links
        assert not outcome.up and not report.connected
        # The session deadline (punch max_seconds 20 s plus 5 s of grace)
        # ends the run, well before realize_plan's own 60 s.
        assert 25_000_000 <= net.now_us - t0 < 26_000_000
        assert {ls.failure for a in agents.values() for ls in a.sessions.values()} == {"deadline"}
