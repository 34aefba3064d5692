"""Overlay planning: scheme classification, link plans, subnet routes.

Three binary knobs select the overlay shape: G (a gateway advertises a
subnet), P (punching is expected to produce direct paths), and theta
(payload is encrypted end to end).  Four combinations are meaningful:

    (G, P, theta)  scheme         links                   encrypted  intent
    (1, 0, 1)      point_to_site  every point <-> gateway yes        relayed
    (1, 0, 0)      site_to_site   the one gateway pair    no         relayed
    (1, 1, 1)      site_mesh      all gateway pairs       yes        direct
    (0, 1, 1)      full_mesh      all point pairs         yes        direct

The remaining four are rejected rather than guessed; the error names
the nearest supported scheme (Hamming distance over the triple, with
ties going to the earliest row above).

P describes intent, not a promise.  A link planned direct can still
fall back to the relay when punching fails; the plan records what was
meant and the realization report records what actually happened.
Planning is pure; ``realize_plan`` drives live agents on a simulated
network until every planned link is up or a deadline passes.  Every wait
on the simulated clock, here and in scenario verification, goes through
``drive``: run in POLL_MS steps until a goal holds or a deadline passes.
"""

from __future__ import annotations

import ipaddress
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Callable, Optional, Sequence

from .errors import (
    InvalidParametersError,
    NoRouteError,
    PlanError,
    SimulationError,
    UnsupportedSchemeError,
)

# One virtual address per overlay member, handed out in declaration order.
OVERLAY_BLOCK = ipaddress.ip_network("100.64.0.0/16")
READY_DEADLINE_S = 10.0  # realize_plan: every agent must be ready by then
POLL_MS = 50  # virtual time a driving loop runs between checks of its goal

__all__ = [
    "SchemeKind", "SCHEME_TABLE", "SCHEME_PARAMS", "classify_scheme",
    "nearest_scheme", "NodeSpec", "PlannedLink", "MeshPlan", "plan_links",
    "route_lookup", "LinkOutcome", "RealizationReport", "realize_plan", "drive",
]


class SchemeKind(Enum):
    POINT_TO_SITE = "point_to_site"
    SITE_TO_SITE = "site_to_site"
    SITE_MESH = "site_mesh"
    FULL_MESH = "full_mesh"


SCHEME_TABLE: dict[tuple[int, int, int], SchemeKind] = {
    (1, 0, 1): SchemeKind.POINT_TO_SITE,
    (1, 0, 0): SchemeKind.SITE_TO_SITE,
    (1, 1, 1): SchemeKind.SITE_MESH,
    (0, 1, 1): SchemeKind.FULL_MESH,
}

SCHEME_PARAMS: dict[SchemeKind, tuple[int, int, int]] = {
    kind: triple for triple, kind in SCHEME_TABLE.items()
}

def nearest_scheme(triple: tuple[int, int, int]) -> SchemeKind:
    """Supported scheme with the fewest differing knobs; ties go to the
    earliest declared scheme."""
    def distance(kind: SchemeKind) -> int:
        return sum(a != b for a, b in zip(triple, SCHEME_PARAMS[kind]))
    return min(SchemeKind, key=distance)  # min() is stable


def classify_scheme(g: int, p_flag: int, theta: int) -> SchemeKind:
    """Map the (G, P, theta) triple to its scheme.

    Raises UnsupportedSchemeError for the four undefined combinations;
    the exception carries the offending triple and the nearest
    supported scheme name.
    """
    for name, value in (("G", g), ("P", p_flag), ("theta", theta)):
        if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1):
            raise InvalidParametersError(f"{name} must be the integer 0 or 1, got {value!r}")
    triple = (g, p_flag, theta)
    kind = SCHEME_TABLE.get(triple)
    if kind is not None:
        return kind
    near = nearest_scheme(triple)
    ng, np_, nt = SCHEME_PARAMS[near]
    raise UnsupportedSchemeError(
        params=triple,
        nearest=near.value,
        message=(f"no scheme is defined for (G={g}, P={p_flag}, theta={theta}); "
                 f"nearest supported is {near.value} at (G={ng}, P={np_}, theta={nt})"),
    )


@dataclass(frozen=True)
class NodeSpec:
    """One overlay member as the planner sees it.

    Only gateways may advertise subnets; each CIDR becomes a forwarding
    entry pointing at the gateway.
    """

    node_id: str
    kind: str = "point"             # "point" | "gateway"
    subnets: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlannedLink:
    a: str
    b: str
    encrypted: bool
    path: str  # intended path: "direct" | "relayed"


@dataclass(frozen=True)
class MeshPlan:
    scheme: SchemeKind
    nodes: tuple[NodeSpec, ...]
    links: tuple[PlannedLink, ...]
    addresses: dict[str, str]   # node id -> overlay address
    routes: dict[str, str]      # advertised CIDR -> owning gateway id

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "nodes": [
                {"id": n.node_id, "kind": n.kind,
                 "address": self.addresses[n.node_id],
                 "subnets": list(n.subnets)}
                for n in self.nodes
            ],
            "links": [asdict(l) for l in self.links],
            "routes": dict(self.routes),
        }

    @cached_property
    def _route_table(self) -> tuple[dict, list]:
        """Parsed once per plan: overlay address -> node id (the first
        node declared with it), and the subnet routes as (network,
        owner), longest prefix first and otherwise in declaration order."""
        by_address: dict = {}
        for node_id, addr in self.addresses.items():
            by_address.setdefault(ipaddress.ip_address(addr), node_id)
        subnets = sorted(((ipaddress.ip_network(cidr), owner)
                          for cidr, owner in self.routes.items()),
                         key=lambda route: -route[0].prefixlen)
        return by_address, subnets


def _check_nodes(nodes: Sequence[NodeSpec]) -> None:
    if not nodes:
        raise PlanError("a plan needs at least one node")
    seen: set[str] = set()
    parsed: list[tuple[str, str, ipaddress.IPv4Network]] = []
    for n in nodes:
        if not n.node_id:
            raise PlanError("node ids must be non-empty")
        if n.node_id in seen:
            raise PlanError(f"duplicate node id {n.node_id!r}")
        seen.add(n.node_id)
        if n.kind not in ("point", "gateway"):
            raise PlanError(f"node {n.node_id!r}: unknown kind {n.kind!r}")
        if n.subnets and n.kind != "gateway":
            raise PlanError(f"node {n.node_id!r} is a point and may not advertise subnets")
        for cidr in n.subnets:
            try:
                net = ipaddress.ip_network(cidr)
            except ValueError as exc:
                raise PlanError(f"node {n.node_id!r}: bad subnet {cidr!r}: {exc}") from exc
            parsed.append((n.node_id, cidr, net))
    for (id_a, cidr_a, net_a), (id_b, cidr_b, net_b) in combinations(parsed, 2):
        if net_a.version == net_b.version and net_a.overlaps(net_b):
            raise PlanError(f"subnets overlap: {cidr_a!r} ({id_a}) and {cidr_b!r} ({id_b})")


# The pairwise schemes link every two members: (member kind, member
# count, whether the count is exact rather than a minimum).
_PAIRWISE: dict[SchemeKind, tuple[str, int, bool]] = {
    SchemeKind.FULL_MESH: ("point", 2, False),
    SchemeKind.SITE_MESH: ("gateway", 2, False),
    SchemeKind.SITE_TO_SITE: ("gateway", 2, True),
}


def plan_links(scheme: SchemeKind, nodes: Sequence[NodeSpec]) -> MeshPlan:
    """Materialize a scheme over the given nodes.

    Composition rules: full_mesh takes >= 2 points and no gateways;
    site_mesh >= 2 gateways and no points; site_to_site exactly 2
    gateways; point_to_site exactly 1 gateway plus >= 1 point, each
    pair ordered as its two nodes were declared.
    Advertised subnets must be pairwise disjoint.
    """
    if not isinstance(scheme, SchemeKind):
        raise InvalidParametersError(f"not a scheme: {scheme!r}")
    nodes = tuple(nodes)
    _check_nodes(nodes)
    by_kind: dict[str, list[NodeSpec]] = {"point": [], "gateway": []}
    for n in nodes:
        by_kind[n.kind].append(n)
    _, p_flag, theta = SCHEME_PARAMS[scheme]

    if scheme is SchemeKind.POINT_TO_SITE:
        gateways = by_kind["gateway"]
        if len(gateways) != 1:
            raise PlanError(f"point_to_site needs exactly 1 gateway, got {len(gateways)}")
        if not by_kind["point"]:
            raise PlanError("point_to_site needs at least one point")
        gw_at = nodes.index(gateways[0])
        pairs = [(n, nodes[gw_at]) if i < gw_at else (nodes[gw_at], n)
                 for i, n in enumerate(nodes) if n.kind == "point"]
    else:
        kind, count, exact = _PAIRWISE[scheme]
        other = "gateway" if kind == "point" else "point"
        members, others = by_kind[kind], by_kind[other]
        if others:
            raise PlanError(f"{scheme.value} takes {kind}s only; "
                            f"{[n.node_id for n in others]} are {other}s")
        if exact and len(members) != count:
            raise PlanError(f"{scheme.value} needs exactly {count} {kind}s, got {len(members)}")
        if len(members) < count:
            raise PlanError(f"{scheme.value} needs at least {count} {kind}s")
        pairs = combinations(members, 2)
    links = tuple(PlannedLink(a.node_id, b.node_id, bool(theta),
                              "direct" if p_flag else "relayed") for a, b in pairs)

    if len(nodes) >= OVERLAY_BLOCK.num_addresses - 1:
        raise PlanError(f"too many nodes for the overlay block {OVERLAY_BLOCK}")
    addresses = {
        n.node_id: str(OVERLAY_BLOCK.network_address + i)
        for i, n in enumerate(nodes, start=1)
    }
    routes = {cidr: n.node_id for n in nodes for cidr in n.subnets}
    return MeshPlan(scheme=scheme, nodes=nodes, links=links,
                    addresses=addresses, routes=routes)


def route_lookup(plan: MeshPlan, dst: str) -> str:
    """Resolve an overlay destination to the responsible node id.

    Exact node addresses win over subnet routes; among subnet routes the
    longest prefix wins.  When the result is the caller's own id the
    packet is for local delivery (no overlay hop).
    """
    try:
        ip = ipaddress.ip_address(dst)
    except ValueError as exc:
        raise InvalidParametersError(f"not an address: {dst!r}") from exc
    by_address, subnets = plan._route_table
    node_id = by_address.get(ip)
    if node_id is not None:
        return node_id
    for net, owner in subnets:
        if ip in net:  # never across IP versions
            return owner
    raise NoRouteError(f"no overlay route for {dst}")


# -- realization --------------------------------------------------------


def drive(net, done: Callable[[], bool], until_us: int) -> bool:
    """Run the simulated network in POLL_MS steps until ``done()`` holds
    or its clock reaches ``until_us``; return whether ``done()`` holds."""
    while not done() and net.now_us < until_us:
        net.run_until(min(until_us, net.now_us + POLL_MS * 1000))
    return done()


@dataclass
class LinkOutcome:
    a: str
    b: str
    encrypted: bool
    path: Optional[str]       # "direct" | "relayed" | None when never up
    probes_sent: int          # punch datagrams, both ends combined
    elapsed_ms: Optional[float]
    up: bool


@dataclass
class RealizationReport:
    plan: MeshPlan
    links: list[LinkOutcome]
    connected: bool

    @property
    def dead_links(self) -> list[tuple[str, str]]:
        return [(o.a, o.b) for o in self.links if not o.up]

    def to_dict(self) -> dict:
        d = self.plan.to_dict()
        d["links"] = [asdict(o) for o in self.links]
        d["connected"] = self.connected
        d["dead_links"] = [list(pair) for pair in self.dead_links]
        return d


def _fully_connected(nodes: Sequence[NodeSpec], up_pairs: list[tuple[str, str]]) -> bool:
    if len(nodes) <= 1:
        return True
    parent = {n.node_id: n.node_id for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in up_pairs:
        parent[find(a)] = find(b)
    roots = {find(n.node_id) for n in nodes}
    return len(roots) == 1


def realize_plan(net, agents: dict, plan: MeshPlan,
                 deadline_s: float = 60.0) -> RealizationReport:
    """Drive every planned link to an outcome on a simulated network.

    ``agents`` maps node id to a started NodeAgent.  All links are
    attempted concurrently: the lexicographically smaller id asks for
    the introduction.  Links planned as relayed skip punching on both
    ends.  A plan encrypts all its links or none (the scheme's theta),
    so each end takes that as its default.  Returns per-link outcomes
    plus an overlay connectivity verdict; links that never came up are
    reported, not raised.
    """
    missing = [n.node_id for n in plan.nodes if n.node_id not in agents]
    if missing:
        raise InvalidParametersError(f"no agent for planned nodes {missing}")

    def ready() -> bool:
        return all(agents[n.node_id].ready for n in plan.nodes)

    if not drive(net, ready, net.now_us + int(READY_DEADLINE_S * 1_000_000)):
        stuck = [n.node_id for n in plan.nodes if not agents[n.node_id].ready]
        raise SimulationError(f"agents never became ready: {stuck}")

    # (node, peer) -> (t_us, probes, path) of that end's first link_up
    ups: dict[tuple[str, str], tuple[int, int, str]] = {}
    failed: set[frozenset] = set()
    watched = [(agents[n.node_id], agents[n.node_id].on_event) for n in plan.nodes]

    def hook(agent, prev):
        def on_event(ev: dict) -> None:
            if ev.get("event") == "link_up":
                ups.setdefault((agent.node_id, ev.get("peer")),
                               (net.now_us, ev.get("probes", 0), ev.get("path")))
            elif ev.get("event") == "session_failed":
                failed.add(frozenset((agent.node_id, ev.get("peer"))))
            if prev is not None:
                prev(ev)
        return on_event

    def resolved() -> bool:
        return all(((l.a, l.b) in ups and (l.b, l.a) in ups)
                   or frozenset((l.a, l.b)) in failed for l in plan.links)

    try:
        for agent, prev in watched:
            agent.on_event = hook(agent, prev)
        for link in plan.links:
            ea, eb = agents[link.a], agents[link.b]
            ea.default_encrypted = eb.default_encrypted = link.encrypted
            if link.path == "relayed":
                ea.relay_only_peers.add(link.b)
                eb.relay_only_peers.add(link.a)
        t0 = net.now_us
        for link in plan.links:
            initiator = min(link.a, link.b)
            agents[initiator].connect(link.b if initiator == link.a else link.a)
        drive(net, resolved, t0 + int(deadline_s * 1_000_000))
    finally:
        for agent, prev in watched:
            agent.on_event = prev

    outcomes: list[LinkOutcome] = []
    for link in plan.links:
        ra, rb = ups.get((link.a, link.b)), ups.get((link.b, link.a))
        up = ra is not None and rb is not None
        outcomes.append(LinkOutcome(
            a=link.a, b=link.b, encrypted=link.encrypted,
            path=ra[2] if up else None,
            probes_sent=(ra[1] if ra else 0) + (rb[1] if rb else 0),
            elapsed_ms=round((max(ra[0], rb[0]) - t0) / 1000.0, 3) if up else None,
            up=up,
        ))
    return RealizationReport(plan=plan, links=outcomes, connected=_fully_connected(
        plan.nodes, [(o.a, o.b) for o in outcomes if o.up]))
