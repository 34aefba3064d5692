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
network until every planned link is up or a deadline passes.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

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
    "route_lookup", "LinkOutcome", "RealizationReport", "realize_plan",
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
            "links": [
                {"a": l.a, "b": l.b, "encrypted": l.encrypted, "path": l.path}
                for l in self.links
            ],
            "routes": dict(self.routes),
        }


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
    for i, (id_a, cidr_a, net_a) in enumerate(parsed):
        for id_b, cidr_b, net_b in parsed[i + 1:]:
            if net_a.version == net_b.version and net_a.overlaps(net_b):
                raise PlanError(
                    f"subnets overlap: {cidr_a!r} ({id_a}) and {cidr_b!r} ({id_b})")


def _pairs(members: Sequence[NodeSpec], encrypted: bool, path: str) -> list[PlannedLink]:
    out = []
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            out.append(PlannedLink(a.node_id, b.node_id, encrypted, path))
    return out


def plan_links(scheme: SchemeKind, nodes: Sequence[NodeSpec]) -> MeshPlan:
    """Materialize a scheme over the given nodes.

    Composition rules: full_mesh takes >= 2 points and no gateways;
    site_mesh >= 2 gateways and no points; site_to_site exactly 2
    gateways; point_to_site exactly 1 gateway plus >= 1 point.
    Advertised subnets must be pairwise disjoint.
    """
    if not isinstance(scheme, SchemeKind):
        raise InvalidParametersError(f"not a scheme: {scheme!r}")
    nodes = tuple(nodes)
    _check_nodes(nodes)
    points = [n for n in nodes if n.kind == "point"]
    gateways = [n for n in nodes if n.kind == "gateway"]
    _, p_flag, theta = SCHEME_PARAMS[scheme]
    encrypted = bool(theta)
    intent = "direct" if p_flag else "relayed"

    if scheme is SchemeKind.FULL_MESH:
        if gateways:
            raise PlanError(f"full_mesh takes points only; "
                            f"{[g.node_id for g in gateways]} are gateways")
        if len(points) < 2:
            raise PlanError("full_mesh needs at least 2 points")
        links = _pairs(points, encrypted, intent)
    elif scheme is SchemeKind.SITE_MESH:
        if points:
            raise PlanError(f"site_mesh takes gateways only; "
                            f"{[p.node_id for p in points]} are points")
        if len(gateways) < 2:
            raise PlanError("site_mesh needs at least 2 gateways")
        links = _pairs(gateways, encrypted, intent)
    elif scheme is SchemeKind.SITE_TO_SITE:
        if points:
            raise PlanError(f"site_to_site takes gateways only; "
                            f"{[p.node_id for p in points]} are points")
        if len(gateways) != 2:
            raise PlanError(f"site_to_site needs exactly 2 gateways, got {len(gateways)}")
        links = _pairs(gateways, encrypted, intent)
    else:  # POINT_TO_SITE
        if len(gateways) != 1:
            raise PlanError(f"point_to_site needs exactly 1 gateway, got {len(gateways)}")
        if not points:
            raise PlanError("point_to_site needs at least one point")
        gw = gateways[0]
        links = []
        for n in nodes:
            if n.kind == "point":
                a, b = (n, gw) if _declared_before(nodes, n, gw) else (gw, n)
                links.append(PlannedLink(a.node_id, b.node_id, encrypted, intent))

    if len(nodes) >= OVERLAY_BLOCK.num_addresses - 1:
        raise PlanError(f"too many nodes for the overlay block {OVERLAY_BLOCK}")
    addresses = {
        n.node_id: str(OVERLAY_BLOCK.network_address + i)
        for i, n in enumerate(nodes, start=1)
    }
    routes = {cidr: n.node_id for n in gateways for cidr in n.subnets}
    return MeshPlan(scheme=scheme, nodes=nodes, links=tuple(links),
                    addresses=addresses, routes=routes)


def _declared_before(nodes: Sequence[NodeSpec], a: NodeSpec, b: NodeSpec) -> bool:
    for n in nodes:
        if n is a:
            return True
        if n is b:
            return False
    return False


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
    for node_id, addr in plan.addresses.items():
        if ip == ipaddress.ip_address(addr):
            return node_id
    best: Optional[tuple[ipaddress.IPv4Network, str]] = None
    for cidr, owner in plan.routes.items():
        net = ipaddress.ip_network(cidr)
        if net.version != ip.version:
            continue
        if ip in net and (best is None or net.prefixlen > best[0].prefixlen):
            best = (net, owner)
    if best is None:
        raise NoRouteError(f"no overlay route for {dst}")
    return best[1]


# -- realization --------------------------------------------------------


@dataclass
class LinkOutcome:
    a: str
    b: str
    encrypted: bool
    path: Optional[str]       # "direct" | "relayed" | None when never up
    probes_sent: int          # punch datagrams, both ends combined
    elapsed_ms: Optional[float]
    up: bool

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "encrypted": self.encrypted,
                "path": self.path, "probes_sent": self.probes_sent,
                "elapsed_ms": self.elapsed_ms, "up": self.up}


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
        d["links"] = [o.to_dict() for o in self.links]
        d["connected"] = self.connected
        d["dead_links"] = [list(pair) for pair in self.dead_links]
        return d


def _fully_connected(nodes: Sequence[NodeSpec], up_pairs: set[frozenset]) -> bool:
    if len(nodes) <= 1:
        return True
    parent = {n.node_id: n.node_id for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in up_pairs:
        a, b = tuple(pair)
        parent[find(a)] = find(b)
    roots = {find(n.node_id) for n in nodes}
    return len(roots) == 1


def realize_plan(net, agents: dict, plan: MeshPlan,
                 deadline_s: float = 60.0) -> RealizationReport:
    """Drive every planned link to an outcome on a simulated network.

    ``agents`` maps node id to a started NodeAgent.  All links are
    attempted concurrently: the lexicographically smaller id asks for
    the introduction.  Links planned as relayed skip punching on both
    ends.  Returns per-link outcomes plus an overlay connectivity
    verdict; links that never came up are reported, not raised.
    """
    missing = [n.node_id for n in plan.nodes if n.node_id not in agents]
    if missing:
        raise InvalidParametersError(f"no agent for planned nodes {missing}")

    ready_until = net.now_us + int(READY_DEADLINE_S * 1_000_000)
    while not all(agents[n.node_id].ready for n in plan.nodes):
        if net.now_us >= ready_until:
            stuck = [n.node_id for n in plan.nodes if not agents[n.node_id].ready]
            raise SimulationError(f"agents never became ready: {stuck}")
        net.run_until(min(ready_until, net.now_us + POLL_MS * 1000))

    up_at: dict[tuple[frozenset, str], int] = {}   # (pair, node) -> t_us
    probes: dict[tuple[frozenset, str], int] = {}
    paths: dict[tuple[frozenset, str], str] = {}
    failed: set[frozenset] = set()
    hooks: list[tuple[object, object]] = []

    def watch(agent) -> None:
        prev = agent.on_event

        def hook(ev: dict) -> None:
            pair = frozenset((agent.node_id, ev.get("peer")))
            if ev.get("event") == "link_up":
                key = (pair, agent.node_id)
                up_at.setdefault(key, net.now_us)
                probes[key] = ev.get("probes", 0)
                paths[key] = ev.get("path")
            elif ev.get("event") == "session_failed":
                failed.add(pair)
            if prev is not None:
                prev(ev)
        agent.on_event = hook
        hooks.append((agent, prev))

    wanted = [frozenset((l.a, l.b)) for l in plan.links]
    try:
        for n in plan.nodes:
            watch(agents[n.node_id])
        for link in plan.links:
            ea, eb = agents[link.a], agents[link.b]
            ea.link_encryption[link.b] = link.encrypted
            eb.link_encryption[link.a] = link.encrypted
            if link.path == "relayed":
                ea.relay_only_peers.add(link.b)
                eb.relay_only_peers.add(link.a)
        t0 = net.now_us
        for link in plan.links:
            initiator = min(link.a, link.b)
            agents[initiator].connect(link.b if initiator == link.a else link.a)

        def resolved(pair: frozenset) -> bool:
            a, b = tuple(pair)
            both_up = (pair, a) in up_at and (pair, b) in up_at
            return both_up or pair in failed

        stop_at = t0 + int(deadline_s * 1_000_000)
        while not all(resolved(p) for p in wanted) and net.now_us < stop_at:
            net.run_until(min(stop_at, net.now_us + POLL_MS * 1000))
    finally:
        for agent, prev in hooks:
            agent.on_event = prev

    outcomes: list[LinkOutcome] = []
    up_pairs: set[frozenset] = set()
    for link in plan.links:
        pair = frozenset((link.a, link.b))
        ka, kb = (pair, link.a), (pair, link.b)
        up = ka in up_at and kb in up_at
        if up:
            up_pairs.add(pair)
            elapsed_ms = round((max(up_at[ka], up_at[kb]) - t0) / 1000.0, 3)
            path = paths.get(ka)
        else:
            elapsed_ms = None
            path = None
        outcomes.append(LinkOutcome(
            a=link.a, b=link.b, encrypted=link.encrypted, path=path,
            probes_sent=probes.get(ka, 0) + probes.get(kb, 0),
            elapsed_ms=elapsed_ms, up=up,
        ))
    return RealizationReport(plan=plan, links=outcomes,
                             connected=_fully_connected(plan.nodes, up_pairs))
