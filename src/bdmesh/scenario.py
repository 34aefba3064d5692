"""Scenario files: one JSON document describes hosts, NATs, link
impairments, the overlay scheme, subnets and an experiment block; this
module validates it, builds the corresponding simulated world with an
embedded coordinator, realizes the overlay and verifies it end to end.

Verification rides the established overlay links themselves: every up
link carries a marker payload each way (the receiver answers with the
payload's digest), plus an overlay ping addressed by route lookup.
Whatever is still unanswered is resent every VERIFY_RETRY_S of virtual
time until SETTLE_S, so a lossy link does not fail its checks.  A
wire sniffer watches the same window: on encrypted overlays the marker
must never appear on the wire, on plaintext overlays it must.

Runs are deterministic: the whole world hangs off one seeded RNG and a
virtual clock, so a scenario run twice with the same seed produces a
byte-identical report including the trace digest.  Multi-trial
experiments derive per-trial seeds by hashing (master seed, index),
which makes results independent of execution order.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import json
from dataclasses import dataclass
from functools import cache
from importlib.resources import files
from typing import Optional

from .agent import NodeAgent
from .errors import ScenarioError
from .meshplan import (
    MeshPlan,
    NodeSpec,
    RealizationReport,
    classify_scheme,
    drive,
    plan_links,
    realize_plan,
    route_lookup,
)
from .montecarlo import trial_seed
from .netsim import (
    FilteringMode,
    LinkPolicy,
    MappingMode,
    Network,
    NatProfile,
    PortAlloc,
)
from .rendezvous import Coordinator
from .traversal import PunchConfig

COORD_HOST_ID = "coord"
PAYLOAD_MARKER = b"BDMESH-PAYLOAD-MARKER"
_HASH_PREFIX = b"BDMESH-PAYLOAD-HASH|"
_PING_PREFIX = b"BDMESH-PING|"
_PONG_PREFIX = b"BDMESH-PONG|"
SETTLE_S = 15.0  # virtual time verification waits for every digest and pong
VERIFY_RETRY_S = 1.0  # virtual time before an unanswered payload or ping is resent
# NatProfile fields a NAT entry may set; the rest keep the profile's defaults.
_NAT_FIELDS = {"mapping": MappingMode, "filtering": FilteringMode, "port_alloc": PortAlloc,
               "mapping_ttl_s": lambda seconds: seconds}

__all__ = [
    "SCENARIO_SCHEMA", "COORD_HOST_ID", "PAYLOAD_MARKER", "ScenarioWorld",
    "load_scenario", "validate_scenario", "build_world", "run_scenario",
    "bundled_scenario_path",
]

# Shipped as package data.  Keep the file's key order: errors are found in
# schema order, which picks the message reported when several share a path.
SCENARIO_SCHEMA: dict = json.loads(
    files("bdmesh").joinpath("scenario.schema.json").read_text(encoding="utf-8"))


@cache
def _validator():
    """The schema's validator, built on the first validation, so a process
    that validates nothing never pays for importing jsonschema."""
    from jsonschema import Draft202012Validator

    return Draft202012Validator(SCENARIO_SCHEMA)


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package."""
    return files("bdmesh") / "scenarios" / name


def load_scenario(path) -> dict:
    """Read and fully validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    validate_scenario(doc)
    return doc


def validate_scenario(doc) -> None:
    """Structural (JSON-schema) then referential validation.

    Raises ScenarioError whose message starts with the JSON path of the
    offending field.  The scheme combination itself is NOT classified
    here; an unsupported-but-well-formed triple is a planning concern.
    """
    errors = sorted(_validator().iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ScenarioError(f"{first.json_path}: {first.message}")

    kinds: dict[str, str] = {}  # host id -> kind
    for i, hd in enumerate(doc["hosts"]):
        hid = hd["id"]
        if hid == COORD_HOST_ID:
            raise ScenarioError(f"$.hosts[{i}].id: {COORD_HOST_ID!r} is reserved")
        if hid in kinds:
            raise ScenarioError(f"$.hosts[{i}].id: duplicate host id {hid!r}")
        kinds[hid] = hd.get("kind", "point")

    nat_ids: set[str] = set()
    for i, nd in enumerate(doc.get("nats", [])):
        if nd["id"] in nat_ids:
            raise ScenarioError(f"$.nats[{i}].id: duplicate nat id {nd['id']!r}")
        nat_ids.add(nd["id"])

    for i, hd in enumerate(doc["hosts"]):
        nat = hd.get("nat")
        if nat is not None and nat not in nat_ids:
            raise ScenarioError(f"$.hosts[{i}].nat: unknown nat {nat!r}")

    linked: set[str] = set()
    for i, ld in enumerate(doc.get("links", [])):
        if ld["host"] not in kinds:
            raise ScenarioError(f"$.links[{i}].host: unknown host {ld['host']!r}")
        if ld["host"] in linked:
            raise ScenarioError(f"$.links[{i}].host: duplicate link policy "
                                f"for {ld['host']!r}")
        linked.add(ld["host"])

    for i, sd in enumerate(doc.get("subnets", [])):
        gw = sd["gateway"]
        if gw not in kinds:
            raise ScenarioError(f"$.subnets[{i}].gateway: unknown host {gw!r}")
        if kinds[gw] != "gateway":
            raise ScenarioError(f"$.subnets[{i}].gateway: {gw!r} is not a gateway")

    punch = (doc.get("experiment") or {}).get("punch")
    if punch:
        try:
            PunchConfig.from_params(punch)
        except Exception as exc:
            raise ScenarioError(f"$.experiment.punch: {exc}") from exc


@dataclass
class ScenarioWorld:
    net: Network
    coord: Coordinator
    agents: dict
    plan: MeshPlan
    seed: int


def build_world(doc: dict, seed: Optional[int] = None) -> ScenarioWorld:
    """Construct the simulated world a validated scenario describes.

    Agents are started but not yet connected; the scheme is classified
    and planned here, so an unsupported combination surfaces before any
    simulated packet moves.
    """
    exp = doc.get("experiment") or {}
    if seed is None:
        seed = exp.get("seed", 0)
    plan = build_plan_only(doc)

    net = Network(seed=seed, trace=True)
    coord_host = net.add_host(COORD_HOST_ID)
    coord = Coordinator.sim(net, coord_host, punch=exp.get("punch"))

    nats = {}
    for nd in doc.get("nats", []):
        prof = NatProfile(nd["id"], **{key: kind(nd[key]) for key, kind in _NAT_FIELDS.items()
                                       if key in nd})
        nats[nd["id"]] = net.add_nat(prof)

    link_by_host = {ld["host"]: ld for ld in doc.get("links", [])}
    agents = {}
    for hd in doc["hosts"]:
        ld = link_by_host.get(hd["id"])
        pol = None
        if ld is not None:
            pol = LinkPolicy(**{k: v for k, v in ld.items() if k != "host"})
        nat = nats[hd["nat"]] if hd.get("nat") else None
        host = net.add_host(hd["id"], nat=nat, link=pol)
        agent = NodeAgent.sim(net, host, coord_host, hd["id"])
        agent.start()
        agents[hd["id"]] = agent

    return ScenarioWorld(net=net, coord=coord, agents=agents, plan=plan, seed=seed)


def _verification_payload(seed: int, a: str, b: str) -> bytes:
    base = f"{seed}:{a}->{b}".encode()
    pad = b"".join(hashlib.sha256(base + bytes([i])).digest() for i in range(12))
    return PAYLOAD_MARKER + b"|" + base + b"|" + pad


def _ping_target(plan: MeshPlan, node_id: str) -> str:
    """An address the node is responsible for: the first host of its
    first advertised subnet when route lookup resolves that to the node
    (another node's overlay address may lie inside the subnet), else the
    node's own overlay address."""
    for spec in plan.nodes:
        if spec.node_id == node_id and spec.subnets:
            net = ipaddress.ip_network(spec.subnets[0])
            first = net.network_address + (1 if net.prefixlen < net.max_prefixlen - 1 else 0)
            if route_lookup(plan, str(first)) == node_id:
                return str(first)
    return plan.addresses[node_id]


def _verify_overlay(world: ScenarioWorld, outcome: RealizationReport) -> dict:
    """Exercise every established link: payload digest both ways, one
    overlay ping both ways (each resent until answered or settled), and
    a wire privacy check for the marker."""
    net, plan, agents = world.net, world.plan, world.agents
    up_links = [o for o in outcome.links if o.up]
    directed = [p for o in up_links for p in ((o.a, o.b), (o.b, o.a))]  # sending order
    payloads = {(src, dst): _verification_payload(world.seed, src, dst)
                for src, dst in directed}
    pings = {(src, dst): _PING_PREFIX + f"{_ping_target(plan, dst)}|{src}->{dst}".encode()
             for src, dst in directed}
    expected_hash = {p: hashlib.sha256(payload).hexdigest() for p, payload in payloads.items()}
    got_hash: dict[tuple[str, str], str] = {}
    got_pong: set[tuple[str, str]] = set()
    marker_on_wire = False

    prev_on_wire = net.on_wire

    def on_wire(kind, src, dst, payload):
        nonlocal marker_on_wire
        if marker_on_wire or PAYLOAD_MARKER in payload:
            marker_on_wire = True
        elif kind == "ctrl":
            try:
                obj = json.loads(payload)
            except ValueError:
                return
            if isinstance(obj, dict) and obj.get("type") == "relay_data":
                try:
                    marker_on_wire = PAYLOAD_MARKER in base64.b64decode(
                        obj.get("payload_b64", ""))
                except (ValueError, TypeError):
                    pass

    def receiver(me: str, peer: str):
        def on_payload(data: bytes) -> None:
            link = agents[me].links.get(peer)
            if link is None:
                return
            if data.startswith(PAYLOAD_MARKER + b"|"):
                digest = hashlib.sha256(data).hexdigest()
                link.send(_HASH_PREFIX + digest.encode())
            elif data.startswith(_HASH_PREFIX):
                # confirms the payload this node sent to peer
                got_hash[(me, peer)] = data[len(_HASH_PREFIX):].decode(errors="replace")
            elif data.startswith(_PING_PREFIX):
                dst, nonce = data[len(_PING_PREFIX):].decode(errors="replace").split("|", 1)
                try:
                    owner = route_lookup(plan, dst)
                except Exception:
                    return
                if owner == me:
                    link.send(_PONG_PREFIX + f"{dst}|{nonce}".encode())
            elif data.startswith(_PONG_PREFIX):
                got_pong.add((me, peer))  # confirms the ping this node sent
        return on_payload

    net.on_wire = on_wire
    try:
        for me, peer in directed:
            agents[me].links[peer].on_payload = receiver(me, peer)

        def send_unanswered() -> None:
            for p in directed:
                link = agents[p[0]].links[p[1]]
                if p not in got_hash:
                    link.send(payloads[p])
                if p not in got_pong:
                    link.send(pings[p])

        def done() -> bool:
            return all(p in got_hash and p in got_pong for p in directed)

        settle_us = net.now_us + int(SETTLE_S * 1_000_000)
        send_unanswered()
        while not drive(net, done, min(settle_us, net.now_us + int(VERIFY_RETRY_S * 1_000_000))):
            if net.now_us >= settle_us:
                break
            send_unanswered()
    finally:
        net.on_wire = prev_on_wire
        for me, peer in directed:
            agents[me].links[peer].on_payload = None

    payloads_ok = all(got_hash.get(p) == expected_hash[p] for p in directed)
    pings_ok = all(p in got_pong for p in directed)
    # The marker must stay off the wire of an all-encrypted overlay and be
    # seen on any other; with no link up there is nothing to check.
    encryption_ok = not up_links or marker_on_wire != all(o.encrypted for o in up_links)
    return {
        "links_verified": len(up_links),
        "payloads_ok": payloads_ok,
        "pings_ok": pings_ok,
        "marker_on_wire": marker_on_wire,
        "encryption_ok": encryption_ok,
        "all_ok": payloads_ok and pings_ok and encryption_ok,
    }


def _run_single(doc: dict, seed: int) -> dict:
    world = build_world(doc, seed=seed)
    outcome = realize_plan(world.net, world.agents, world.plan,
                           deadline_s=world.coord.punch["max_seconds"] + 20.0)
    checks = _verify_overlay(world, outcome)
    report = outcome.to_dict()
    report.update(mode="single", seed=seed, checks=checks,
                  ok=bool(outcome.connected and checks["all_ok"]),
                  stats=dict(world.net.stats), trace_hash=world.net.trace.digest())
    for agent in world.agents.values():
        agent.close()
    world.coord.close()
    world.net.close()
    return report


def run_scenario(doc_or_path, seed: Optional[int] = None) -> dict:
    """Run a scenario and return its JSON-ready report.

    A dict is validated in place; anything else is treated as a path.
    experiment.trials == 1 yields a full single-run report; more trials
    yield one compact row per trial plus an aggregate block.  ``seed``
    overrides the experiment seed.
    """
    if isinstance(doc_or_path, dict):
        doc = doc_or_path
        validate_scenario(doc)
    else:
        doc = load_scenario(doc_or_path)
    exp = doc.get("experiment") or {}
    trials = int(exp.get("trials", 1))
    master = int(exp.get("seed", 0) if seed is None else seed)
    if trials == 1:
        return _run_single(doc, master)

    rows = []
    for i in range(trials):
        rep = _run_single(doc, trial_seed(master, i, "bdmesh-scenario-trial"))
        direct = sum(1 for l in rep["links"] if l["path"] == "direct")
        relayed = sum(1 for l in rep["links"] if l["path"] == "relayed")
        rows.append({
            "trial": i,
            "seed": rep["seed"],
            "connected": rep["connected"],
            "direct_links": direct,
            "relayed_links": relayed,
            "ok": rep["ok"],
            "trace_hash": rep["trace_hash"],
        })
    planned = len(rep["links"])  # every trial plans the same scheme and links
    digest = hashlib.sha256(
        "\n".join(json.dumps(r, sort_keys=True) for r in rows).encode()
    ).hexdigest()
    return {
        "scheme": rep["scheme"],
        "mode": "multi",
        "trials": trials,
        "master_seed": master,
        "planned_links": planned,
        "rows": rows,
        "aggregate": {
            "connected_trials": sum(r["connected"] for r in rows),
            "fully_direct_trials": sum(
                1 for r in rows if r["direct_links"] == planned),
            "ok_trials": sum(r["ok"] for r in rows),
            "rows_digest": digest,
        },
        "ok": all(r["ok"] for r in rows),
    }


def build_plan_only(doc: dict) -> MeshPlan:
    """Classify and plan without touching the simulator."""
    scheme_doc = doc["scheme"]
    scheme = classify_scheme(int(scheme_doc["G"]), int(scheme_doc["P"]),
                             int(scheme_doc["theta"]))
    specs = [
        NodeSpec(hd["id"], hd.get("kind", "point"),
                 tuple(sd["cidr"] for sd in doc.get("subnets", []) if sd["gateway"] == hd["id"]))
        for hd in doc["hosts"]
    ]
    return plan_links(scheme, specs)
