"""Scenario validation, world building, bundled runs, determinism."""

import copy
import gc
import hashlib
import json
import os
import sys
import weakref
from importlib.resources import files
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from bdmesh import netsim, scenario
from bdmesh.errors import ScenarioError, UnsupportedSchemeError
from bdmesh.probability import success_probability
from bdmesh.scenario import (
    SCENARIO_SCHEMA,
    bundled_scenario_path,
    build_plan_only,
    build_world,
    load_scenario,
    run_scenario,
    validate_scenario,
)


def minimal_doc(**overrides):
    doc = {
        "hosts": [{"id": "a"}, {"id": "b"}],
        "scheme": {"G": 0, "P": 1, "theta": 1},
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_minimal_document_passes(self):
        validate_scenario(minimal_doc())

    def test_missing_hosts_reports_path(self):
        with pytest.raises(ScenarioError, match=r"\$"):
            validate_scenario({"scheme": {"G": 0, "P": 1, "theta": 1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError):
            validate_scenario(minimal_doc(extra=1))

    def test_bad_scheme_value_reports_field(self):
        doc = minimal_doc(scheme={"G": 2, "P": 1, "theta": 1})
        with pytest.raises(ScenarioError, match=r"scheme"):
            validate_scenario(doc)

    def test_duplicate_host_id(self):
        doc = minimal_doc(hosts=[{"id": "a"}, {"id": "a"}])
        with pytest.raises(ScenarioError, match=r"hosts\[1\]\.id"):
            validate_scenario(doc)

    def test_reserved_host_id(self):
        doc = minimal_doc(hosts=[{"id": "coord"}, {"id": "b"}])
        with pytest.raises(ScenarioError, match="reserved"):
            validate_scenario(doc)

    def test_unknown_nat_reference(self):
        doc = minimal_doc(hosts=[{"id": "a", "nat": "ghost"}, {"id": "b"}])
        with pytest.raises(ScenarioError, match=r"hosts\[0\]\.nat"):
            validate_scenario(doc)

    def test_duplicate_nat_id(self):
        doc = minimal_doc(nats=[{"id": "n"}, {"id": "n"}])
        with pytest.raises(ScenarioError, match=r"nats\[1\]\.id"):
            validate_scenario(doc)

    def test_link_for_unknown_host(self):
        doc = minimal_doc(links=[{"host": "ghost"}])
        with pytest.raises(ScenarioError, match=r"links\[0\]\.host"):
            validate_scenario(doc)

    def test_total_loss_is_refused_at_its_path(self):
        # LinkPolicy takes loss in [0, 1); the schema refuses 1 first, so
        # the message names the field.
        doc = minimal_doc(links=[{"host": "a", "loss": 1}])
        with pytest.raises(ScenarioError) as info:
            validate_scenario(doc)
        assert str(info.value).startswith("$.links[0].loss")

    def test_duplicate_link_policy(self):
        doc = minimal_doc(links=[{"host": "a"}, {"host": "a"}])
        with pytest.raises(ScenarioError, match=r"links\[1\]\.host"):
            validate_scenario(doc)

    def test_subnet_on_non_gateway(self):
        doc = minimal_doc(subnets=[{"gateway": "a", "cidr": "10.1.0.0/16"}])
        with pytest.raises(ScenarioError, match="not a gateway"):
            validate_scenario(doc)

    def test_subnet_unknown_gateway(self):
        doc = minimal_doc(subnets=[{"gateway": "ghost", "cidr": "10.1.0.0/16"}])
        with pytest.raises(ScenarioError, match=r"subnets\[0\]\.gateway"):
            validate_scenario(doc)

    def test_bad_punch_parameters(self):
        doc = minimal_doc(experiment={"punch": {"open_ports": 0}})
        with pytest.raises(ScenarioError, match=r"experiment\.punch"):
            validate_scenario(doc)

    def test_loss_out_of_range(self):
        doc = minimal_doc(links=[{"host": "a", "loss": 1.5}])
        with pytest.raises(ScenarioError, match="loss"):
            validate_scenario(doc)

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(p)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_schema_is_valid_and_loaded_from_the_package_file(self):
        Draft202012Validator.check_schema(SCENARIO_SCHEMA)
        text = (files("bdmesh") / "scenario.schema.json").read_text(encoding="utf-8")
        # Key order decides which error is reported first, so compare it too.
        assert json.dumps(json.loads(text)) == json.dumps(SCENARIO_SCHEMA)


def test_package_data_globs_cover_every_data_file():
    """A wheel built from pyproject.toml ships every non-Python file the
    package opens (the schema and the bundled scenarios)."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["bdmesh"]
    pkg = root / "src" / "bdmesh"
    data = {p for p in pkg.rglob("*")
            if p.is_file() and p.suffix not in (".py", ".pyc")
            and "__pycache__" not in p.parts}
    shipped = {p for pattern in globs for p in pkg.glob(pattern)}
    assert pkg / "scenario.schema.json" in data
    assert pkg / "scenarios" / "fullmesh5.json" in data
    assert data <= shipped, sorted(str(p.relative_to(pkg)) for p in data - shipped)


class TestBuild:
    def test_unsupported_scheme_surfaces_before_simulation(self):
        doc = minimal_doc(scheme={"G": 0, "P": 0, "theta": 0})
        validate_scenario(doc)  # structurally fine
        with pytest.raises(UnsupportedSchemeError):
            build_world(doc)

    def test_build_plan_only_matches_world_plan(self):
        doc = load_scenario(bundled_scenario_path("site2site.json"))
        plan = build_plan_only(doc)
        world = build_world(doc)
        assert world.plan.to_dict() == plan.to_dict()
        assert plan.routes == {"10.1.0.0/16": "gw-east", "10.2.0.0/16": "gw-west"}

    def test_world_honors_nat_and_link_settings(self):
        doc = minimal_doc(
            hosts=[{"id": "a", "nat": "n1"}, {"id": "b"}],
            nats=[{"id": "n1", "mapping": "endpoint_dependent",
                   "filtering": "address_and_port_dependent",
                   "port_alloc": "sequential", "mapping_ttl_s": 12.5}],
            links=[{"host": "b", "loss": 0.25, "latency_us": 9000,
                    "jitter_us": 100, "udp_blocked": False}],
        )
        world = build_world(doc)
        nat = world.net.nats["n1"]
        assert nat.profile.mapping.value == "endpoint_dependent"
        assert nat.profile.mapping_ttl_s == 12.5
        host_b = world.net.hosts["b"]
        assert host_b.link.loss == 0.25
        assert host_b.link.latency_us == 9000


class TestBundledScenarios:
    def test_fullmesh5_ten_direct_encrypted_links(self):
        rep = run_scenario(bundled_scenario_path("fullmesh5.json"))
        assert rep["ok"] and rep["connected"]
        assert len(rep["links"]) == 10
        assert all(l["up"] and l["path"] == "direct" and l["encrypted"]
                   for l in rep["links"])
        assert rep["checks"]["marker_on_wire"] is False

    def test_site2site_plain_gateway_link_and_cross_subnet_ping(self):
        rep = run_scenario(bundled_scenario_path("site2site.json"))
        assert rep["ok"] and rep["connected"]
        assert len(rep["links"]) == 1
        (link,) = rep["links"]
        assert not link["encrypted"] and link["path"] == "relayed"
        # pings_ok covers the cross-subnet round trip via route lookup
        assert rep["checks"]["pings_ok"]
        assert rep["checks"]["marker_on_wire"] is True  # plaintext scheme

    def test_blocked_scenario_fully_connected_via_relay(self):
        rep = run_scenario(bundled_scenario_path("blocked.json"))
        assert rep["ok"] and rep["connected"]
        by_pair = {frozenset((l["a"], l["b"])): l for l in rep["links"]}
        # every link that touches the blocked node is relayed
        for pair, l in by_pair.items():
            if "bravo" in pair:
                assert l["path"] == "relayed", pair
        assert by_pair[frozenset(("hotel1", "hotel2"))]["path"] == "relayed"
        assert rep["checks"]["payloads_ok"]  # end-to-end digests matched


class TestDeterminism:
    # Pinned so that a change to the trace format or to any simulated
    # event (RNG draws included) cannot pass unnoticed.
    GOLDEN_TRACE_HASHES = {
        "fullmesh5.json": "b2caf2c2edd77ef174d3a6ddabcad1ce4f6ab79a3a21f07a9ae023d899dd4919",
        "site2site.json": "6f984065c1f3534d402a3c28688931357fa81dfa386f15f08c62e4cdfe04eb32",
        "blocked.json": "17b89d10660b05adef16d9f7e7465607cdfceb399182b476049e4b852aadb4b0",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_HASHES))
    def test_bundled_trace_hash_is_pinned(self, name):
        report = run_scenario(bundled_scenario_path(name))
        assert report["trace_hash"] == self.GOLDEN_TRACE_HASHES[name]

    def test_same_seed_identical_report_and_trace(self):
        r1 = run_scenario(bundled_scenario_path("blocked.json"))
        r2 = run_scenario(bundled_scenario_path("blocked.json"))
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["trace_hash"] == r2["trace_hash"]

    def test_different_seed_different_trace(self):
        doc = load_scenario(bundled_scenario_path("blocked.json"))
        r1 = run_scenario(copy.deepcopy(doc))
        r2 = run_scenario(copy.deepcopy(doc), seed=9999)
        assert r1["trace_hash"] != r2["trace_hash"]

    def test_multi_trial_report_stable(self):
        doc = minimal_doc(experiment={"trials": 3, "seed": 77})
        r1 = run_scenario(copy.deepcopy(doc))
        r2 = run_scenario(copy.deepcopy(doc))
        assert r1 == r2
        assert r1["trials"] == 3
        assert len(r1["rows"]) == 3
        assert r1["aggregate"]["connected_trials"] == 3
        assert all(len(row["trace_hash"]) == 64 for row in r1["rows"])
        # a different master seed reshuffles every per-trial seed
        r3 = run_scenario(minimal_doc(experiment={"trials": 3, "seed": 78}))
        assert r3["aggregate"]["rows_digest"] != r1["aggregate"]["rows_digest"]


# A point_to_site overlay whose gateway is declared between two points,
# so one link is (point, gateway) and the other (gateway, point).
POINT_TO_SITE_DOC = {
    "hosts": [{"id": "p1"}, {"id": "hub", "kind": "gateway", "nat": "nh"},
              {"id": "p2", "nat": "n2"}],
    "nats": [{"id": "nh"}, {"id": "n2"}],
    "scheme": {"G": 1, "P": 0, "theta": 1},
    "subnets": [{"gateway": "hub", "cidr": "192.168.50.0/24"}],
    "experiment": {"seed": 31},
}

# A site_mesh with one gateway behind a hard NAT on a 30 % lossy link: its
# link to the easy gateway is punched by the birthday opener, its link to
# the public one by the direct punch, and verification must resend what
# the link loses.
SITE_MESH_LOSSY_DOC = {
    "hosts": [{"id": "g1", "kind": "gateway", "nat": "n1"},
              {"id": "g2", "kind": "gateway", "nat": "hard"},
              {"id": "g3", "kind": "gateway"}],
    "nats": [{"id": "n1"},
             {"id": "hard", "mapping": "endpoint_dependent",
              "filtering": "address_and_port_dependent"}],
    "links": [{"host": "g2", "loss": 0.3}],
    "scheme": {"G": 1, "P": 1, "theta": 1},
    "subnets": [{"gateway": "g1", "cidr": "10.1.0.0/16"},
                {"gateway": "g2", "cidr": "10.2.0.0/16"},
                {"gateway": "g3", "cidr": "10.3.0.0/16"}],
    "experiment": {"seed": 13, "punch": {"max_seconds": 10.0}},
}


def report_digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class TestReportDigests:
    # Whole reports, not just their trace hashes: checks, per-link timings
    # and probe counts, dead links and the multi-trial rows and aggregate.
    REPORTS = {
        "fullmesh5.json": (
            lambda: bundled_scenario_path("fullmesh5.json"),
            "af6421f85e836b7ddda8634354ea5e3822ef7e88a975983c85242d689b80bd2b"),
        "site2site.json": (
            lambda: bundled_scenario_path("site2site.json"),
            "14c91e2fee1361cc5b994b7cfaa23740296ad6d8cd6897af58e6d1bb9275f4c2"),
        "blocked.json": (
            lambda: bundled_scenario_path("blocked.json"),
            "0235d56962c4f3f070873038c79ef92646fde603bab9d182d08020338b97f278"),
        "point_to_site": (
            lambda: copy.deepcopy(POINT_TO_SITE_DOC),
            "19cb9da88392f23de0afa19f86439128db97db694d7158e395039f92131bb371"),
        "site_mesh_lossy": (
            lambda: copy.deepcopy(SITE_MESH_LOSSY_DOC),
            "ae1f061140501a23adffd7a77a63167d86e5d1ca2434aa4e560fe5eec627ae0f"),
        "three_trials": (
            lambda: minimal_doc(experiment={"trials": 3, "seed": 77}),
            "11ce28a717e03ede965a163ba0aa5d72c64dd3c3008d233c08009a92873e10a5"),
        # One hard node and two easy ones: agent-level birthday punches
        # (hard opener, easy prober) when the easy NATs filter by port, and
        # direct punches when they filter nothing and so read cone.
        "birthday_filtering": (
            lambda: two_birthday_links_doc(1, "address_and_port_dependent"),
            "dc688c4ee44a441a6ef4fc75d53d103a50af237ff2901e36c502bee6ed580587"),
        "birthday_full_cone": (
            lambda: two_birthday_links_doc(1, "endpoint_independent"),
            "05afa9c84907f8677fc9ef73cf42f7cc62c2a06435f491cc3cdda60719b3fd4e"),
    }

    @pytest.mark.parametrize("name", list(REPORTS))
    def test_report_is_pinned(self, name):
        source, digest = self.REPORTS[name]
        assert report_digest(run_scenario(source())) == digest


class TestVerification:
    def test_lossy_links_are_verified_by_resending(self):
        # 30 % loss on one gateway's uplink: each payload and ping is
        # resent until answered, so a run whose links are all up is ok.
        rep = run_scenario(copy.deepcopy(SITE_MESH_LOSSY_DOC))
        assert rep["connected"]
        assert rep["checks"]["payloads_ok"] and rep["checks"]["pings_ok"]
        assert rep["ok"]

    def test_subnet_over_node_addresses_pings_the_gateway_itself(self):
        # gw-west advertises the overlay's first /24, whose first host is
        # gw-east's overlay address; route lookup sends that to gw-east, so
        # gw-west's ping goes to gw-west's own overlay address instead.
        doc = load_scenario(bundled_scenario_path("site2site.json"))
        doc["subnets"][1]["cidr"] = "100.64.0.0/24"
        rep = run_scenario(doc)
        assert rep["connected"]
        assert rep["checks"]["pings_ok"] and rep["checks"]["payloads_ok"]
        assert rep["ok"]


class TestWorldLifetime:
    """run_scenario closes its agents and its coordinator before the
    Network, so reference counting alone frees the world: no timer, NAT
    mapping or other bdmesh object is left for the cyclic collector."""

    @pytest.mark.parametrize("name", ["blocked.json", "fullmesh5.json", "site2site.json",
                                      "birthday_filtering"])
    def test_run_releases_mappings_and_pending_events(self, monkeypatch, name):
        # birthday_filtering runs opener and prober machines.
        source, digest = TestReportDigests.REPORTS[name]
        worlds = []

        class Recorded(netsim.Network):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                worlds.append((weakref.ref(self), self._heap, self.nats, self.hosts))

        monkeypatch.setattr(scenario, "Network", Recorded)
        gc.collect()
        gc.disable()
        try:
            before = pending_world_objects()
            report = run_scenario(source())
            left = [o for o in pending_world_objects() if not any(o is b for b in before)]
            ((net_ref, heap, nats, hosts),) = worlds
            net_alive = net_ref() is not None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = sorted({type(o).__qualname__ for o in gc.garbage
                             if type(o).__module__.startswith("bdmesh")})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        golden = TestDeterminism.GOLDEN_TRACE_HASHES.get(name)
        assert golden is None or report["trace_hash"] == golden
        assert report_digest(report) == digest
        assert heap == [] and nats == {} and hosts == {}
        assert left == []
        assert not net_alive
        assert cyclic == []


class TestOpenerOutOfPorts:
    def test_openers_that_run_out_of_ports_fall_back_to_the_relay(self, monkeypatch):
        # One hard host wants a pool of 4096 pinholes for its nine peers,
        # all behind easy NATs that filter by port, and something else
        # holds all but 4096 of its ephemeral ports, so with its primary
        # socket bound the pool cannot open: every session relays.
        tools = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
        sys.path.insert(0, tools)
        try:
            from bench_pairs import mesh_doc
        finally:
            sys.path.remove(tools)
        doc = mesh_doc(10, 1, 1)
        for host in doc["hosts"]:
            if "nat" not in host:  # public: a hard host would punch it directly
                host["nat"] = f"nat-{host['id']}"
                doc["nats"].append({"id": host["nat"], "mapping": "endpoint_independent"})
        for nat in doc["nats"]:
            if nat["mapping"] == "endpoint_independent":  # cone otherwise: punched directly
                nat["filtering"] = "address_and_port_dependent"
        (hard,) = [h["id"] for h in doc["hosts"] if h["nat"] in
                   {n["id"] for n in doc["nats"] if n["mapping"] == "endpoint_dependent"}]
        doc["experiment"]["punch"] = {"open_ports": 4096}

        class Crowded(netsim.Network):
            def add_host(self, host_id, nat=None, link=None):
                host = super().add_host(host_id, nat=nat, link=link)
                if host_id == hard:
                    span = host.EPHEMERAL_HI - host.EPHEMERAL_LO + 1
                    host.open_sockets(lambda *x: None, span - 4096)
                return host

        monkeypatch.setattr(scenario, "Network", Crowded)
        rep = run_scenario(doc, seed=1)
        assert rep["ok"] and rep["connected"]
        assert len(rep["links"]) == 45 and all(l["up"] for l in rep["links"])
        assert any(l["path"] == "relayed" and hard in (l["a"], l["b"]) for l in rep["links"])
        assert all(l["path"] == "relayed" for l in rep["links"] if hard in (l["a"], l["b"]))


def pending_world_objects():
    """Every live NAT mapping and every timer that would still fire."""
    return [o for o in gc.get_objects()
            if type(o) is netsim._Mapping or (type(o) is netsim.Timer and o.fn is not None)]


def two_birthday_links_doc(trials: int, easy_filtering: str) -> dict:
    """Two easy nodes (endpoint-independent mapping, the given filtering)
    and one hard node, full mesh: the two easy<->hard links punch with
    B=256, A=1000 each."""
    return {
        "hosts": [
            {"id": "e1", "nat": "ne1"},
            {"id": "e2", "nat": "ne2"},
            {"id": "hh", "nat": "nh"},
        ],
        "nats": [
            {"id": "ne1", "filtering": easy_filtering},
            {"id": "ne2", "filtering": easy_filtering},
            {"id": "nh", "mapping": "endpoint_dependent",
             "filtering": "address_and_port_dependent"},
        ],
        "scheme": {"G": 0, "P": 1, "theta": 1},
        "experiment": {"trials": trials, "seed": 2024,
                       "punch": {"open_ports": 256, "rate": 100.0,
                                 "max_seconds": 10.0}},
    }


class TestRealizationStatistics:
    def test_two_birthday_links_fully_direct_rate(self):
        # The easy NATs filter, the peer the birthday law describes: a
        # trial is fully direct when both sweeps hit, so the rate tracks
        # the analytic square.
        trials = 400
        rep = run_scenario(two_birthday_links_doc(trials, "address_and_port_dependent"))
        assert rep["aggregate"]["connected_trials"] == trials  # relay rescues misses
        p = success_probability(64511, 256, 1000)
        expect = p * p
        emp = rep["aggregate"]["fully_direct_trials"] / trials
        sigma3 = 3 * (expect * (1 - expect) / trials) ** 0.5
        assert abs(emp - expect) <= sigma3, (emp, expect, sigma3)
        # A prober that filters never sends a triggered check, so every
        # trial is the one a sweep-only prober gives.  The rows without
        # their trace hashes pin the punch outcomes alone, which a change
        # to the bytes of relayed links does not move (one to the
        # simulator's draws, such as the classifier's change-port probe
        # socket taking a NAT port, does).
        assert rep["aggregate"]["rows_digest"] == (
            "07a6d6fa4d7ce3ac63d42a53c17922257afc096c85d6a45fee1a4c90054ba546")
        assert hashlib.sha256("\n".join(
            json.dumps({k: v for k, v in row.items() if k != "trace_hash"}, sort_keys=True)
            for row in rep["rows"]).encode()).hexdigest() == (
            "7db61fb94eda9c68cfbb3869cc5cf027670bd96846a289382fd787812da6a755")

    def test_full_cone_probers_link_every_trial_directly(self):
        # NATs that filter nothing read cone, so the hard node meets them
        # with the direct punch: no sweep that could miss.
        trials = 400
        rep = run_scenario(two_birthday_links_doc(trials, "endpoint_independent"))
        assert rep["aggregate"]["connected_trials"] == trials
        assert rep["aggregate"]["fully_direct_trials"] == trials
