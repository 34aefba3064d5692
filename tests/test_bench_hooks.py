"""The benchmark's tracer (perfbench/tracer.py) wraps bdmesh from
outside: it patches methods through each class's own __dict__ and
reads LinkSession.role and .path.  These tests keep those hooks in
step with the code they wrap, so a refactor that moves a patched
method into a base class or drops a field it reads fails here."""

import importlib.util
import os
import sys

# install() imports these; they are loaded first so that the snapshot
# taken before install() already holds their namespaces.
from bdmesh import (agent, cli, meshplan, montecarlo, netsim, probability,  # noqa: F401
                    realbackend, rendezvous, scenario, securelink, traversal)
from bdmesh.netsim import LinkPolicy, NatProfile

from test_agent import linked, make_world, spawn, wait

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict:
    """A copy of every bdmesh module's and class's own namespace."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bdmesh" or name.startswith("bdmesh.")):
            continue
        out[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def namespace_name(target) -> str:
    if isinstance(target, type):
        return f"{target.__module__}.{target.__qualname__}"
    return target.__name__


def changed(before: dict, after: dict) -> list:
    diffs = []
    for ns in before.keys() | after.keys():
        b, a = before.get(ns, {}), after.get(ns, {})
        diffs += [(ns, key) for key in b.keys() | a.keys()
                  if key not in b or key not in a or b[key] is not a[key]]
    return sorted(diffs)


def test_install_then_uninstall_restores_every_patched_attribute():
    tracer = load_tracer()
    t = tracer.Tracer()
    before = namespaces()
    tracer.install(t)
    try:
        patched = changed(before, namespaces())
        recorded = sorted({(namespace_name(target), attr) for target, attr, _ in t._patched})
        assert patched == recorded
        assert ("bdmesh.traversal.BirthdayOpener", "start") in patched
        assert ("bdmesh.traversal.BirthdayProber", "on_datagram") in patched
    finally:
        t.uninstall()
    assert changed(before, namespaces()) == []


def test_relay_fallbacks_counts_punches_that_ended_on_the_relay():
    tracer = load_tracer()
    t = tracer.Tracer()
    tracer.install(t)
    try:
        t.begin_op(0)
        net, coord_host, _ = make_world(seed=121)
        a, host_a = spawn(net, coord_host, "alpha")
        b, host_b = spawn(net, coord_host, "beta")
        c, _ = spawn(net, coord_host, "gamma", NatProfile.hard("nc"))
        d, _ = spawn(net, coord_host, "delta", NatProfile.hard("nd"))
        assert wait(net, lambda: all(x.ready for x in (a, b, c, d)), 5.0)
        host_a.link = host_b.link = LinkPolicy(udp_blocked=True)
        a.connect("beta")   # a direct punch that fails, then the relay
        c.connect("delta")  # relayed by plan: no punch to fall back from
        assert wait(net, lambda: linked(a, b, "alpha", "beta")() and linked(c, d, "gamma", "delta")(),
                    30.0)
        t.end_op()
    finally:
        t.uninstall()
    assert [tracer.relay_fallbacks(x) for x in (a, b, c, d)] == [1, 1, 0, 0]
    assert t.stats.counts["agent.relay_fallbacks"] == 2
    assert t.stats.held["agent.sessions"] == 4
