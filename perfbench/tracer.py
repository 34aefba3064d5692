"""Spans and counts at bdmesh's layer boundaries, recorded from outside.

install() replaces public functions and methods of bdmesh with
wrappers that time each call.  A span is (index, name, start, end,
parent, op): the parent is the span that was open when the call began,
and op is the benchmark operation it served.  Spans stay in memory and
write_spans() stores them when the run ends.

A span's self time is its duration minus the time its child spans
cover.  Work reached only through private functions (the simulator's
_deliver, the agent's datagram demux, asyncio's reader callbacks) has
no span of its own and counts toward the self time of the nearest
wrapped caller.

Counts are taken at the same boundaries: calls, values a function
returns (events fired, ports drawn) and, when an operation ends, the
state of the objects created during it (network stats, probers,
coordinator sessions, agent sessions).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

SPAN_COLUMNS = ("index", "name", "start_ns", "end_ns", "parent", "op")
# Span rows kept for write_spans (48 bytes each); the per-name totals
# behind the metrics count every span.
MAX_SPAN_ROWS = 500_000


class Stats:
    """What one phase of a run measured."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.kind_ns: dict[str, list[int]] = defaultdict(list)
        self.ops = 0
        self.cpu_s = 0.0
        self.held: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[list[int]] = []   # [child_ns, span index] per open span
        self._next = 0
        self.op = -1
        self.stats = Stats()
        self.recording = False
        self._patched: list[tuple[object, str, object]] = []
        self._created: dict[str, list] = defaultdict(list)

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) may add counts."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer, stack, spans = self, self._stack, self.spans

        def traced(*args, **kw):
            if not tracer.recording:
                return fn(*args, **kw)
            idx = tracer._next
            tracer._next = idx + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, idx]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kw)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st = tracer.stats
                st.calls[name] += 1
                st.self_ns[name] += dur - frame[0]
                if idx < MAX_SPAN_ROWS:
                    spans.extend((idx, nid, start, end, parent, tracer.op))
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.stats.counts[key] += n

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap owner.attr.  A module-level function is replaced in every
        bdmesh module that imported it by name."""
        original = owner.__dict__[attr]
        wrapped = self.span(name, original, after)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for key, m in list(sys.modules.items())
                       if key.startswith("bdmesh") and m is not None
                       and m.__dict__.get(attr) is original]
        for target in targets:
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapped)

    def track(self, cls, kind: str) -> None:
        """Remember every instance of cls created while an op runs."""
        init = cls.__init__
        created = self._created[kind]

        def tracked_init(obj, *args, **kw):
            init(obj, *args, **kw)
            if self.op >= 0:
                created.append(obj)

        self._patched.append((cls, "__init__", init))
        cls.__init__ = tracked_init

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- operations -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        """Harvest the objects the op created, then forget them."""
        self.op = -1
        c = self.stats.counts
        for net in self._created["network"]:
            for key, value in net.stats.items():
                c[f"net.{key}"] += value
        for prober in self._created["prober"]:
            c["prober.probes"] += prober.probes_sent
            c["prober.hits"] += prober.established_peer is not None
        coords = self._created["coordinator"]
        for coord in coords:
            c["coord.introductions"] += coord.introductions
            c["coord.relayed_bytes"] += sum(s.relayed_bytes for s in coord.sessions.values())
        agents = self._created["agent"]
        for agent in agents:
            c["agent.relay_fallbacks"] += relay_fallbacks(agent)
        if coords or agents:
            self.stats.held = {
                "coord.sessions": sum(len(x.sessions) for x in coords),
                "agent.sessions": sum(len(x.sessions) for x in agents)}
        for objs in self._created.values():
            objs.clear()

    def write_spans(self, path_prefix: str) -> None:
        """<prefix>.spans holds int64 rows of SPAN_COLUMNS; <prefix>.names.json names them."""
        with open(path_prefix + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(path_prefix + ".names.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": SPAN_COLUMNS, "dtype": "int64", "names": self.names}, fh)


def relay_fallbacks(agent) -> int:
    """Sessions that were meant to punch but ended on the relay."""
    return sum(1 for ls in agent.sessions.values()
               if ls.role != "relay" and ls.path == "relayed")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from bdmesh import (agent, cli, meshplan, montecarlo, netsim, probability,
                        realbackend, rendezvous, scenario, securelink, traversal)

    t = tracer

    def count_return(key):
        return lambda result, args: t.count(key, result)

    draw = t.span("probability.port_draw", next,
                  lambda port, args: t.count("ports_drawn"))

    class TimedPorts:
        __slots__ = ("it",)

        def __init__(self, it):
            self.it = it

        def __iter__(self):
            return self

        def __next__(self):
            return draw(self.it)

    original_iter_ports = probability.iter_ports

    def iter_ports(*args, **kw):
        return TimedPorts(original_iter_ports(*args, **kw))

    for mod in (probability, traversal):
        t._patched.append((mod, "iter_ports", original_iter_ports))
        mod.iter_ports = iter_ports

    t.patch(probability, "success_probability", "probability.success_probability")
    t.patch(probability, "min_probes", "probability.min_probes")
    t.patch(probability, "probability_curve", "probability.probability_curve")

    t.patch(netsim.Network, "run_until", "netsim.run_until", count_return("events"))
    t.patch(netsim.Network, "run_for", "netsim.run_for", count_return("events"))
    t.patch(netsim.SimSocket, "send", "netsim.socket_send")
    t.patch(netsim.Nat, "outbound", "netsim.nat_outbound")
    t.patch(netsim.Nat, "inbound", "netsim.nat_inbound")
    t.patch(netsim.Host, "bind", "netsim.bind")
    t.patch(netsim.TraceLog, "add", "netsim.trace_add")
    t.patch(netsim.TraceLog, "digest", "netsim.trace_digest")
    t.patch(netsim.ChannelEnd, "send", "netsim.ctrl_send")

    t.patch(traversal.BirthdayOpener, "start", "traversal.opener_start")
    t.patch(traversal.BirthdayProber, "on_datagram", "traversal.prober_datagram")
    t.patch(traversal, "parse_probe", "traversal.parse_probe")

    t.patch(montecarlo, "run_punch_trial", "montecarlo.run_punch_trial")

    t.patch(rendezvous.Coordinator, "handle", "rendezvous.handle")

    t.patch(securelink.HandshakeInitiator, "message1", "securelink.message1")
    t.patch(securelink.HandshakeResponder, "consume_message1", "securelink.consume_message1")
    t.patch(securelink.HandshakeInitiator, "consume_message2", "securelink.consume_message2")
    t.patch(securelink.FrameCipher, "seal", "securelink.seal")
    t.patch(securelink.FrameCipher, "open", "securelink.open")

    t.patch(agent.OverlayLink, "send", "agent.link_send")
    t.patch(agent.OverlayLink, "__init__", "agent.link_up")

    t.patch(meshplan, "plan_links", "meshplan.plan_links",
            lambda plan, args: t.count("plan.links", len(plan.links)))
    t.patch(meshplan, "realize_plan", "meshplan.realize_plan")
    t.patch(scenario, "validate_scenario", "scenario.validate_scenario")
    t.patch(scenario, "build_world", "scenario.build_world")
    t.patch(scenario, "run_scenario", "scenario.run_scenario")

    t.patch(realbackend.AsyncioUdpSocket, "send", "realbackend.udp_send")
    t.patch(realbackend.TcpLineChannel, "send", "realbackend.tcp_send")

    t.patch(cli, "main", "cli.main")

    t.track(netsim.Network, "network")
    t.track(traversal.BirthdayProber, "prober")
    t.track(rendezvous.Coordinator, "coordinator")
    t.track(agent.NodeAgent, "agent")
