"""The four workloads: seeded inputs, the calls that run them, their checks.

A workload turns the benchmark seed into one round: a fixed list of
operations.  A run repeats whole rounds, so every round of a run does
the same work.  Simulated operations must also give the same result in
every round, which the checks compare.

Each workload offers:
    ops                  the round, a list of operation descriptions
    setup() / teardown() services, warm-up (untimed)
    before_round()       untimed work before each measured round
    run_round(begin, end) runs every op once, calling begin(i) before
                         and end(i, ns) after op i; returns the results
    kind(i)              the label per-kind timings are grouped under
    check_op(i, result, first_round)  raises CheckFailed: the op failed
    check_run()          raises CheckFailed: the run is not correct
    held()               table sizes of services that outlive an op
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import io
import json
import math
import random
import socket
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter_ns

from bdmesh import cli, montecarlo, probability, scenario
from bdmesh.realbackend import CoordinatorServer, NodeClient
from bdmesh.securelink import Identity

import oracles
from oracles import CheckFailed
from tracer import relay_fallbacks

K_FULL = 65535 - 1025 + 1   # the default port space, 1025..65535


def derive_seed(*parts) -> int:
    """A 63-bit seed from the benchmark seed and a position."""
    text = ":".join(str(p) for p in ("perfbench",) + parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


class Failed:
    """The result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"Failed({self.exc!r})"


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []
        self._first: list = []

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def before_round(self) -> None:
        pass

    def run_op(self, op):
        raise NotImplementedError

    def run_round(self, begin, end) -> list:
        results = []
        for i, op in enumerate(self.ops):
            begin(i)
            t0 = perf_counter_ns()
            try:
                result = self.run_op(op)
            except Exception as exc:   # a failed op is counted, the run goes on
                result = Failed(exc)
            end(i, perf_counter_ns() - t0)
            results.append(result)
        return results

    def kind(self, i: int) -> str:
        return self.ops[i][0]

    def fingerprint(self, result):
        """What must repeat exactly in every round (None: nothing)."""
        return result

    def check_op(self, i: int, result, first_round: bool) -> None:
        failed = isinstance(result, Failed)
        fp = None if failed else self.fingerprint(result)
        if first_round:
            self._first.append(fp)
        if failed:
            raise CheckFailed(f"op {i} ({self.kind(i)}) raised {result.exc!r}")
        if first_round:
            self.check_result(i, result)
        elif fp is not None and fp != self._first[i]:
            raise CheckFailed(f"op {i} ({self.kind(i)}) gave another result than in the first round")

    def check_result(self, i: int, result) -> None:
        pass

    def check_run(self) -> None:
        pass

    def held(self) -> dict:
        return {}


# -- punch -----------------------------------------------------------------

class Punch(Workload):
    """Seeded birthday punches, one in-process run_punch_trial per op."""

    name = "punch"
    RATE = 100.0
    # (open ports B, budget seconds, loss on both uplinks)
    CONFIGS = ((256, 10.0, 0.0), (128, 10.0, 0.0), (512, 5.0, 0.0), (256, 10.0, 0.05))
    PER_CONFIG = 150

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        n = 2 if small else self.PER_CONFIG
        # Configurations interleave, so a slow spell of the machine
        # falls on all of them alike.
        self.ops = [(f"B{b}-{s:g}s-loss{l:g}", c, derive_seed("punch", seed, c, i))
                    for i in range(n) for c, (b, s, l) in enumerate(self.CONFIGS)]

    def setup(self) -> None:
        for c in range(len(self.CONFIGS)):
            self.run_op(("warm-up", c, derive_seed("punch-warm-up", self.seed, c)))

    def run_op(self, op):
        _, c, trial_seed = op
        b, seconds, loss = self.CONFIGS[c]
        return montecarlo.run_punch_trial(trial_seed, open_ports=b, rate=self.RATE,
                                          max_seconds=seconds, loss=loss)

    def check_result(self, i, out) -> None:
        b, seconds, _ = self.CONFIGS[self.ops[i][1]]
        budget = math.floor(Fraction(str(self.RATE)) * Fraction(str(seconds)))
        if not (0 <= out.probes_sent <= budget):
            raise CheckFailed(f"punch op {i}: {out.probes_sent} probes, budget {budget}")
        if out.success and out.probes_sent < 1:
            raise CheckFailed(f"punch op {i}: a hit without a probe")
        if out.elapsed_us > (seconds + 1.0) * 1_000_000:
            raise CheckFailed(f"punch op {i}: took {out.elapsed_us} us of a {seconds:g} s budget")

    def check_run(self) -> None:
        for c, (b, seconds, loss) in enumerate(self.CONFIGS):
            outs = [fp for (_, oc, _), fp in zip(self.ops, self._first)
                    if oc == c and fp is not None]
            budget = math.floor(Fraction(str(self.RATE)) * Fraction(str(seconds)))
            law = (oracles.lossy_hit_probability(K_FULL, b, budget, loss) if loss
                   else oracles.hit_probability(K_FULL, b, budget))
            if len(outs) >= 100:
                oracles.check_success_count(f"punch B={b} {seconds:g}s loss={loss:g}",
                                            sum(o.success for o in outs), len(outs), law)


# -- mesh ------------------------------------------------------------------

def mesh_doc(n: int, rng: random.Random) -> tuple[dict, dict[str, str]]:
    """A full mesh of n nodes: two hard NATs (a pair that must relay),
    one UDP-blocked host, the rest public and behind easy NATs in turn.
    The seed places them and draws each link's latency and jitter; no
    link loses packets.  The make-up is fixed per n, so every seed gets
    the same mix of direct, punched and relayed pairs."""
    kinds = ["hard", "hard", "blocked"] + [("public", "easy")[i % 2] for i in range(n - 3)]
    rng.shuffle(kinds)
    hosts, nats, links, by_id = [], [], [], {}
    for i, kind in enumerate(kinds):
        hid = f"n{i}"
        by_id[hid] = kind
        host = {"id": hid}
        if kind == "easy":
            nats.append({"id": f"nat{i}", "mapping": "endpoint_independent",
                         "filtering": "endpoint_independent"})
            host["nat"] = f"nat{i}"
        elif kind == "hard":
            nats.append({"id": f"nat{i}", "mapping": "endpoint_dependent",
                         "filtering": "address_and_port_dependent"})
            host["nat"] = f"nat{i}"
        hosts.append(host)
        link = {"host": hid, "latency_us": rng.randrange(500, 5001),
                "jitter_us": rng.randrange(0, 1001)}
        if kind == "blocked":
            link["udp_blocked"] = True
        links.append(link)
    doc = {"hosts": hosts, "nats": nats, "links": links,
           "scheme": {"G": 0, "P": 1, "theta": 1}, "experiment": {"trials": 1}}
    return doc, by_id


def report_digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class Mesh(Workload):
    """One op is one run_scenario of a seeded 6-8 node mixed-NAT full mesh."""

    name = "mesh"
    SIZES = (6, 7, 8)
    PER_SIZE = 12

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        n_ops = 1 if small else self.PER_SIZE * len(self.SIZES)
        for i in range(n_ops):
            n = self.SIZES[i % len(self.SIZES)]
            doc, kinds = mesh_doc(n, random.Random(derive_seed("mesh-doc", seed, i)))
            self.ops.append((f"nodes{n}", doc, kinds, derive_seed("mesh-sim", seed, i)))
        self._warm_up: list[str] = []

    def setup(self) -> None:
        # The first op runs here and again in the first round: the same
        # seed must give the same report bytes and trace hash.
        self._warm_up.append(report_digest(self.run_op(self.ops[0])))

    def run_op(self, op):
        _, doc, _, sim_seed = op
        return scenario.run_scenario(doc, seed=sim_seed)

    def fingerprint(self, report):
        return report_digest(report)

    def check_result(self, i, report) -> None:
        oracles.check_mesh_report(report, self.ops[i][2])

    def check_run(self) -> None:
        if len(set(self._warm_up + self._first[:1])) != 1:
            raise CheckFailed("mesh: the first scenario's report differs between re-runs")


# -- loopback --------------------------------------------------------------

def free_port(kind: int) -> int:
    with socket.socket(socket.AF_INET, kind) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Loopback(Workload):
    """The asyncio backend on 127.0.0.1: one coordinator, two nodes,
    re-links alternating direct and relay-only, and 1 KiB echoes
    answered with the payload's SHA-256.

    Each round starts on fresh services in a fresh event loop.  bdmesh
    never drops a session (every re-link leaves one in each node and in
    the coordinator), so on shared services the tables, and the
    process's peak memory, would grow with the number of rounds the
    machine's speed allowed.  Fresh services make every round end with
    the same table sizes: one session per re-link of the round.  The
    loop goes too, because a closed node's keepalive timer stays
    scheduled and keeps the old agent alive.
    """

    name = "loopback"
    TIMEOUT_S = 5.0
    # Each pair: a direct re-link and its echoes, then a relay-only
    # re-link and its echo.
    DIRECT_ECHOES = 2
    RELAYED_ECHOES = 1
    PAIRS = 200

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        rng = random.Random(derive_seed("loopback", seed))
        for _ in range(1 if small else self.PAIRS):
            for relay in (False, True):
                self.ops.append(("relink_relay" if relay else "relink_direct", relay, None))
                kind = "echo_relayed" if relay else "echo_direct"
                for _ in range(self.RELAYED_ECHOES if relay else self.DIRECT_ECHOES):
                    self.ops.append((kind, relay, rng.randbytes(1024)))
        self.keys = [Identity.from_seed(hashlib.sha256(f"perfbench-loopback:{seed}:{n}".encode())
                                        .digest()) for n in ("a", "b")]
        self.loop = None
        self.server = None
        self.nodes: list = []
        self._used = False
        self._totals = dict.fromkeys(self.CUMULATIVE, 0)
        self._reply = None
        self._up: dict = {}
        self._both_up = None

    # -- services --

    def setup(self) -> None:
        self._open()
        self._used = True
        warm_up = self.ops[:2 + self.DIRECT_ECHOES + self.RELAYED_ECHOES]
        noop = lambda *args: None
        for i, result in enumerate(self.loop.run_until_complete(self._round(noop, noop, warm_up))):
            if isinstance(result, Failed):
                raise RuntimeError(f"loopback warm-up op {i} raised {result.exc!r}")
            self.check_result(i, result)

    def before_round(self) -> None:
        if self._used:
            self.teardown()
            # The old services hold reference cycles; free them now, not
            # at some later collection inside a timed round.
            gc.collect()
            self._open()
        self._used = True

    def _open(self) -> None:
        self.loop = asyncio.new_event_loop()
        for attempt in range(3):
            try:
                self.loop.run_until_complete(self._start())
                return
            except OSError:   # a free port was taken before the server bound it
                self.loop.run_until_complete(self._stop())
                if attempt == 2:
                    raise

    async def _start(self) -> None:
        tcp = free_port(socket.SOCK_STREAM)
        udp = (free_port(socket.SOCK_DGRAM), free_port(socket.SOCK_DGRAM))
        self.server = CoordinatorServer("127.0.0.1", tcp, observer_ports=udp)
        await self.server.start()
        for node_id, key in zip(("a", "b"), self.keys):
            node = NodeClient(f"127.0.0.1:{tcp}", node_id, identity=key, observer_ports=udp)
            if await node.start() != 0 or not await node.wait_ready(self.TIMEOUT_S):
                raise RuntimeError(f"loopback node {node_id} did not come up")
            self._watch(node.agent)
            self.nodes.append(node)

    def _watch(self, agent) -> None:
        prev = agent.on_event

        def on_event(ev: dict) -> None:
            prev(ev)
            if ev["event"] == "link_up":
                self._up[agent.node_id] = ev["path"]
                if len(self._up) == 2 and self._both_up is not None:
                    self._both_up.set()
        agent.on_event = on_event

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()
        self.loop = None

    async def _stop(self) -> None:
        for key, value in self._counters().items():
            self._totals[key] += value
        # Nodes first, and wait until the coordinator saw them go: closing
        # the server under live connections logs a CancelledError per
        # connection on Python 3.11.
        for node in self.nodes:
            await node.close()
            node.agent.primary.close()
        for _ in range(200):
            if all(r.channel is None for r in self.server.core.nodes.values()):
                break
            await asyncio.sleep(0.005)
        await self.server.close()
        self.nodes = []
        pending = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    # -- ops --

    def run_round(self, begin, end) -> list:
        return self.loop.run_until_complete(self._round(begin, end, self.ops))

    async def _round(self, begin, end, ops) -> list:
        results = []
        for i, (kind, relay, payload) in enumerate(ops):
            begin(i)
            t0 = perf_counter_ns()
            try:
                if payload is None:
                    result = await self._relink(relay)
                else:
                    result = await self._echo(payload)
            except Exception as exc:   # a failed op is counted, the run goes on
                result = Failed(exc)
            end(i, perf_counter_ns() - t0)
            results.append(result)
        return results

    async def _relink(self, relay: bool):
        a, b = (node.agent for node in self.nodes)
        for agent, peer in ((a, "b"), (b, "a")):
            if relay:
                agent.relay_only_peers.add(peer)
            else:
                agent.relay_only_peers.discard(peer)
        self._up = {}
        self._both_up = asyncio.Event()
        a.connect("b")
        await asyncio.wait_for(self._both_up.wait(), self.TIMEOUT_S)
        self._both_up = None
        la, lb = a.links["b"], b.links["a"]
        lb.on_payload = lambda data: lb.send(hashlib.sha256(data).digest())
        la.on_payload = self._on_reply
        return (la.path, lb.path, la.encrypted, lb.encrypted)

    def _on_reply(self, data: bytes) -> None:
        if self._reply is not None and not self._reply.done():
            self._reply.set_result(data)

    async def _echo(self, payload: bytes):
        link = self.nodes[0].agent.links["b"]
        self._reply = self.loop.create_future()
        link.send(payload)
        reply = await asyncio.wait_for(self._reply, self.TIMEOUT_S)
        return (reply, link.path, link.encrypted)

    def fingerprint(self, result):
        return None   # real sockets: checked on every round, not compared

    def check_op(self, i, result, first_round) -> None:
        super().check_op(i, result, first_round)
        if not first_round:
            self.check_result(i, result)

    def check_result(self, i, result) -> None:
        kind, relay, payload = self.ops[i]
        want = "relayed" if relay else "direct"
        if payload is None:
            if result != (want, want, True, True):
                raise CheckFailed(f"loopback {kind}: paths/encryption {result}, want {want}, encrypted")
            return
        reply, path, encrypted = result
        oracles.check_echo(f"loopback {kind} op {i}", payload, reply)
        if (path, encrypted) != (want, True):
            raise CheckFailed(f"loopback {kind} op {i}: echo rode a {path} link, encrypted={encrypted}")

    CUMULATIVE = ("coord.introductions", "coord.relayed_bytes", "agent.relay_fallbacks")

    def _counters(self) -> dict:
        core = self.server.core
        return {
            "coord.introductions": core.introductions,
            "coord.relayed_bytes": sum(s.relayed_bytes for s in core.sessions.values()),
            "agent.relay_fallbacks": sum(relay_fallbacks(n.agent) for n in self.nodes),
        }

    def held(self) -> dict:
        """Table sizes of the live services, and counters summed over
        every service this workload started."""
        if self.server is None:
            return {}
        live = self._counters()
        out = {key: self._totals[key] + live[key] for key in self.CUMULATIVE}
        out["coord.sessions"] = len(self.server.core.sessions)
        out["agent.sessions"] = sum(len(n.agent.sessions) for n in self.nodes)
        return out


# -- analyze ---------------------------------------------------------------

def probe_points(max_probes: int, step: int) -> list[int]:
    return sorted(set(range(0, max_probes + 1, step)) | {max_probes})


def parse_rows(what: str, text: str, header: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{what}: header {lines[:1]!r}, want {header!r}")
    return [line.split(",") for line in lines[1:]]


class Analyze(Workload):
    """Closed-form sizing: the analyze CLI, min_probes and success_probability."""

    name = "analyze"
    STRATA = 16          # min_probes and success_probability calls per round
    CLI_CALLS = 4        # of each of "analyze table" and "analyze curve"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        rng = random.Random(derive_seed("analyze", seed))
        n = self.STRATA

        def within(j: int, strata: int, lo: float, hi: float) -> float:
            """A seeded draw from stratum j of `strata` equal parts of [lo, hi)."""
            return lo + (hi - lo) * (j + rng.random()) / strata

        # Each query kind takes one draw per stratum of the parameter that
        # sets its cost, so every seed gets the same spread of costs.
        # Pinhole counts for min_probes are log-spaced over 1..4096, each
        # paired in a fixed order with a target stratum of 0.5..0.999.
        mins = [("min_probes", K_FULL, round(2 ** (12 * (j + 0.5) / n)),
                 round(within((j * 7) % n, n, 0.5, 0.999), 6)) for j in range(n)]
        succ = []
        for j in range(n):
            k = K_FULL if j % 2 == 0 else rng.randrange(3072, 4097)
            loss = 0.0 if j % 4 < 2 else round(rng.uniform(0.01, 0.2), 4)
            succ.append(("success_probability", k, rng.randrange(1, 513),
                         int(within(j, n, 100, 3001)), loss))
        tables, curves = [], []
        for j in range(self.CLI_CALLS):
            durations = [int(within(i, 6, 1, 31)) for i in range(6)]
            tables.append(("analyze_table", ["analyze", "table",
                                             "--open-ports", str(rng.randrange(16, 1025)),
                                             "--rate", str((50, 100, 200, 400)[j % 4]),
                                             "--durations", ",".join(map(str, durations))]))
            bl = [int(within(0, 1, lo, hi)) for lo, hi in ((64, 128), (128, 512), (512, 1025))]
            curves.append(("analyze_curve", ["analyze", "curve",
                                             "--open-ports-list", ",".join(map(str, bl)),
                                             "--max-probes", str(int(within(j, self.CLI_CALLS,
                                                                            1000, 3001))),
                                             "--step", str((25, 50, 100, 50)[j % 4])]))
        if small:
            mins, succ, tables, curves = mins[:2], succ[:2], tables[:1], curves[:1]
        per = len(tables)
        for j in range(per):
            self.ops.append(tables[j])
            self.ops.extend(succ[j * len(succ) // per:(j + 1) * len(succ) // per])
            self.ops.append(curves[j])
            self.ops.extend(mins[j * len(mins) // per:(j + 1) * len(mins) // per])

    def setup(self) -> None:
        for kind in ("analyze_table", "analyze_curve"):
            op = next(op for op in self.ops if op[0] == kind)
            self.run_op(op)

    def run_op(self, op):
        kind = op[0]
        if kind == "min_probes":
            return probability.min_probes(op[1], op[2], op[3])
        if kind == "success_probability":
            _, k, b, a, loss = op
            return probability.success_probability(k, b, a, delivery_rate=(1.0 - loss) ** 2)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op[1])
        return code, out.getvalue(), err.getvalue()

    def check_result(self, i, result) -> None:
        op = self.ops[i]
        kind = op[0]
        if kind == "min_probes":
            oracles.check_min_probes(op[1], op[2], op[3], result)
        elif kind == "success_probability":
            _, k, b, a, loss = op
            want = (oracles.lossy_hit_probability(k, b, a, loss) if loss
                    else oracles.hit_probability(k, b, a))
            oracles.check_close(f"success_probability({k}, {b}, {a}, loss={loss})", result, want)
        else:
            code, out, err = result
            if code != 0:
                raise CheckFailed(f"bdmesh {' '.join(op[1])} exited {code}: {err.strip()}")
            if kind == "analyze_table":
                self._check_table(op[1], out)
            else:
                self._check_curve(op[1], out)

    @staticmethod
    def _check_table(argv, out) -> None:
        b, rate = int(argv[3]), Fraction(argv[5])
        durations = argv[7].split(",")
        rows = parse_rows("analyze table", out, "seconds,probes,probability,failure")
        if len(rows) != len(durations):
            raise CheckFailed(f"analyze table: {len(rows)} rows for {len(durations)} durations")
        last = -1.0
        for row, seconds in zip(rows, durations):
            probes = math.floor(rate * Fraction(seconds))
            want = oracles.hit_probability(K_FULL, b, probes)
            if row[:2] != [seconds, str(probes)]:
                raise CheckFailed(f"analyze table row {row}: want {seconds},{probes}")
            p, fail = float(row[2]), float(row[3])
            oracles.check_close(f"analyze table row {row}", p, want, tol=5e-8 + oracles.PROB_TOL)
            oracles.check_close(f"analyze table row {row}", fail, 1.0 - want,
                                tol=5e-8 + oracles.PROB_TOL)
            if p < last:
                raise CheckFailed(f"analyze table: probability falls at row {row}")
            last = p

    @staticmethod
    def _check_curve(argv, out) -> None:
        bl = [int(x) for x in argv[3].split(",")]
        max_probes, step = int(argv[5]), int(argv[7])
        points = probe_points(max_probes, step)
        rows = parse_rows("analyze curve", out, "open_ports,probes,probability")
        want_rows = [(b, a) for b in bl for a in points]
        if [(int(r[0]), int(r[1])) for r in rows] != want_rows:
            raise CheckFailed("analyze curve: rows are not one per (open ports, probe point)")
        last = {}
        for row in rows:
            b, a, p = int(row[0]), int(row[1]), float(row[2])
            oracles.check_close(f"analyze curve row {row}", p, oracles.hit_probability(K_FULL, b, a),
                                tol=5e-8 + oracles.PROB_TOL)
            if p < last.get(b, 0.0):
                raise CheckFailed(f"analyze curve: probability falls at row {row}")
            last[b] = p


WORKLOADS = {w.name: w for w in (Punch, Mesh, Loopback, Analyze)}
