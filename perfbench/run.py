"""One benchmark run of one bdmesh workload.

    python3 perfbench/run.py --workload punch --seed 1 --seconds 20 --trace 0

Run from the root of a bdmesh checkout; the program is imported from
its src/ directory.  The run sets up (three times, keeping the last),
then repeats whole rounds of the workload's seeded operations until
--seconds have been measured and at least MIN_OPS operations ran,
checks every result, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run (see tracer.py).  Details of the run
(per-kind timings, calibration loop, tracing cost) go to
perfbench/out/<workload>-seed<seed>-trace<t>.json, and a traced run
also writes its spans there.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from tracer import Stats, Tracer, install  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 3
MIN_OPS = 100
CALIBRATION_N = 300_000


def calibrate_ms() -> float:
    """A fixed pure-Python loop: how fast this machine is right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def timed_s(rounds: list[tuple[int, int]]) -> float:
    return sum(ns for _, ns in rounds) / 1e9


def measure(wl, seconds: float, min_ops: int, tracer=None):
    """Whole rounds until `seconds` of them and `min_ops` ops; returns
    (stats, per-op ns, per-round (ops, wall ns), failed ops, failure messages)."""
    st = tracer.stats if tracer is not None else Stats()
    times: list[int] = []

    def begin(i: int) -> None:
        if tracer is not None:
            tracer.begin_op(i)

    def end(i: int, ns: int) -> None:
        if tracer is not None:
            tracer.end_op()
        times.append(ns)
        st.kind_ns[wl.kind(i)].append(ns)

    rounds: list[tuple[int, int]] = []
    failed = 0
    errors: list[str] = []
    first = True
    while True:
        wl.before_round()
        cpu0 = time.process_time()
        t0 = time.perf_counter_ns()
        results = wl.run_round(begin, end)
        rounds.append((len(results), time.perf_counter_ns() - t0))
        st.cpu_s += time.process_time() - cpu0
        for i, result in enumerate(results):
            try:
                wl.check_op(i, result, first)
            except AssertionError as exc:
                failed += 1
                errors.append(str(exc))
        first = False
        if timed_s(rounds) >= seconds and len(times) >= min_ops:
            break
    st.ops = len(times)
    return st, times, rounds, failed, errors


def end_to_end(times: list[int], rounds: list, setup_s: float) -> dict:
    ms = [t / 1e6 for t in times]
    return {
        "ops_per_s": (len(times) / timed_s(rounds), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# -- per-layer metrics ---------------------------------------------------------

def _self(span: str, scale: float):
    return lambda s: s.self_ns[span] / s.calls[span] / scale if s.calls[span] else 0.0


def _per_op(get):
    return lambda s: get(s) / s.ops if s.ops else 0.0


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


def _median(kinds: tuple, scale: float):
    def get(s):
        ns = [t for k in kinds for t in s.kind_ns.get(k, ())]
        return statistics.median(ns) / scale if ns else 0.0
    return get


def _calls(span):
    return lambda s: s.calls[span]


def _count(key):
    return lambda s: s.counts[key]


US, MS = 1e3, 1e6
_HANDSHAKE = ("securelink.message1", "securelink.consume_message1", "securelink.consume_message2")
_EVENTS = ("netsim.run_until", "netsim.run_for")

# name: (unit, home workload, source, value).  A traced run takes each
# metric from its own workload when that workload reached `source`
# (a span or a count); otherwise from a short pass of the home workload.
PER_LAYER = {
    "probability.min_probes_us": ("us", "analyze", "probability.min_probes",
                                  _self("probability.min_probes", US)),
    "probability.success_probability_us": ("us", "analyze", "probability.success_probability",
                                           _self("probability.success_probability", US)),
    "probability.curve_us": ("us", "analyze", "probability.probability_curve",
                             _self("probability.probability_curve", US)),
    "probability.ports_drawn": ("count/op", "punch", "ports_drawn", _per_op(_count("ports_drawn"))),
    "probability.port_draw_us": ("us", "punch", "probability.port_draw",
                                 _self("probability.port_draw", US)),
    "netsim.events": ("count/op", "punch", "events", _per_op(_count("events"))),
    "netsim.event_us": ("us", "punch", "events", lambda s: sum(
        s.self_ns[n] for n in _EVENTS) / s.counts["events"] / US if s.counts["events"] else 0.0),
    "netsim.datagrams_sent": ("count/op", "punch", "net.sent", _per_op(_count("net.sent"))),
    "netsim.datagrams_delivered": ("count/op", "punch", "net.sent",
                                   _per_op(_count("net.delivered"))),
    "netsim.datagrams_dropped": ("count/op", "punch", "net.sent", _per_op(_count("net.dropped"))),
    "netsim.delivered_per_sent": ("ratio", "punch", "net.sent",
                                  _ratio(_count("net.delivered"), _count("net.sent"))),
    "netsim.socket_send_us": ("us", "punch", "netsim.socket_send", _self("netsim.socket_send", US)),
    "netsim.nat_outbound_us": ("us", "punch", "netsim.nat_outbound",
                               _self("netsim.nat_outbound", US)),
    "netsim.nat_inbound_us": ("us", "punch", "netsim.nat_inbound", _self("netsim.nat_inbound", US)),
    "netsim.bind_us": ("us", "punch", "netsim.bind", _self("netsim.bind", US)),
    "netsim.trace_entries": ("count/op", "mesh", "netsim.trace_add",
                             _per_op(_calls("netsim.trace_add"))),
    "netsim.trace_add_us": ("us", "mesh", "netsim.trace_add", _self("netsim.trace_add", US)),
    "netsim.trace_digest_ms": ("ms", "mesh", "netsim.trace_digest", _self("netsim.trace_digest", MS)),
    "netsim.ctrl_lines": ("count/op", "mesh", "netsim.ctrl_send", _per_op(_calls("netsim.ctrl_send"))),
    "netsim.ctrl_send_us": ("us", "mesh", "netsim.ctrl_send", _self("netsim.ctrl_send", US)),
    "traversal.probes": ("count/op", "punch", "prober.probes", _per_op(_count("prober.probes"))),
    "traversal.probes_per_hit": ("probes/hit", "punch", "prober.probes",
                                 _ratio(_count("prober.probes"), _count("prober.hits"))),
    "traversal.opener_start_ms": ("ms", "punch", "traversal.opener_start",
                                  _self("traversal.opener_start", MS)),
    "traversal.prober_datagram_us": ("us", "punch", "traversal.prober_datagram",
                                     _self("traversal.prober_datagram", US)),
    "traversal.parse_probe_us": ("us", "punch", "traversal.parse_probe",
                                 _self("traversal.parse_probe", US)),
    "montecarlo.trial_self_ms": ("ms", "punch", "montecarlo.run_punch_trial",
                                 _self("montecarlo.run_punch_trial", MS)),
    "rendezvous.messages": ("count/op", "mesh", "rendezvous.handle",
                            _per_op(_calls("rendezvous.handle"))),
    "rendezvous.handle_us": ("us", "mesh", "rendezvous.handle", _self("rendezvous.handle", US)),
    "rendezvous.introductions": ("count/op", "mesh", "rendezvous.handle",
                                 _per_op(_count("coord.introductions"))),
    "rendezvous.relayed_bytes": ("count/op", "mesh", "rendezvous.handle",
                                 _per_op(_count("coord.relayed_bytes"))),
    "rendezvous.sessions_held": ("count", "loopback", "rendezvous.handle",
                                 lambda s: s.held.get("coord.sessions", 0)),
    "securelink.handshakes": ("count/op", "loopback", "securelink.consume_message2",
                              _per_op(_calls("securelink.consume_message2"))),
    "securelink.handshake_ms": ("ms", "loopback", "securelink.consume_message2", lambda s: sum(
        s.self_ns[n] for n in _HANDSHAKE) / s.calls[_HANDSHAKE[2]] / MS
        if s.calls[_HANDSHAKE[2]] else 0.0),
    "securelink.frames": ("count/op", "loopback", "securelink.seal",
                          _per_op(_calls("securelink.seal"))),
    "securelink.seal_us": ("us", "loopback", "securelink.seal", _self("securelink.seal", US)),
    "securelink.open_us": ("us", "loopback", "securelink.open", _self("securelink.open", US)),
    "agent.links_up": ("count/op", "mesh", "agent.link_up", _per_op(_calls("agent.link_up"))),
    "agent.relay_fallbacks": ("count/op", "mesh", "agent.link_up",
                              _per_op(_count("agent.relay_fallbacks"))),
    "agent.link_send_us": ("us", "loopback", "agent.link_send", _self("agent.link_send", US)),
    "agent.sessions_held": ("count", "loopback", "agent.link_up",
                            lambda s: s.held.get("agent.sessions", 0)),
    "meshplan.links": ("count/op", "mesh", "plan.links", _per_op(_count("plan.links"))),
    "meshplan.plan_us": ("us", "mesh", "meshplan.plan_links", _self("meshplan.plan_links", US)),
    "meshplan.realize_ms": ("ms", "mesh", "meshplan.realize_plan",
                            _self("meshplan.realize_plan", MS)),
    "scenario.validate_ms": ("ms", "mesh", "scenario.validate_scenario",
                             _self("scenario.validate_scenario", MS)),
    "scenario.build_ms": ("ms", "mesh", "scenario.build_world", _self("scenario.build_world", MS)),
    "scenario.report_ms": ("ms", "mesh", "scenario.run_scenario", _self("scenario.run_scenario", MS)),
    "realbackend.udp_send_us": ("us", "loopback", "realbackend.udp_send",
                                _self("realbackend.udp_send", US)),
    "realbackend.tcp_lines": ("count/op", "loopback", "realbackend.tcp_send",
                              _per_op(_calls("realbackend.tcp_send"))),
    "realbackend.tcp_send_us": ("us", "loopback", "realbackend.tcp_send",
                                _self("realbackend.tcp_send", US)),
    "realbackend.link_up_ms": ("ms", "loopback", "realbackend.tcp_send",
                               _median(("relink_direct", "relink_relay"), MS)),
    "realbackend.echo_direct_us": ("us", "loopback", "realbackend.tcp_send",
                                   _median(("echo_direct",), US)),
    "realbackend.echo_relayed_us": ("us", "loopback", "realbackend.tcp_send",
                                    _median(("echo_relayed",), US)),
    "cli.analyze_ms": ("ms", "analyze", "cli.main", _self("cli.main", MS)),
    "process.cpu_ms_per_op": ("ms", None, None, _per_op(lambda s: s.cpu_s * 1e3)),
}


def reached(st, source) -> bool:
    return source is None or st.calls.get(source, 0) > 0 or st.counts.get(source, 0) > 0


def per_layer(main_name: str, phases: dict) -> tuple[dict, dict]:
    """Every per-layer metric, and the phase each was taken from."""
    metrics, taken_from = {}, {}
    for name, (unit, home, source, value) in PER_LAYER.items():
        phase = main_name if reached(phases[main_name], source) else home
        metrics[name] = (value(phases[phase]), unit)
        taken_from[name] = phase
    return metrics, taken_from


# -- the run ---------------------------------------------------------------------

def setup(cls, seed: int):
    """Set up SETUP_REPS times and keep the last; returns (workload, seconds each)."""
    times, wl = [], None
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.teardown()
        t0 = time.perf_counter()
        wl = cls(seed)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, times


def coverage(tracer, all_workloads: dict, main_name: str, seed: int) -> dict:
    """One short round of every other workload under the tracer, each
    in its own Stats, for the layers the main workload never reaches."""
    phases = {}
    for name, cls in all_workloads.items():
        if name == main_name:
            continue
        tracer.recording = False
        wl = cls(seed, small=True)
        wl.setup()
        tracer.stats = phases[name] = Stats()
        tracer.recording = True
        measure(wl, 0, 0, tracer)
        tracer.recording = False
        phases[name].held = wl.held() or phases[name].held
        wl.teardown()
    return phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bdmesh", "__init__.py")):
        print(f"error: no bdmesh source under {SRC}; run from a bdmesh checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import_s = time.perf_counter() - _T0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    calibration = [calibrate_ms()]

    wl, setup_times = setup(cls, args.seed)
    setup_s = import_s + statistics.median(setup_times)
    gc.collect()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        tracer.recording = True
    held0 = wl.held()
    st, times, rounds, failed, errors = measure(wl, args.seconds, MIN_OPS, tracer)
    held1 = wl.held()
    correct = True
    try:
        wl.check_run()
    except AssertionError as exc:
        correct = False
        errors.append(f"run check: {exc}")
    if held1:
        st.held = held1
        for key in workloads.Loopback.CUMULATIVE:
            st.counts[key] += held1[key] - held0[key]
    wl.teardown()

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": len(times), "rounds": len(rounds),
              "timed_s": timed_s(rounds), "import_s": import_s,
              "setup_reps_s": setup_times, "ops_per_s": len(times) / timed_s(rounds),
              "round_ops_per_s": [n / (ns / 1e9) for n, ns in rounds][:50],
              "kind_ms_median": {k: statistics.median(v) / 1e6 for k, v in st.kind_ns.items()},
              "errors": errors[:20], "op_ns": times}
    os.makedirs(OUT_DIR, exist_ok=True)
    if tracer is None:
        metrics = end_to_end(times, rounds, setup_s)
    else:
        phases = {args.workload: st}
        phases.update(coverage(tracer, workloads.WORKLOADS, args.workload, args.seed))
        tracer.uninstall()
        metrics, detail["taken_from"] = per_layer(args.workload, phases)
        tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"))
        detail["spans"] = {"total": tracer._next, "written": len(tracer.spans) // 6}
    calibration.append(calibrate_ms())
    detail["calibration_ms"] = calibration

    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in errors[:5]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
