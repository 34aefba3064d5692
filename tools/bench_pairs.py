"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload analyze \
        --seeds 1-10 --out BENCH_analyze_kernels.json
    python3 tools/bench_pairs.py --parent ../parent --change . --workload mesh_scale \
        --seeds 1-3 --sizes 8,16,24 --out BENCH_world_lifetime.json
    python3 tools/bench_pairs.py --parent ../parent --change . --workload startup \
        --seeds 1-10 --out BENCH_startup.json

Each seed is one pair: the workload runs once in each checkout, one
after the other, and the side that runs first alternates from pair to
pair, so a slow spell of the machine falls on both sides alike.  Every
process starts in its checkout with PYTHONPATH=<checkout>/src.  The
workload is one of:

- a perfbench workload of BENCHMARK.json: one perfbench/run.py run of
  --seconds (default: the benchmark's run_seconds) with --trace.  Its
  result line gives the end-to-end metrics (the per-layer ones with
  --trace 1), and the detail file it leaves in <checkout>/perfbench/out
  adds the median time of each kind of operation as kind.<kind>, such
  as loopback's kind.relink_direct and kind.relink_relay, the link-up
  times.
- mesh_scale: for each of --sizes N, three full meshes built by
  mesh_doc from the pair's seed: no hard NAT, N/4 hosts behind hard
  NATs, and N/4 hard with every easy NAT filtering by address and port
  (APDF), so every hard x easy pair runs the birthday punch.  Each
  runs in a fresh process, so its peak RSS is that scenario's alone
  (plus the interpreter and the imports); each row records the CPU
  seconds of run_scenario and the peak RSS.  Every report must be ok.
- startup: the wall time of a fresh `python -m bdmesh.cli analyze
  table` and of `python -c "import bdmesh.scenario"`.  When
  PYTHONDONTWRITEBYTECODE is set, which the record notes, no run finds
  compiled bytecode and every run compiles src/ again.

mesh_scale's report digests and startup's outputs (stdout, stderr and
exit code) must be the same on both sides of every pair.  Each metric
gets each side's median and quartiles, the change's median over the
parent's and, untraced, the number of pairs the change won by the
metric's better direction.  The runs of one
invocation are stored under the workload and the label (--label,
default "seeds <seeds>" and the workload's setting) in --out, which
gathers every invocation along with the CPU count, the Python version
and the commands that produced it.  Stdout gets one summary line per
metric: both sides' median [q1, q3], their ratio and the pairs the
change won.  Exits 1 when a run fails or is not correct, or when the
two sides' outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from steady import seeds_arg, spec  # noqa: E402

RUN_FIELDS = ("seed", "correct", "attempted", "failed", "digest")
STARTUP = {
    "analyze_table": ["-m", "bdmesh.cli", "analyze", "table"],
    "import_scenario": ["-c", "import bdmesh.scenario"],
}

# Runs one scenario read from stdin; prints CPU seconds, peak RSS and the report digest.
MESH_CHILD = """
import hashlib, json, resource, sys, time
from bdmesh.scenario import run_scenario
doc = json.load(sys.stdin)
t0 = time.process_time()
report = run_scenario(doc, seed=doc["experiment"]["seed"])
cpu_s = time.process_time() - t0
print(json.dumps({
    "cpu_s": cpu_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "ok": report["ok"],
    "report_sha256": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
}))
"""


def mesh_doc(n: int, hard: int, seed: int, apdf: bool = False) -> dict:
    """A full mesh of n nodes, `hard` of them behind hard NATs, with
    seeded link latencies and the hard hosts at seeded places.  Every
    other host is public or, alternately, behind an easy NAT that
    filters nothing or, with apdf, by address and port."""
    rng = random.Random(f"mesh-scale:{n}:{hard}:{seed}")
    hard_ids = set(rng.sample(range(n), hard))
    easy_filtering = "address_and_port_dependent" if apdf else "endpoint_independent"
    hosts, nats, links = [], [], []
    for i in range(n):
        host = {"id": f"n{i}"}
        if i in hard_ids:
            nats.append({"id": f"nat{i}", "mapping": "endpoint_dependent",
                         "filtering": "address_and_port_dependent"})
            host["nat"] = f"nat{i}"
        elif i % 2:
            nats.append({"id": f"nat{i}", "mapping": "endpoint_independent",
                         "filtering": easy_filtering})
            host["nat"] = f"nat{i}"
        hosts.append(host)
        links.append({"host": f"n{i}", "latency_us": rng.randrange(500, 5001),
                      "jitter_us": rng.randrange(0, 1001)})
    return {"hosts": hosts, "nats": nats, "links": links,
            "scheme": {"G": 0, "P": 1, "theta": 1},
            "experiment": {"trials": 1, "seed": seed}}


def run_in(checkout: str, args: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    """A fresh interpreter running args in checkout, on that checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env, input=stdin,
                          capture_output=True, text=True, check=False)


def last_json(checkout: str, args: list[str], stdin: str = "") -> dict:
    done = run_in(checkout, args, stdin)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {shlex.join(args)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def lower(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit, "better": "lower"}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run: its result line, with each kind of
    operation's median time from the run's detail file."""
    result = last_json(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)])
    detail = os.path.join(checkout, "perfbench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail, encoding="utf-8") as fh:
        kinds = json.load(fh)["kind_ms_median"]
    result["metrics"].update({f"kind.{k}": lower(ms, "ms") for k, ms in sorted(kinds.items())})
    return result


def mesh_scale_once(checkout: str, seed: int, sizes: list[int]) -> dict:
    metrics, digest, failed = {}, {}, 0
    for n in sizes:
        for hard, apdf in ((0, False), (n // 4, False), (n // 4, True)):
            row = f"n{n}_hard{hard}" + ("_apdf" if apdf else "")
            out = last_json(checkout, ["-c", MESH_CHILD],
                            json.dumps(mesh_doc(n, hard, seed, apdf)))
            failed += not out["ok"]
            digest[row] = out["report_sha256"]
            metrics[f"{row}.cpu_s"] = lower(out["cpu_s"], "s")
            metrics[f"{row}.peak_rss_mb"] = lower(out["peak_rss_mb"], "MB")
    return {"correct": not failed, "attempted": len(digest), "failed": failed,
            "metrics": metrics, "digest": digest}


def startup_once(checkout: str) -> dict:
    metrics, digest, failed = {}, {}, 0
    for name, args in STARTUP.items():
        t0 = time.perf_counter()
        done = run_in(checkout, args)
        metrics[name] = lower((time.perf_counter() - t0) * 1e3, "ms")
        failed += done.returncode != 0
        output = json.dumps([done.returncode, done.stdout, done.stderr])
        digest[name] = hashlib.sha256(output.encode()).hexdigest()
    return {"correct": not failed, "attempted": len(STARTUP), "failed": failed,
            "metrics": metrics, "digest": digest}


def workload_plan(args) -> tuple:
    """How one side of a pair runs, what the record notes about the
    runs and how the default label ends."""
    if args.workload == "mesh_scale":
        sizes = [int(n) for n in args.sizes.split(",")]
        return (lambda checkout, seed: mesh_scale_once(checkout, seed, sizes),
                {"sizes": args.sizes}, f", sizes {args.sizes}")
    if args.workload == "startup":
        return (lambda checkout, seed: startup_once(checkout),
                {"pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
                 "timed_commands": {k: shlex.join(["python3", *v]) for k, v in STARTUP.items()}},
                "")
    return (lambda checkout, seed: run_once(checkout, args.workload, seed, args.seconds,
                                            args.trace),
            {"seconds": args.seconds, "trace": args.trace}, f", trace {args.trace}")


def summary(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles needs two; one run is its own spread
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def open_record(path: str, tool: str, argv) -> dict:
    """The BENCH_*.json at path (empty if new), stamped with this machine's
    CPU count and Python version and with the command being run."""
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.update({"cpu_count": os.cpu_count(), "python": platform.python_version()})
    argv = sys.argv[1:] if argv is None else argv
    doc.setdefault("commands", []).append(shlex.join(["python3", tool, *argv]))
    return doc


def write_record(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def summary_line(name: str, entry: dict) -> str:
    """One metric of one invocation: each side's median [q1, q3], the
    change's median over the parent's and, untraced, the pairs it won."""
    p, c = entry["parent"], entry["change"]
    line = (f"{name} ({entry['unit']}): parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  ratio {entry['ratio']:.3f}")
    if "change_wins" in entry:
        line += f"  wins {entry['change_wins']}/{entry['pairs']}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="a perfbench workload, mesh_scale or startup")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", default="8,16,24", help="mesh_scale's node counts")
    parser.add_argument("--label", help="key of these runs under the workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    measure, settings, label_end = workload_plan(args)
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds_arg(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = measure(sides[side], seed)
            result["seed"] = seed
            runs[side].append(result)
            print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)

    better = {m["name"]: m["better"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    metrics = {}
    for name, meta in runs["parent"][0]["metrics"].items():
        sides_values = {side: [r["metrics"][name]["value"] for r in rs]
                        for side, rs in runs.items()}
        entry = {"unit": meta["unit"], "better": meta.get("better") or better.get(name)}
        entry.update({side: summary(v) for side, v in sides_values.items()})
        p, c = entry["parent"]["median"], entry["change"]["median"]
        entry["ratio"] = c / p if p else float("nan")
        if args.trace == 0 and entry["better"]:
            sign = 1 if entry["better"] == "higher" else -1
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in
                                       zip(sides_values["parent"], sides_values["change"]))
            entry["pairs"] = len(sides_values["parent"])
        metrics[name] = entry
    differ = [p["seed"] for p, c in zip(runs["parent"], runs["change"])
              if p.get("digest") != c.get("digest")]

    doc = open_record(args.out, "tools/bench_pairs.py", argv)
    label = args.label or f"seeds {args.seeds}{label_end}"
    record = {**settings, "metrics": metrics}
    if "digest" in runs["parent"][0]:
        record["same_output"] = not differ
    record["runs"] = {side: [{k: r[k] for k in RUN_FIELDS if k in r}
                             | {"metrics": {k: m["value"] for k, m in r["metrics"].items()}}
                             for r in rs] for side, rs in runs.items()}
    doc.setdefault("workloads", {}).setdefault(args.workload, {})[label] = record
    write_record(args.out, doc)
    for name, entry in metrics.items():
        print(summary_line(name, entry))
    if differ:
        print(f"outputs differ between the sides at seeds {differ}")
    bad = [r for rs in runs.values() for r in rs if not r["correct"] or r["failed"]]
    return 1 if bad or differ else 0


if __name__ == "__main__":
    sys.exit(main())
