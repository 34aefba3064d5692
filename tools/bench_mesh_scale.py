"""Full-mesh scale: CPU time and peak RSS of one scenario run per size.

    python3 tools/bench_mesh_scale.py --parent ../parent --change . \
        --sizes 8,16,24 --repeats 3 --out BENCH_world_lifetime.json

For each size N there are two full meshes of N nodes: one with no hard
NAT (public hosts and easy NATs, alternating) and one where N/4 of the
hosts sit behind hard NATs (endpoint-dependent mapping,
address-and-port-dependent filtering).  Every run of one scenario is a
fresh process started in a checkout with PYTHONPATH=src, so its peak
RSS is that scenario's alone (plus the interpreter and the imports).
Parent and change alternate, and which side runs first alternates from
repeat to repeat.  A run records the CPU time of run_scenario, the
process's peak RSS and the report's digest.  Each row's "ok" says
that every run's report was ok, and "same_report" that both sides
produced the same report.  The runs, the medians per side and their
ratio go under "mesh_scale" and the label "seed <seed>, repeats
<repeats>" in --out, next to whatever else the file holds, along with
the CPU count, the Python version and the command.  Exits 1 when a run
fails, a report is not ok, or the two sides' reports differ.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

from bench_pairs import open_record, write_record

# Runs one scenario read from stdin; prints CPU seconds, peak RSS and the report digest.
CHILD = """
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


def mesh_doc(n: int, hard: int, seed: int) -> dict:
    """A full mesh of n nodes, `hard` of them behind hard NATs, with
    seeded link latencies and the hard hosts at seeded places."""
    rng = random.Random(f"mesh-scale:{n}:{hard}:{seed}")
    hard_ids = set(rng.sample(range(n), hard))
    hosts, nats, links = [], [], []
    for i in range(n):
        host = {"id": f"n{i}"}
        if i in hard_ids:
            nats.append({"id": f"nat{i}", "mapping": "endpoint_dependent",
                         "filtering": "address_and_port_dependent"})
            host["nat"] = f"nat{i}"
        elif i % 2:
            nats.append({"id": f"nat{i}", "mapping": "endpoint_independent",
                         "filtering": "endpoint_independent"})
            host["nat"] = f"nat{i}"
        hosts.append(host)
        links.append({"host": f"n{i}", "latency_us": rng.randrange(500, 5001),
                      "jitter_us": rng.randrange(0, 1001)})
    return {"hosts": hosts, "nats": nats, "links": links,
            "scheme": {"G": 0, "P": 1, "theta": 1},
            "experiment": {"trials": 1, "seed": seed}}


def run_once(checkout: str, doc: dict) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout, env=env,
                          input=json.dumps(doc), capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: scenario run exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--sizes", default="8,16,24", help="comma-separated node counts")
    parser.add_argument("--repeats", type=int, default=3, help="runs per side and scenario")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    rows, bad = [], False
    for n in (int(x) for x in args.sizes.split(",")):
        for hard in (0, n // 4):
            doc = mesh_doc(n, hard, args.seed)
            runs = {"parent": [], "change": []}
            for r in range(args.repeats):
                order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], doc))
            same = len({run["report_sha256"] for rs in runs.values() for run in rs}) == 1
            ok = all(run["ok"] for rs in runs.values() for run in rs)
            bad |= not (ok and same)
            row = {"nodes": n, "hard": hard, "same_report": same, "ok": ok}
            for key in ("cpu_s", "peak_rss_mb"):
                med = {side: statistics.median(run[key] for run in rs) for side, rs in runs.items()}
                row[key] = {**med, "ratio": med["change"] / med["parent"],
                            "runs": {side: [run[key] for run in rs] for side, rs in runs.items()}}
            rows.append(row)
            print(f"N={n} hard={hard}: cpu_s {row['cpu_s']['parent']:.3f} -> "
                  f"{row['cpu_s']['change']:.3f}  peak_rss_mb {row['peak_rss_mb']['parent']:.1f}"
                  f" -> {row['peak_rss_mb']['change']:.1f}  ok={ok} same_report={same}")

    doc = open_record(args.out, "tools/bench_mesh_scale.py", argv)
    label = f"seed {args.seed}, repeats {args.repeats}"
    doc.setdefault("mesh_scale", {})[label] = {"sizes": args.sizes, "rows": rows}
    write_record(args.out, doc)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
