"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload analyze \
        --seeds 1-10 --seconds 20 --trace 0 --out BENCH_analyze_kernels.json

Each seed is one pair: perfbench/run.py runs once in each checkout, one
after the other, and the side that runs first alternates from pair to
pair, so a slow spell of the machine falls on both sides alike.  The
result line of every run is kept, and each end-to-end metric (each
per-layer metric with --trace 1) gets its median and quartiles per side
and, untraced, the number of pairs the change won.  The runs of one
invocation are stored under the workload and the label (--label,
default "seeds <seeds>, trace <t>") in --out, which gathers every
invocation along with the CPU count, the Python version and the
commands that produced it.  Stdout gets one summary line per metric:
both sides' median [q1, q3], their ratio and the pairs the change won.
Exits 1 when a run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from steady import seeds_arg, spec  # noqa: E402


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {shlex.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


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
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    line = (f"{name} ({entry['unit']}): parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  ratio {ratio:.3f}")
    if "change_wins" in entry:
        line += f"  wins {entry['change_wins']}/{entry['pairs']}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="key of these runs under the workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds_arg(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
            result["seed"] = seed
            runs[side].append(result)
            print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)

    better = {m["name"]: m["better"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        sides_values = {side: [r["metrics"][name]["value"] for r in rs]
                        for side, rs in runs.items()}
        entry = {"unit": runs["parent"][0]["metrics"][name]["unit"],
                 "better": better.get(name)}
        entry.update({side: summary(v) for side, v in sides_values.items()})
        if args.trace == 0 and entry["better"]:
            sign = 1 if entry["better"] == "higher" else -1
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in
                                       zip(sides_values["parent"], sides_values["change"]))
            entry["pairs"] = len(sides_values["parent"])
        metrics[name] = entry

    doc = open_record(args.out, "tools/bench_pairs.py", argv)
    label = args.label or f"seeds {args.seeds}, trace {args.trace}"
    doc.setdefault("workloads", {}).setdefault(args.workload, {})[label] = {
        "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
        "runs": {side: [{"seed": r["seed"], "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "metrics": {k: m["value"] for k, m in r["metrics"].items()}}
                        for r in rs] for side, rs in runs.items()}}
    write_record(args.out, doc)
    for name, entry in metrics.items():
        print(summary_line(name, entry))
    bad = [r for rs in runs.values() for r in rs if not r["correct"] or r["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
