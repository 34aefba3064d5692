"""Is the benchmark steady?  Repeat runs of one workload and compare sets.

    python3 perfbench/steady.py run --workload punch --seeds 1-10 --out perfbench/out/a.json
    python3 perfbench/steady.py compare perfbench/out/a.json perfbench/out/b.json

`run` makes one run.py run per seed, one after another, and prints each
metric's median, quartiles and spread (quartile distance over median)
against the bound in BENCHMARK.json, the share of failed operations,
and each run's calibration loop at its start and end: a run taken
during a slow spell of the machine shows there.  `compare` checks two
such sets as the bounds demand: every spread but setup_s's within its
bound, no median worse by more than its bound, the same failed share.
It exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cmd_run(args) -> int:
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        side = os.path.join(HERE, "out", f"{args.workload}-seed{seed}-trace{args.trace}.json")
        with open(side, encoding="utf-8") as fh:
            result["calibration_ms"] = json.load(fh)["calibration_ms"]
        result["seed"] = seed
        runs.append(result)
        cal = ", ".join(f"{c:.1f}" for c in result["calibration_ms"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} calibration_ms=[{cal}]", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "runs": runs}, fh, indent=1)
    report(runs, bench)
    return 0


def report(runs: list[dict], bench: dict) -> bool:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    print(f"{'metric':<24}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for name in runs[0]["metrics"]:
        q1, med, q3 = summary([r["metrics"][name]["value"] for r in runs])
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, ok = "  > bound", False
        print(f"{name:<24}{q1:>12.5g}{med:>12.5g}{q3:>12.5g}{spread:>9.3f}"
              f"{bound if bound is not None else '-':>7}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}  correct: {all(r['correct'] for r in runs)}")
    return ok and len(shares) == 1 and all(r["correct"] for r in runs)


def cmd_compare(args) -> int:
    bench = spec()
    sets = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh)["runs"])
    ok = True
    for label, runs in zip(("first", "second"), sets):
        print(f"-- {label} set")
        ok = report(runs, bench) and ok
    print("-- second median against first")
    for m in bench["end_to_end"]:
        name = m["name"]
        a = statistics.median(r["metrics"][name]["value"] for r in sets[0])
        b = statistics.median(r["metrics"][name]["value"] for r in sets[1])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = "  WORSE than bound" if worse > m["bound"] else ""
        ok = ok and not flag
        print(f"{name:<24}{a:>12.5g}{b:>12.5g}  worse by {worse:+.3f} (bound {m['bound']}){flag}")
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    if shares[0] != shares[1] or len(shares[0]) != 1:
        print(f"failed shares differ: {shares}")
        ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload once per seed")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    run.add_argument("--seconds", type=int, default=None,
                     help="run length (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True, help="where to store the set of runs")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="check two sets of runs against the bounds")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
