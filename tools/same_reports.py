"""Same output from two checkouts: scenario reports and Monte Carlo bytes.

    python3 tools/same_reports.py --parent ../parent --change .

Runs a fixed set in each checkout, every kind of item in a fresh
process with PYTHONPATH=<checkout>/src, and compares what the two
sides produced:

- the bundled scenarios at seeds 1, 2, 3 and 7 (the digest of each
  report, as perfbench's report_digest computes it);
- the 72 documents of the benchmark's mesh workload at seeds 1 and 2,
  built by perfbench/workloads.py (imported read-only) and run at the
  workload's own simulation seeds (again the report digest);
- the stdout and exit code of `bdmesh simulate traversal --trials 300
  --seed 7 --workers 1`, and of the same with `--loss 0.1 -B 64`.

Prints one line per kind with its line count and whether the sides
agree, then every line that differs.  Exits 1 on any difference; a
scenario process that fails stops the tool with its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench_pairs import ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import Mesh  # noqa: E402

BUNDLED = ("blocked.json", "fullmesh5.json", "site2site.json")
BUNDLED_SEEDS = (1, 2, 3, 7)
MESH_SEEDS = (1, 2)
TRAVERSAL_RUNS = (
    ("simulate traversal", ["--trials", "300", "--seed", "7", "--workers", "1"]),
    ("simulate traversal lossy",
     ["--trials", "300", "--seed", "7", "--workers", "1", "--loss", "0.1", "-B", "64"]),
)

# Runs [name, doc or null for a bundled scenario, seed] items read from
# stdin; prints one "name seed digest" line per item.
CHILD = """
import hashlib, json, sys
from bdmesh.scenario import bundled_scenario_path, load_scenario, run_scenario
for name, doc, seed in json.load(sys.stdin):
    if doc is None:
        doc = load_scenario(bundled_scenario_path(name))
    report = run_scenario(doc, seed=seed)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    print(name, seed, digest, flush=True)
"""


def run(checkout: str, args: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env, input=stdin,
                          capture_output=True, text=True, check=False)


def scenario_lines(checkout: str, items: list) -> list[str]:
    done = run(checkout, ["-c", CHILD], json.dumps(items))
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: scenario runs exited {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()


def mesh_items() -> list:
    return [[f"mesh-seed{seed}-op{i}", doc, sim_seed]
            for seed in MESH_SEEDS
            for i, (_, doc, _, sim_seed) in enumerate(Mesh(seed).ops)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = (args.parent, args.change)

    kinds = {
        "bundled scenarios": [[name, None, seed] for name in BUNDLED for seed in BUNDLED_SEEDS],
        "mesh workload documents": mesh_items(),
    }
    outputs = {kind: [scenario_lines(side, items) for side in sides]
               for kind, items in kinds.items()}
    for kind, cli_args in TRAVERSAL_RUNS:
        outputs[kind] = []
        for side in sides:
            done = run(side, ["-m", "bdmesh.cli", "simulate", "traversal", *cli_args])
            outputs[kind].append([f"exit {done.returncode}", *done.stdout.splitlines()])

    differ = False
    for kind, (parent, change) in outputs.items():
        same = parent == change
        differ |= not same
        print(f"{kind}: {len(parent)} lines, {'same' if same else 'DIFFERENT'}")
        for p, c in zip(parent, change):
            if p != c:
                print(f"  parent: {p}\n  change: {c}")
        if len(parent) != len(change):
            print(f"  parent has {len(parent)} lines, change {len(change)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
