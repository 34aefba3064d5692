"""Same output from two checkouts: scenario reports, Monte Carlo and analyze bytes.

    python3 tools/same_reports.py --parent ../parent --change .

Runs a fixed set in each checkout, every kind of item in a fresh
process with PYTHONPATH=<checkout>/src, and compares what the two
sides produced:

- the bundled scenarios at seeds 1, 2, 3 and 7 (the digest of each
  report, as perfbench's report_digest computes it);
- LOSSY_DOC, a mixed-NAT mesh whose every uplink loses 10 % of its
  datagrams, at the same seeds (again the report digest);
- agent-level birthday punches (again the report digest): the
  12-node, 3-hard mesh of tools/bench_mesh_scale.py with every easy NAT
  filtering by address and port, at seeds 1, 2 and 3, where each hard
  host runs several openers at once, and BIRTHDAY_PAIR_DOC, one hard
  host with two such easy peers, at seeds 1, 2, 3 and 7;
- the 72 documents of the benchmark's mesh workload at seeds 1 and 2,
  built by perfbench/workloads.py (imported read-only) and run at the
  workload's own simulation seeds (again the report digest);
- the stdout and exit code of `bdmesh simulate traversal --trials 300
  --seed 7 --workers 1`, and of the same with `--loss 0.1 -B 64`;
- the exit code, stdout and stderr of ANALYZE_CALLS seeded `bdmesh
  analyze table` and `analyze curve` argvs, invalid ones included, all
  run by `bdmesh.cli.main` in one process per side (so one parser
  serves every call where the checkout builds it once).

Prints one line per kind with its line count and whether the sides
agree, then every line that differs.  A scenario line also carries a
short digest of each top-level report field, so a differing report is
printed as the fields that differ (say `trace_hash` only), and of its
links' (a, b, up, path), so it also says whether any link came up
otherwise or moved path.  A last line sums those fields over every
differing report, and counts the differing reports whose links moved.
Exits 1 on any difference; a scenario process that fails stops the
tool with its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

from bench_mesh_scale import mesh_doc
from bench_pairs import ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import Mesh  # noqa: E402

BUNDLED = ("blocked.json", "fullmesh5.json", "site2site.json")
BUNDLED_SEEDS = (1, 2, 3, 7)
# Every kind of pair on lossy uplinks: a public host, one behind a NAT
# that filters nothing, one behind a NAT that filters by port and two
# behind hard NATs, in a full mesh.
LOSSY_DOC = {
    "hosts": [{"id": "pub"}, {"id": "cone", "nat": "nc"}, {"id": "easy", "nat": "ne"},
              {"id": "hard1", "nat": "nh1"}, {"id": "hard2", "nat": "nh2"}],
    "nats": [{"id": "nc", "filtering": "endpoint_independent"},
             {"id": "ne", "filtering": "address_and_port_dependent"},
             {"id": "nh1", "mapping": "endpoint_dependent",
              "filtering": "address_and_port_dependent"},
             {"id": "nh2", "mapping": "endpoint_dependent",
              "filtering": "address_and_port_dependent"}],
    "links": [{"host": h, "loss": 0.1} for h in ("pub", "cone", "easy", "hard1", "hard2")],
    "scheme": {"G": 0, "P": 1, "theta": 1},
    "experiment": {"trials": 1},
}
# One hard host and two easy ones whose NATs filter by address and
# port: both hard x easy links run the birthday punch.
BIRTHDAY_PAIR_DOC = {
    "hosts": [{"id": "e1", "nat": "ne1"}, {"id": "e2", "nat": "ne2"}, {"id": "hh", "nat": "nh"}],
    "nats": [{"id": "ne1", "filtering": "address_and_port_dependent"},
             {"id": "ne2", "filtering": "address_and_port_dependent"},
             {"id": "nh", "mapping": "endpoint_dependent",
              "filtering": "address_and_port_dependent"}],
    "scheme": {"G": 0, "P": 1, "theta": 1},
    "experiment": {"trials": 1},
}
BIRTHDAY_MESH_SEEDS = (1, 2, 3)
MESH_SEEDS = (1, 2)
TRAVERSAL_RUNS = (
    ("simulate traversal", ["--trials", "300", "--seed", "7", "--workers", "1"]),
    ("simulate traversal lossy",
     ["--trials", "300", "--seed", "7", "--workers", "1", "--loss", "0.1", "-B", "64"]),
)

ANALYZE_CALLS = 200
ANALYZE_SEED = 26

# Runs the argvs read from stdin through bdmesh.cli.main, one after the
# other in this process; prints one JSON line [argv, exit code, stdout,
# stderr] per argv.  argparse's own errors exit by SystemExit.
ANALYZE_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from bdmesh.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    print(json.dumps([argv, code, out.getvalue(), err.getvalue()]), flush=True)
"""


def analyze_argvs(seed: int = ANALYZE_SEED, n: int = ANALYZE_CALLS) -> list[list[str]]:
    """n seeded analyze argvs, about one in six of them invalid: pinhole
    counts from 0 to the whole space and past it, duplicate and unsorted
    durations, budgets past the pigeonhole and past the space, step 1,
    non-numbers, negative, non-finite and non-integer values."""
    rng = random.Random(seed)

    def pick(good, bad):
        return rng.choice(bad) if rng.random() < 0.03 else rng.choice(good)()

    def number_list(items, k):
        return ",".join(pick(items, ["x", "-1", "inf", "nan", ""]) for _ in range(k))

    out = []
    for i in range(n):
        if i % 2 == 0:
            argv = ["analyze", "table"]
            if rng.random() < 0.9:
                argv += ["-B", pick([lambda: str(rng.randrange(1, 4097)), lambda: "0",
                                     lambda: "64000", lambda: "64511"], ["-1", "70000"])]
            if rng.random() < 0.9:
                argv += ["--rate", pick([lambda: rng.choice(["50", "100", "400", "1000"]),
                                         lambda: f"{rng.uniform(0.5, 2000):.3f}"],
                                        ["0", "-1", "1e308"])]
            if rng.random() < 0.9:
                argv += ["--durations", number_list(
                    [lambda: str(rng.randrange(0, 61)), lambda: f"{rng.uniform(0, 70):.2f}"],
                    rng.randrange(0, 8))]
        else:
            argv = ["analyze", "curve"]
            if rng.random() < 0.9:
                argv += ["--open-ports-list", number_list(
                    [lambda: str(rng.randrange(1, 4097)), lambda: str(rng.randrange(60000, 64512))],
                    rng.randrange(1, 4))]
            if rng.random() < 0.9:
                argv += ["--max-probes", pick([lambda: str(rng.randrange(0, 4001)),
                                               lambda: str(rng.randrange(0, 64512))],
                                              ["70000", "-5", "1.5"])]
            if rng.random() < 0.9:
                argv += ["--step", pick([lambda: str(rng.randrange(1, 400)), lambda: "1",
                                         lambda: str(rng.randrange(1000, 70000))],
                                        ["0", "-3", "x"])]
        out.append(argv)
    return out


# Runs [name, doc or null for a bundled scenario, seed] items read from
# stdin; prints one "name seed digest paths field=digest..." line per
# item: paths is a 12-hex digest of the links' (a, b, up, path), then
# comes one of each top-level report field.
CHILD = """
import hashlib, json, sys
from bdmesh.scenario import bundled_scenario_path, load_scenario, run_scenario
def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
for name, doc, seed in json.load(sys.stdin):
    if doc is None:
        doc = load_scenario(bundled_scenario_path(name))
    report = run_scenario(doc, seed=seed)
    paths = sha([[l["a"], l["b"], l["up"], l["path"]] for l in report.get("links", [])])
    fields = " ".join(f"{k}={sha(v)[:12]}" for k, v in sorted(report.items()))
    print(name, seed, sha(report), paths[:12], fields, flush=True)
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


def apdf_mesh_doc(n: int, hard: int, seed: int) -> dict:
    """mesh_doc with every easy NAT filtering by address and port, so
    every hard x easy pair runs the birthday punch."""
    doc = mesh_doc(n, hard, seed)
    for nat in doc["nats"]:
        if nat["mapping"] == "endpoint_independent":
            nat["filtering"] = "address_and_port_dependent"
    return doc


def birthday_items() -> list:
    return ([[f"apdf-mesh12-seed{seed}", apdf_mesh_doc(12, 3, seed), seed]
             for seed in BIRTHDAY_MESH_SEEDS]
            + [["birthday-pair", BIRTHDAY_PAIR_DOC, seed] for seed in BUNDLED_SEEDS])


def mesh_items() -> list:
    return [[f"mesh-seed{seed}-op{i}", doc, sim_seed]
            for seed in MESH_SEEDS
            for i, (_, doc, _, sim_seed) in enumerate(Mesh(seed).ops)]


def fields_that_differ(parent: str, change: str) -> list[str]:
    """The report fields whose digests differ between two scenario lines."""
    p = dict(f.split("=", 1) for f in parent.split()[4:])
    c = dict(f.split("=", 1) for f in change.split()[4:])
    return sorted(k for k in p.keys() | c.keys() if p.get(k) != c.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = (args.parent, args.change)

    kinds = {
        "bundled scenarios": [[name, None, seed] for name in BUNDLED for seed in BUNDLED_SEEDS],
        "lossy document": [["lossy", LOSSY_DOC, seed] for seed in BUNDLED_SEEDS],
        "birthday documents": birthday_items(),
        "mesh workload documents": mesh_items(),
    }
    outputs = {kind: [scenario_lines(side, items) for side in sides]
               for kind, items in kinds.items()}
    for kind, cli_args in TRAVERSAL_RUNS:
        outputs[kind] = []
        for side in sides:
            done = run(side, ["-m", "bdmesh.cli", "simulate", "traversal", *cli_args])
            outputs[kind].append([f"exit {done.returncode}", *done.stdout.splitlines()])
    outputs["analyze"] = []
    for side in sides:
        done = run(side, ["-c", ANALYZE_CHILD], json.dumps(analyze_argvs()))
        if done.returncode != 0:
            raise SystemExit(f"{side}: analyze runs exited {done.returncode}:\n{done.stderr}")
        outputs["analyze"].append(done.stdout.splitlines())

    differ = False
    report_fields: dict[str, int] = {}
    moved = 0
    for kind, (parent, change) in outputs.items():
        same = parent == change
        differ |= not same
        print(f"{kind}: {len(parent)} lines, {'same' if same else 'DIFFERENT'}")
        for p, c in zip(parent, change):
            if p == c:
                continue
            fields = fields_that_differ(p, c) if kind in kinds else []
            if fields:
                paths_same = p.split()[3] == c.split()[3]
                moved += not paths_same
                print(f"  {' '.join(p.split()[:2])}: differs in {', '.join(fields)}; "
                      f"links (a, b, up, path) {'same' if paths_same else 'DIFFERENT'}")
                for field in fields:
                    report_fields[field] = report_fields.get(field, 0) + 1
            else:
                print(f"  parent: {p}\n  change: {c}")
        if len(parent) != len(change):
            print(f"  parent has {len(parent)} lines, change {len(change)}")
    if report_fields:
        print("report fields that differ: " + ", ".join(
            f"{field} in {n}" for field, n in sorted(report_fields.items())))
        print(f"reports whose links (a, b, up, path) differ: {moved}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
