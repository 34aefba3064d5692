"""Fresh-process start-up: a parent checkout against a change.

    python3 tools/bench_startup.py --parent ../parent --change . --runs 20 \
        --out BENCH_startup.json

Each run is a new interpreter started in a checkout with PYTHONPATH=src,
timed from start to exit.  Two commands are timed: `python -m bdmesh.cli
analyze table`, the closed-form sizing a user runs, and `python -c
"import bdmesh.scenario"`, the import every scenario run pays.  Parent
and change alternate, and which side runs first alternates from run to
run, so a slow spell of the machine falls on both sides alike.  Both
sides' analyze output (stdout, stderr, exit code) must be the same.
Per command the median and quartiles per side, their ratio and the
runs the change won go under "startup" and the label "runs <runs>" in
--out, with whether PYTHONDONTWRITEBYTECODE was set: when it is, no
run finds compiled bytecode and every run compiles src/ again.  Exits 1
when a run fails or the sides' outputs differ.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

from bench_pairs import open_record, summary, write_record

COMMANDS = {
    "analyze_table": ["-m", "bdmesh.cli", "analyze", "table"],
    "import_scenario": ["-c", "import bdmesh.scenario"],
}


def run_once(checkout: str, args: list[str]) -> tuple[float, tuple]:
    """Wall seconds of one fresh process, and what it printed and returned."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, check=False)
    wall_s = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {args} exited {done.returncode}:\n"
                         f"{done.stderr.decode(errors='replace')}")
    return wall_s, (done.stdout, done.stderr, done.returncode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=20, help="runs per side and command")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    results, same = {}, True
    for name, cmd in COMMANDS.items():
        wall = {"parent": [], "change": []}
        outputs = set()
        for r in range(args.runs):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                wall_s, output = run_once(sides[side], cmd)
                wall[side].append(wall_s * 1e3)
                outputs.add(output)
        same &= len(outputs) == 1
        entry = {"unit": "ms", "same_output": len(outputs) == 1}
        entry.update({side: summary(v) for side, v in wall.items()})
        entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_wins"] = sum(c < p for p, c in zip(wall["parent"], wall["change"]))
        entry["pairs"] = args.runs
        entry["runs"] = wall
        results[name] = entry
        p, c = entry["parent"], entry["change"]
        print(f"{name} (ms): parent {p['median']:.1f} [{p['q1']:.1f}, {p['q3']:.1f}]"
              f"  change {c['median']:.1f} [{c['q1']:.1f}, {c['q3']:.1f}]"
              f"  ratio {entry['ratio']:.3f}  wins {entry['change_wins']}/{args.runs}"
              f"  same_output={entry['same_output']}")

    doc = open_record(args.out, "tools/bench_startup.py", argv)
    doc.setdefault("startup", {})[f"runs {args.runs}"] = {
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "timed_commands": {name: " ".join(["python3", *cmd]) for name, cmd in COMMANDS.items()},
        "results": results}
    write_record(args.out, doc)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
