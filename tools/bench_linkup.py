"""Loopback link-up time, direct and relay-only, on the asyncio backend.

    python3 tools/bench_linkup.py --seed 1 --rounds 5 --out BENCH_linkup.json

Drives untraced rounds of the benchmark's loopback workload
(perfbench/workloads.py, imported read-only): one coordinator and two
nodes on 127.0.0.1, re-linking alternately direct and relay-only, with
1 KiB echoes over each link.  Every round starts on fresh services, as
in the benchmark, and every result passes the workload's checks.  The
time of each operation is split by kind: relink_direct and
relink_relay (introduce to both ends' link_up: the link-up time),
echo_direct and echo_relayed (a sealed 1 KiB payload out and its
digest back).  The median and quartiles per kind, with the sample
count, go under "linkup" and the label "seed <seed>, rounds <rounds>"
in --out, with the CPU count, the Python version and the command.
Exits 1 when an operation fails its check.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

from bench_pairs import ROOT, open_record, summary, write_record

sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import Loopback  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5, help="measured rounds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    wl = Loopback(args.seed)
    ms = defaultdict(list)
    failed = []
    try:
        wl.setup()
        for r in range(args.rounds):
            wl.before_round()
            results = wl.run_round(lambda i: None,
                                   lambda i, ns: ms[wl.kind(i)].append(ns / 1e6))
            for i, result in enumerate(results):
                try:
                    wl.check_op(i, result, r == 0)
                except AssertionError as exc:
                    failed.append(str(exc))
    finally:
        wl.teardown()

    kinds = {kind: {"n": len(v), **summary(v)} for kind, v in sorted(ms.items())}
    for kind, s in kinds.items():
        print(f"{kind} (ms): {s['median']:.3f} [{s['q1']:.3f}, {s['q3']:.3f}]  n={s['n']}")
    for line in failed[:5]:
        print(f"check: {line}", file=sys.stderr)

    doc = open_record(args.out, "tools/bench_linkup.py", argv)
    doc.setdefault("linkup", {})[f"seed {args.seed}, rounds {args.rounds}"] = {
        "unit": "ms", "failed": len(failed), "kinds": kinds}
    write_record(args.out, doc)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
