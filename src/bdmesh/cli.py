"""Command line surface: analysis tables, punch simulations, scenarios, services.

Data goes to stdout (CSV for analysis commands, JSON for scenario
reports); everything diagnostic goes to stderr.  Exit codes are the
EXIT_* constants of bdmesh.errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional, Sequence

from .errors import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_SIM_FAILURE,
    EXIT_UNSUPPORTED_SCHEME,
    InvalidParametersError,
    ScenarioError,
    SimulationError,
    UnsupportedSchemeError,
)
from .probability import (PortSpace, min_probes, probability_curve, probe_count,
                          success_probability)

TRACE_LEVEL = 5
_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
    "trace": TRACE_LEVEL,
}

log = logging.getLogger("bdmesh")


def _setup_logging() -> None:
    logging.addLevelName(TRACE_LEVEL, "TRACE")
    raw = os.environ.get("BDMESH_LOG", "warn").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        print(f"BDMESH_LOG={raw!r} not recognized "
              f"(choose from {', '.join(_LOG_LEVELS)}); using warn",
              file=sys.stderr)
        level = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("bdmesh")
    root.handlers[:] = [handler]
    root.setLevel(level)


def _parse_number_list(text: str, kind: str, integer: bool) -> list:
    """Comma-separated numbers; empty string means an empty list."""
    if not text.strip():
        return []
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(int(piece) if integer else float(piece))
        except ValueError:
            raise InvalidParametersError(
                f"{kind} must be comma-separated numbers, got {piece!r}") from None
    return out


def cmd_analyze_table(args: argparse.Namespace) -> int:
    space = PortSpace()
    durations = _parse_number_list(args.durations, "durations", integer=False)
    if any(d < 0 for d in durations):
        raise InvalidParametersError("durations must be non-negative")
    if args.rate <= 0:
        raise InvalidParametersError(f"rate must be positive, got {args.rate}")
    lines = ["seconds,probes,probability,failure"]
    for seconds in durations:
        probes = probe_count(args.rate, seconds)
        p = success_probability(space.size, args.open_ports, probes)
        lines.append(f"{seconds:g},{probes},{p:.7f},{1.0 - p:.7f}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_analyze_curve(args: argparse.Namespace) -> int:
    space = PortSpace()
    blist = _parse_number_list(args.open_ports_list, "open-ports list", integer=True)
    if not blist:
        raise InvalidParametersError("open-ports list must not be empty")
    lines = ["open_ports,probes,probability"]
    summaries = []
    for b in blist:
        for probes, p in probability_curve(space.size, b, args.max_probes, args.step):
            lines.append(f"{b},{probes},{p:.7f}")
        a99 = min_probes(space.size, b, 0.99)
        summaries.append(f"open_ports={b}: probability 0.99 reached at {a99} probes")
    print("\n".join(lines))
    for s in summaries:
        print(s, file=sys.stderr)
    return EXIT_OK


def cmd_simulate_traversal(args: argparse.Namespace) -> int:
    from .montecarlo import SIGMA_CHECK_MIN_TRIALS, run_monte_carlo

    progress = None
    if log.isEnabledFor(logging.INFO):
        progress = lambda done, total: log.info("trials %d/%d", done, total)
    result = run_monte_carlo(
        open_ports=args.open_ports, rate=args.rate, max_seconds=args.max_seconds,
        trials=args.trials, seed=args.seed, loss=args.loss,
        workers=args.workers, progress=progress)
    print("trials,successes,empirical_rate,analytic_rate,delta")
    print(f"{result.trials},{result.successes},{result.empirical_rate:.7f},"
          f"{result.analytic_rate:.7f},{result.delta:.7f}")
    if result.within_3sigma is None:
        print(f"sigma check skipped: {result.trials} trials is below the "
              f"{SIGMA_CHECK_MIN_TRIALS}-trial minimum", file=sys.stderr)
        return EXIT_OK
    print(f"|delta|={abs(result.delta):.7f} vs 3*sigma={3.0 * result.sigma:.7f}",
          file=sys.stderr)
    if result.within_3sigma:
        return EXIT_OK
    print("empirical rate outside the 3-sigma band of the analytic rate",
          file=sys.stderr)
    return EXIT_SIM_FAILURE


def cmd_scenario(args: argparse.Namespace) -> int:
    from .scenario import run_scenario

    report = run_scenario(args.file)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        except OSError as e:
            print(f"cannot write report to {args.out}: {e}", file=sys.stderr)
            return EXIT_INVALID
    if report.get("ok"):
        return EXIT_OK
    print("scenario finished without full success; see report", file=sys.stderr)
    return EXIT_SIM_FAILURE


def cmd_coord(args: argparse.Namespace) -> int:
    from .realbackend import run_coordinator_cli

    return run_coordinator_cli(host=args.host, port=args.port,
                               observer_ports=(args.observer_port,
                                               args.observer_port2))


def cmd_node(args: argparse.Namespace) -> int:
    from .realbackend import run_node_cli

    return run_node_cli(coord=args.coord, node_id=args.id, key_path=args.key,
                        connect=args.connect or [], once=args.once,
                        plain=args.plain)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdmesh",
        description="Overlay mesh toolkit: traversal math, NAT simulation, "
                    "scenario runs, and rendezvous services.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="closed-form traversal analysis")
    analyze_sub = analyze.add_subparsers(dest="subcommand", required=True)

    table = analyze_sub.add_parser(
        "table", help="success probability per punch duration (CSV)")
    table.add_argument("--open-ports", "-B", type=int, default=256,
                       help="pinholes held by the hard side (default 256)")
    table.add_argument("--rate", "-R", type=float, default=100.0,
                       help="probe rate per second (default 100)")
    table.add_argument("--durations", default="5,10,15,20",
                       help="comma-separated punch durations in seconds")
    table.set_defaults(func=cmd_analyze_table)

    curve = analyze_sub.add_parser(
        "curve", help="probability vs probe count, one curve per pinhole count (CSV)")
    curve.add_argument("--open-ports-list", default="128,256,512",
                       help="comma-separated pinhole counts")
    curve.add_argument("--max-probes", type=int, default=3000,
                       help="largest probe count to evaluate (default 3000)")
    curve.add_argument("--step", type=int, default=50,
                       help="probe count increment between rows (default 50)")
    curve.set_defaults(func=cmd_analyze_curve)

    simulate = sub.add_parser("simulate", help="seeded network simulations")
    simulate_sub = simulate.add_subparsers(dest="subcommand", required=True)

    traversal = simulate_sub.add_parser(
        "traversal", help="Monte Carlo punch trials vs the analytic rate (CSV)")
    traversal.add_argument("--open-ports", "-B", type=int, default=256)
    traversal.add_argument("--rate", "-R", type=float, default=100.0)
    traversal.add_argument("--max-seconds", type=float, default=10.0)
    traversal.add_argument("--trials", type=int, default=1000)
    traversal.add_argument("--seed", type=int, default=42)
    traversal.add_argument("--loss", type=float, default=0.0,
                           help="per-datagram loss on both NAT uplinks")
    traversal.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: one per CPU, in-process "
                                "for small runs); results do not depend on this")
    traversal.set_defaults(func=cmd_simulate_traversal)

    scenario = sub.add_parser(
        "scenario", help="run a scenario file end to end, print the report JSON")
    scenario.add_argument("file", help="scenario JSON path")
    scenario.add_argument("--out", help="also write the report to this path")
    scenario.set_defaults(func=cmd_scenario)

    coord = sub.add_parser("coord", help="run a rendezvous coordinator")
    coord.add_argument("--host", default="0.0.0.0")
    coord.add_argument("--port", type=int, default=4500,
                       help="TCP control port (default 4500)")
    coord.add_argument("--observer-port", type=int, default=3478,
                       help="first UDP observation port (default 3478)")
    coord.add_argument("--observer-port2", type=int, default=3479,
                       help="second UDP observation port (default 3479)")
    coord.set_defaults(func=cmd_coord)

    node = sub.add_parser("node", help="run a mesh node")
    node.add_argument("--coord", required=True, help="coordinator host:port")
    node.add_argument("--id", required=True, help="node identifier")
    node.add_argument("--key", help="signing key file (created when missing)")
    node.add_argument("--connect", action="append", metavar="PEER",
                      help="peer id to link with; repeatable")
    node.add_argument("--once", action="store_true",
                      help="exit after every requested link is up and echoed")
    node.add_argument("--plain", action="store_true",
                      help="skip link encryption")
    node.set_defaults(func=cmd_node)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedSchemeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED_SCHEME
    except (InvalidParametersError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except SimulationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIM_FAILURE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
