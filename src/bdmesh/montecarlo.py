"""Monte Carlo validation: simulated birthday punches vs the analytic law.

Each trial builds a tiny seeded world (an opener behind a hard NAT, a
prober behind a NAT with endpoint-independent mapping and
address-and-port-dependent filtering, a public anchor standing in for
the rendezvous observation step) and runs the real punch machines.  A
trial succeeds when the prober's machine reports an established path
before its deadline, which corresponds term for term to the at-least-
one-hit event the product formula integrates: B pinhole mappings are
distinct random external ports, the prober sweeps A distinct ports,
and with loss each candidate hit must additionally survive the probe
leg and the answer leg, (1 - loss)^2.

Per-trial seeds are a stable hash of (master seed, trial index), so
the aggregate is a pure function of the master seed no matter how many
workers run the trials or in which order.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InvalidParametersError
from .netsim import FilteringMode, LinkPolicy, NatProfile, Network
from .probability import PortSpace, success_probability
from .traversal import BirthdayOpener, BirthdayProber, PunchConfig

SIGMA_CHECK_MIN_TRIALS = 100
# A worker process costs a fork and a pickled result; below this many
# trials (about half a second of work) it does not pay for itself.
MIN_TRIALS_PER_WORKER = 100

__all__ = [
    "SIGMA_CHECK_MIN_TRIALS", "MIN_TRIALS_PER_WORKER", "TrialOutcome", "MonteCarloResult",
    "trial_seed", "run_punch_trial", "analytic_success_rate", "run_monte_carlo",
]


def trial_seed(master: int, index: int, domain: str = "bdmesh-trial") -> int:
    """Stable per-trial seed, independent of worker count and order; each
    `domain` (punch trials, scenario trials) is its own seed stream."""
    h = hashlib.blake2b(f"{domain}:{master}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class TrialOutcome:
    success: bool
    probes_sent: int
    elapsed_us: int


def run_punch_trial(seed: int, open_ports: int = 256, rate: float = 100.0,
                    max_seconds: float = 10.0, loss: float = 0.0,
                    space: Optional[PortSpace] = None) -> TrialOutcome:
    """One seeded punch between an easy prober and a hard opener.

    The prober's NAT maps endpoint-independently but filters by address
    and port, the peer the birthday law describes: the opener's probes
    reach the prober only from ports it has already swept, so it never
    sends a triggered check and every hit is a swept port finding a
    pinhole.  (A prober that does not filter answers the first opener
    probe it hears and links in one round trip.)
    """
    cfg = PunchConfig(open_ports=open_ports, probe_rate=rate,
                      max_duration_s=max_seconds,
                      space=space or PortSpace())
    # The world is closed on every return path, so reference counting
    # alone frees it.
    with closing(Network(seed=seed)) as net:
        link = LinkPolicy(loss=loss)
        hard_nat = net.add_nat(NatProfile.hard("nat-hard", alloc_space=cfg.space))
        opener_host = net.add_host("opener", nat=hard_nat, link=link)
        filtering_nat = net.add_nat(NatProfile(
            "nat-easy", filtering=FilteringMode.ADDRESS_AND_PORT_DEPENDENT))
        prober_host = net.add_host("prober", nat=filtering_nat, link=link)
        anchor = net.add_host("anchor")

        observed: list = []
        anchor.bind(lambda data, src, sock: observed.append(src), port=3478)

        prober_sock = prober_host.open_socket(lambda data, src, sock: None)

        # Reveal the prober's external mapping; retried because the anchor
        # ping rides the same lossy link as everything else.
        start_us = net.now_us
        while not observed:
            prober_sock.send((anchor.ip, 3478), b"hello")
            net.run_for(2 * link.latency_us + 1000)
            if net.now_us - start_us > 5_000_000:
                return TrialOutcome(False, 0, net.now_us - start_us)
        prober_ext = observed[0]

        done: dict = {}

        def prober_done(ok: bool, sock, peer, why: str) -> None:
            done["prober"] = ok
            done["at_us"] = net.now_us

        session_id = net.rng.randbytes(8)
        pinholes = opener_host.open_sockets(lambda *d: opener.on_datagram(*d), cfg.open_ports)
        opener = BirthdayOpener(opener_host, pinholes, session_id, prober_ext, cfg,
                                lambda ok, sock, peer, why: None, rng=net.rng)
        prober = BirthdayProber(prober_host, prober_sock, session_id,
                                hard_nat.public_ip, cfg, prober_done, rng=net.rng)
        prober_sock.handler = prober.on_datagram
        t0 = net.now_us
        opener.start()
        prober.start()
        hard_stop = t0 + int((cfg.max_duration_s + 1.0) * 1_000_000)
        while "prober" not in done and net.now_us < hard_stop:
            net.run_until(min(hard_stop, net.now_us + 200_000))
        return TrialOutcome(bool(done.get("prober")), prober.probes_sent,
                            done.get("at_us", net.now_us) - t0)


def analytic_success_rate(open_ports: int, rate: float, max_seconds: float,
                          loss: float = 0.0,
                          space: Optional[PortSpace] = None) -> float:
    """The product-formula rate the simulation is expected to track."""
    cfg = PunchConfig(open_ports=open_ports, probe_rate=rate,
                      max_duration_s=max_seconds, space=space or PortSpace())
    return success_probability(cfg.space.size, open_ports, cfg.probe_budget,
                               delivery_rate=(1.0 - loss) ** 2)


@dataclass(frozen=True)
class MonteCarloResult:
    trials: int
    successes: int
    empirical_rate: float
    analytic_rate: float
    delta: float
    sigma: float                      # binomial sd of the empirical mean
    within_3sigma: Optional[bool]     # None: too few trials to judge
    total_probes: int

    @property
    def sigma_check_skipped(self) -> bool:
        return self.within_3sigma is None


def _run_block(args, progress: Optional[Callable[[int, int], None]] = None,
               ) -> tuple[int, int]:
    master, start, count, open_ports, rate, max_seconds, loss, lo, hi = args
    space = PortSpace(lo, hi)
    successes = probes = 0
    for n, i in enumerate(range(start, start + count), 1):
        out = run_punch_trial(trial_seed(master, i), open_ports, rate,
                              max_seconds, loss, space)
        successes += out.success
        probes += out.probes_sent
        if progress is not None and (n % 500 == 0 or n == count):
            progress(n, count)
    return successes, probes


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(open_ports: int = 256, rate: float = 100.0,
                    max_seconds: float = 10.0, trials: int = 10000,
                    seed: int = 42, loss: float = 0.0,
                    workers: Optional[int] = None, space: Optional[PortSpace] = None,
                    progress: Optional[Callable[[int, int], None]] = None,
                    ) -> MonteCarloResult:
    """Run seeded punch trials and compare against the analytic rate.

    The empirical/analytic comparison is judged at 3 binomial sigma;
    below SIGMA_CHECK_MIN_TRIALS trials the judgement is skipped
    (within_3sigma is None) because the bound is meaningless there.

    workers=None uses one process per usable CPU, but never fewer than
    MIN_TRIALS_PER_WORKER trials per process, so on one CPU or for a
    small run everything stays in this process.  The results do not
    depend on the worker count.
    """
    if trials < 1:
        raise InvalidParametersError(f"trials must be >= 1, got {trials}")
    if not (0.0 <= loss < 1.0):
        raise InvalidParametersError(f"loss must lie in [0, 1), got {loss}")
    if workers is None:
        workers = max(1, min(_usable_cpus(), trials // MIN_TRIALS_PER_WORKER))
    elif workers < 1:
        raise InvalidParametersError(f"workers must be >= 1, got {workers}")
    space = space or PortSpace()
    analytic = analytic_success_rate(open_ports, rate, max_seconds, loss, space)

    def job(start: int, count: int) -> tuple:
        return (seed, start, count, open_ports, rate, max_seconds, loss,
                space.lo, space.hi)

    if workers == 1:
        successes, total_probes = _run_block(job(0, trials), progress)
    else:
        # Only a run that starts a pool loads it and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        block = max(1, math.ceil(trials / (workers * 4)))
        jobs = [job(start, min(block, trials - start))
                for start in range(0, trials, block)]
        successes = total_probes = finished = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for (s, p), job_args in zip(pool.map(_run_block, jobs), jobs):
                successes += s
                total_probes += p
                finished += job_args[2]
                if progress is not None:
                    progress(finished, trials)

    empirical = successes / trials
    delta = empirical - analytic
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    within: Optional[bool] = None
    if trials >= SIGMA_CHECK_MIN_TRIALS:
        within = abs(delta) <= 3.0 * sigma
    return MonteCarloResult(trials=trials, successes=successes,
                            empirical_rate=empirical, analytic_rate=analytic,
                            delta=delta, sigma=sigma, within_3sigma=within,
                            total_probes=total_probes)
