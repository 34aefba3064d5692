"""Reference computations the benchmark checks bdmesh against.

Nothing here imports bdmesh.  Each function is computed another way
than the program computes it, so a fault in the program does not
reappear in its own check:

- the birthday law as the hypergeometric complement
  1 - C(K-B, A) / C(K, A), exact with Fraction and math.comb for small
  K and through math.lgamma for the full 64511-port space (the program
  sums log1p terms);
- the lossy law as a plain float product of per-probe miss chances
  (the program sums logarithms);
- the relay-or-punch role of a pair, from the NAT kinds the benchmark
  wrote into the scenario (the program classifies NATs by probing);
- SHA-256 digests of echoed payloads.

Every check raises CheckFailed with a message naming what broke.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

# Port spaces up to this size are computed exactly; larger ones in log space.
EXACT_K_MAX = 4096
# How far the program may sit from these references (absolute).
PROB_TOL = 1e-9
# Per-configuration band for seeded punch success counts, in binomial
# standard deviations.  A run checks 4 configurations and the benchmark
# is run on dozens of seeds: at 3 sigma a correct program would fail
# about 1 run in 90 (4 x 0.27%); at 4 sigma about 1 in 4000.
PUNCH_SIGMAS = 4.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def hit_probability(k: int, b: int, a: int) -> float:
    """P(at least one of `a` distinct probes hits one of `b` open ports among `k`)."""
    if a <= 0 or b <= 0:
        return 0.0
    if a > k - b:
        return 1.0
    if k <= EXACT_K_MAX:
        return float(1 - Fraction(math.comb(k - b, a), math.comb(k, a)))
    log_miss = ((math.lgamma(k - b + 1) - math.lgamma(k - b - a + 1))
                - (math.lgamma(k + 1) - math.lgamma(k - a + 1)))
    return -math.expm1(log_miss)


def lossy_hit_probability(k: int, b: int, a: int, loss: float) -> float:
    """The law when each probe and its answer survive with (1 - loss)^2."""
    delivery = (1.0 - loss) ** 2
    miss = 1.0
    for i in range(a):
        miss *= 1.0 - delivery * min(1.0, b / (k - i))
    return 1.0 - miss


def check_close(what: str, got: float, want: float, tol: float = PROB_TOL) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: program gives {got!r}, reference {want!r}")


def check_min_probes(k: int, b: int, target: float, answer: int) -> None:
    """`answer` must be the least a with P(a) >= target: P(a-1) < target <= P(a)."""
    if answer < 1:
        raise CheckFailed(f"min_probes({k}, {b}, {target}) = {answer} is not positive")
    below = hit_probability(k, b, answer - 1)
    at = hit_probability(k, b, answer)
    if not (below < target + PROB_TOL and target <= at + PROB_TOL):
        raise CheckFailed(f"min_probes({k}, {b}, {target}) = {answer}, but "
                          f"P({answer - 1}) = {below!r} and P({answer}) = {at!r}")


def check_success_count(what: str, successes: int, trials: int, p: float,
                        sigmas: float = PUNCH_SIGMAS) -> None:
    """A seeded success count must lie within `sigmas` binomial sd of trials * p."""
    sd = math.sqrt(trials * p * (1.0 - p))
    if abs(successes - trials * p) > sigmas * max(sd, 0.5):
        raise CheckFailed(f"{what}: {successes}/{trials} successes, law expects "
                          f"{trials * p:.1f} +- {sigmas:g} x {sd:.2f}")


# -- roles in a mixed-NAT mesh ---------------------------------------------

def pair_role(kind_a: str, kind_b: str) -> str:
    """How a pair must connect, from the NAT kinds alone.

    "relay": a UDP-blocked host, or hard NAT on both sides; no punch is
    attempted.  "punch": exactly one hard side, so a birthday punch
    runs and may fall back to the relay.  "direct": both sides
    reachable by a plain probe exchange.
    """
    if "blocked" in (kind_a, kind_b) or (kind_a == kind_b == "hard"):
        return "relay"
    if "hard" in (kind_a, kind_b):
        return "punch"
    return "direct"


def check_mesh_report(report: dict, kinds: dict[str, str]) -> None:
    """A full-mesh scenario report: ok, connected, every link up and
    encrypted, and each link on a path its pair's role allows."""
    n = len(kinds)
    if not (report.get("ok") and report.get("connected")):
        raise CheckFailed(f"mesh seed {report.get('seed')}: ok={report.get('ok')} "
                          f"connected={report.get('connected')}")
    links = report.get("links", [])
    if len(links) != n * (n - 1) // 2:
        raise CheckFailed(f"mesh: {len(links)} links for {n} nodes")
    for link in links:
        a, b = link["a"], link["b"]
        if not (link["up"] and link["encrypted"]):
            raise CheckFailed(f"mesh link {a}-{b}: up={link['up']} encrypted={link['encrypted']}")
        role = pair_role(kinds[a], kinds[b])
        allowed = {"relay": ("relayed",), "direct": ("direct",),
                   "punch": ("direct", "relayed")}[role]
        if link["path"] not in allowed:
            raise CheckFailed(f"mesh link {a}-{b} ({kinds[a]}/{kinds[b]}) went "
                              f"{link['path']}, its role {role} allows {allowed}")


# -- echoes ----------------------------------------------------------------

def check_echo(what: str, payload: bytes, reply: bytes) -> None:
    if reply != hashlib.sha256(payload).digest():
        raise CheckFailed(f"{what}: reply {reply.hex()[:16]}... is not the SHA-256 of the payload")
