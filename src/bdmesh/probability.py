"""Collision probability for simultaneous-open NAT traversal.

One side keeps B external ports open out of a space of K candidate
ports; the other side probes A distinct ports chosen uniformly at
random without replacement.  The chance that at least one probe lands
on an open port is

    P(A) = 1 - prod_{i=0}^{A-1} (K - B - i) / (K - i)

which is the birthday-style complement of drawing A misses in a row
from a shrinking pool.  All evaluation happens in log space so the
result stays accurate out to P very close to 0 or 1.

Costs: success_probability is one C-level pass over its A terms
(map and math.fsum, no Python-level loop); probability_curve is one
compensated running sum over the curve; min_probes is O(log K), a
bisection on the log-gamma form of the miss product, which falls back
to the running sum only when the bisection's answer sits too close to
the target to be trusted (see min_probes).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul, truediv
from typing import Iterator

from .errors import InvalidParametersError

__all__ = [
    "PortSpace",
    "success_probability",
    "min_probes",
    "probability_curve",
    "schedule_ports",
    "iter_ports",
    "probe_count",
]

# min_probes trusts the log-gamma form of log(miss) only where it clears
# the target by this much.  Its rounding error grows with K (its terms
# are ~K log K); along whole curves at K <= 65536 it sat at most 3.7e-10
# from the compensated running sum, a ~270x margin, while at K = 2^24 it
# reached 1.4e-7.  So the bisection runs only up to _LGAMMA_K_MAX.
_LGAMMA_SLACK = 1e-7
_LGAMMA_K_MAX = 1 << 16


@dataclass(frozen=True)
class PortSpace:
    """Contiguous range of candidate external ports, inclusive on both ends.

    The default covers every non-reserved UDP port, 1025 through 65535,
    which is the space a NAT with no configured restrictions allocates
    from.
    """

    lo: int = 1025
    hi: int = 65535

    def __post_init__(self) -> None:
        if not (0 < self.lo <= self.hi <= 65535):
            raise InvalidParametersError(f"bad port range [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, port: int) -> bool:
        return self.lo <= port <= self.hi


def _check_kba(k: int, b: int, a: int) -> None:
    if k <= 0:
        raise InvalidParametersError(f"port space size must be positive, got {k}")
    if b < 0 or b > k:
        raise InvalidParametersError(f"open ports must lie in [0, {k}], got {b}")
    if a < 0:
        raise InvalidParametersError(f"probe count must be non-negative, got {a}")


def success_probability(k: int, b: int, a: int, delivery_rate: float = 1.0) -> float:
    """P(at least one of `a` distinct probes hits one of `b` open ports).

    `k` is the size of the port space.  Probes beyond k are rejected:
    the prober cannot pick more distinct ports than exist.

    `delivery_rate` scales each probe's hit chance by the probability
    that both the probe and its answer survive the network, i.e.
    (1 - loss)^2 for symmetric independent loss.  At 1.0 the product is
    exact; below 1.0 it treats per-probe survival as independent, which
    holds when losses are drawn per datagram.

    The log of the miss product is one C-level pass: the a terms
    log1p(-b/(k-i)) are built with map and summed by math.fsum, which
    rounds the exact sum once, so the result does not depend on how the
    terms are produced.
    """
    _check_kba(k, b, a)
    if a > k:
        raise InvalidParametersError(f"cannot probe {a} distinct ports out of {k}")
    if not (0.0 <= delivery_rate <= 1.0):
        raise InvalidParametersError(
            f"delivery_rate must lie in [0, 1], got {delivery_rate}")
    if a == 0 or b == 0 or delivery_rate == 0.0:
        return 0.0
    if delivery_rate == 1.0:
        if a > k - b:
            # Pigeonhole: more probes than closed ports, a hit is certain.
            return 1.0
        # log1p(-b / (k - i)) for i = 0 .. a-1
        log_miss = math.fsum(map(math.log1p, map(truediv, repeat(-b, a), range(k, k - a, -1))))
        return -math.expm1(log_miss)
    # The hit chance of probe i is delivery_rate * min(1, b / (k - i)); the
    # min is 1 from i = k - b on, where fewer ports remain than are open.
    n = min(a, k - b)
    hit = map(truediv, repeat(b, n), range(k, k - n, -1))
    log_miss = math.fsum(chain(map(math.log1p, map(mul, repeat(-delivery_rate, n), hit)),
                               repeat(math.log1p(-delivery_rate), a - n)))
    return -math.expm1(log_miss)


def _advance_log_miss(k: int, b: int, a: int, a_end: int, log_miss: float,
                      comp: float, floor: float = -math.inf) -> tuple[int, float, float]:
    """Add log1p(-b/(k-i)) for i = a .. a_end-1 to log_miss, stopping after
    the term that takes it to `floor` or below; returns (a, log_miss, comp).
    Kahan-compensated (comp), since the sum runs long for small b."""
    while a < a_end:
        y = math.log1p(-b / (k - a)) - comp
        t = log_miss + y
        comp = (t - log_miss) - y
        log_miss = t
        a += 1
        if log_miss <= floor:
            break
    return a, log_miss, comp


def min_probes(k: int, b: int, target: float) -> int:
    """Smallest probe count whose success probability reaches `target`.

    The answer is the first a at which the running sum of log1p(-b/(k-i))
    (as in probability_curve) reaches log1p(-target).  For k <= 65536
    it is found in O(log K): a bisection on the log-gamma form
    lgamma(k-b+1) - lgamma(k+1) - lgamma(k-b-a+1) + lgamma(k-a+1) of the
    same sum.  The bisection's answer a is returned only when the form
    clears the target by _LGAMMA_SLACK on both sides, at a and at a-1;
    the two sums differ by far less than that, so the running sum would
    stop at the same a.  Otherwise (a target within the slack of P(a),
    or k above 65536) the running sum is walked from 0, O(answer).
    """
    _check_kba(k, b, 0)
    if not (0.0 < target < 1.0):
        raise InvalidParametersError(f"target must lie in (0, 1), got {target}")
    if b == 0:
        raise InvalidParametersError("no probe count can hit zero open ports")
    log_target_miss = math.log1p(-target)
    if k <= _LGAMMA_K_MAX:
        lgamma = math.lgamma
        base = lgamma(k - b + 1) - lgamma(k + 1)
        # Invariant: log_miss(lo) > log_target_miss >= log_miss(hi).  Both
        # ends start exact, so their slack checks pass: log_miss(0) = 0 is
        # above any target, and k - b + 1 probes cannot all miss.
        lo, hi, miss_lo, miss_hi = 0, k - b + 1, math.inf, -math.inf
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            miss = base - lgamma(k - b - mid + 1) + lgamma(k - mid + 1)
            if miss <= log_target_miss:
                hi, miss_hi = mid, miss
            else:
                lo, miss_lo = mid, miss
        if (miss_hi <= log_target_miss - _LGAMMA_SLACK
                and miss_lo > log_target_miss + _LGAMMA_SLACK):
            return hi
    a, log_miss, _ = _advance_log_miss(k, b, 0, k - b, 0.0, 0.0, log_target_miss)
    if log_miss <= log_target_miss:
        return a
    # Probing every closed port plus one more guarantees a hit.
    return k - b + 1


def probability_curve(k: int, b: int, a_max: int, step: int = 1) -> list[tuple[int, float]]:
    """(probes, probability) pairs for a = 0, step, 2*step, ... up to a_max.

    The final point is always a_max itself so the curve never
    understates the endpoint.  Incremental evaluation keeps the whole
    sweep O(a_max).
    """
    _check_kba(k, b, a_max)
    if a_max > k:
        raise InvalidParametersError(f"cannot probe {a_max} distinct ports out of {k}")
    if step <= 0:
        raise InvalidParametersError(f"step must be positive, got {step}")
    out: list[tuple[int, float]] = []
    done, log_miss, comp = 0, 0.0, 0.0
    for a in [*range(0, a_max, step), a_max]:
        if b == 0:
            p = 0.0
        elif a > k - b:
            p = 1.0  # pigeonhole: more probes than closed ports
        else:
            done, log_miss, comp = _advance_log_miss(k, b, done, a, log_miss, comp)
            p = -math.expm1(log_miss) + 0.0  # +0.0 folds -0.0 at a=0
        out.append((a, p))
    return out


def iter_ports(space: PortSpace, count: int, seed: int) -> Iterator[int]:
    """Deterministic sample of `count` distinct ports from `space`, drawn lazily.

    A partial Fisher-Yates shuffle over a sparse dict gives O(count)
    time and memory regardless of the size of the space, and a stable
    output for a given seed across runs and platforms.  Each port is
    drawn only when the iterator reaches it, so a caller that stops
    early (a prober that hits) pays only for the ports it used.  The
    count is checked here, before the first draw.
    """
    k = space.size
    if count < 0 or count > k:
        raise InvalidParametersError(f"cannot schedule {count} distinct ports out of {k}")
    return _partial_fisher_yates(space.lo, k, count, random.Random(seed))


def _below(getrandbits, n: int) -> int:
    """random.Random.randrange(n), by the same getrandbits draws but cheaper."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _partial_fisher_yates(lo: int, k: int, count: int,
                          rng: random.Random) -> Iterator[int]:
    getrandbits = rng.getrandbits
    swapped: dict[int, int] = {}
    for i in range(count):
        # The draws of rng.randrange(i, k), without its argument checks.
        j = i + _below(getrandbits, k - i)
        vi = swapped.get(i, i)
        vj = swapped.get(j, j)
        swapped[j] = vi
        yield lo + vj


def schedule_ports(space: PortSpace, count: int, seed: int) -> list[int]:
    """The whole of iter_ports(space, count, seed) as a list."""
    return list(iter_ports(space, count, seed))


def probe_count(rate: float, seconds: float) -> int:
    """Probes sent at `rate` per second for `seconds`: floor(rate * seconds).

    The epsilon absorbs float dust in products like 100 * 19.999999999999996.
    A budget that is not finite (an infinite duration, an overflowing
    product, a NaN) is refused.
    """
    budget = rate * seconds
    if not math.isfinite(budget):
        raise InvalidParametersError(
            f"probe budget {rate} probes/s * {seconds} s is not finite")
    return math.floor(budget + 1e-9)
