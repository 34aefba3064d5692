"""Collision-probability math, checked against independent oracles.

Oracles used here:
- exact rational product via fractions.Fraction
- closed form C(K-B, A) / C(K, A) via math.comb
- exhaustive enumeration of all C(K, A) probe sets for tiny K
- for min_probes, the O(A) compensated running sum that defines it
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmesh import probability
from bdmesh.errors import InvalidParametersError
from bdmesh.probability import (
    PortSpace,
    iter_ports,
    min_probes,
    probability_curve,
    probe_count,
    schedule_ports,
    success_probability,
)
from bdmesh.traversal import PunchConfig

K_FULL = 64511  # ports 1025..65535


def exact_probability(k: int, b: int, a: int) -> Fraction:
    miss = Fraction(1)
    for i in range(a):
        miss *= Fraction(k - b - i, k - i)
    return 1 - miss


def running_sum_min_probes(k: int, b: int, target: float) -> int:
    """min_probes by its definition: the first a at which the compensated
    running sum of log1p(-b/(k-i)) reaches log1p(-target), O(a)."""
    log_target_miss = math.log1p(-target)
    log_miss = comp = 0.0
    for a in range(1, k - b + 1):
        y = math.log1p(-b / (k - a + 1)) - comp
        t = log_miss + y
        comp = (t - log_miss) - y
        log_miss = t
        if log_miss <= log_target_miss:
            return a
    return k - b + 1


class TestSuccessProbability:
    # Reference operating points for the default space with 256 open
    # ports, frozen to seven decimal places.
    @pytest.mark.parametrize(
        "a,expected",
        [
            (500, 0.8641018),
            (1000, 0.9818191),
            (1500, 0.9976061),
            (2000, 0.9996899),
        ],
    )
    def test_reference_points(self, a, expected):
        assert success_probability(K_FULL, 256, a) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize(
        "k,b,a",
        [
            (64511, 256, 500),
            (64511, 256, 2000),
            (64511, 128, 1000),
            (64511, 512, 500),
            (1000, 37, 100),
            (100, 10, 50),
            (10, 3, 7),
        ],
    )
    def test_matches_exact_rational(self, k, b, a):
        got = success_probability(k, b, a)
        want = float(exact_probability(k, b, a))
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("k,b,a", [(64511, 256, 1000), (500, 50, 80), (12, 4, 6)])
    def test_matches_closed_form(self, k, b, a):
        # 1 - C(k-b, a) / C(k, a): probability that an a-subset avoids
        # all b marked ports.
        want = 1 - math.comb(k - b, a) / math.comb(k, a)
        assert success_probability(k, b, a) == pytest.approx(want, rel=1e-12)

    def test_exhaustive_small_space(self):
        # Enumerate every probe set for k <= 12 and count hits directly.
        for k in (5, 8, 12):
            for b in range(0, k + 1):
                open_ports = set(range(b))
                for a in range(0, k + 1):
                    hits = sum(
                        1
                        for combo in itertools.combinations(range(k), a)
                        if open_ports & set(combo)
                    )
                    want = hits / math.comb(k, a)
                    got = success_probability(k, b, a)
                    assert got == pytest.approx(want, abs=1e-12), (k, b, a)

    def test_zero_probes_or_zero_open(self):
        assert success_probability(K_FULL, 256, 0) == 0.0
        assert success_probability(K_FULL, 0, 2000) == 0.0

    def test_pigeonhole_saturation(self):
        # More probes than closed ports: certain hit, exactly 1.0.
        assert success_probability(100, 40, 61) == 1.0
        assert success_probability(100, 100, 1) == 1.0
        assert success_probability(10, 4, 6) < 1.0  # 1 - 1/C(10,6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParametersError):
            success_probability(0, 0, 0)
        with pytest.raises(InvalidParametersError):
            success_probability(100, 101, 5)
        with pytest.raises(InvalidParametersError):
            success_probability(100, 10, -1)
        with pytest.raises(InvalidParametersError):
            success_probability(100, 10, 101)

    @given(
        k=st.integers(2, 2000),
        b=st.integers(1, 2000),
        a=st.integers(1, 2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_probes(self, k, b, a):
        b = min(b, k)
        a = min(a, k - 1)
        p_lo = success_probability(k, b, a)
        p_hi = success_probability(k, b, a + 1)
        assert 0.0 <= p_lo <= p_hi <= 1.0

    @given(
        k=st.integers(2, 2000),
        b=st.integers(1, 1999),
        a=st.integers(1, 2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_open_ports(self, k, b, a):
        b = min(b, k - 1)
        a = min(a, k)
        assert success_probability(k, b, a) <= success_probability(k, b + 1, a)


class TestDeliveryRate:
    def test_full_delivery_matches_plain_form(self):
        for k, b, a in [(64511, 256, 1000), (100, 10, 50), (12, 3, 9)]:
            assert success_probability(k, b, a, delivery_rate=1.0) == \
                success_probability(k, b, a)

    def test_zero_delivery_never_succeeds(self):
        assert success_probability(64511, 256, 2000, delivery_rate=0.0) == 0.0

    def test_matches_naive_product(self):
        # Independent re-derivation: each probe i hits with chance
        # d * b / (k - i), misses stack multiplicatively.
        k, b, a, d = 64511, 256, 1000, 0.64
        miss = 1.0
        for i in range(a):
            miss *= 1.0 - d * b / (k - i)
        assert success_probability(k, b, a, delivery_rate=d) == \
            pytest.approx(1.0 - miss, abs=1e-12)

    @given(d=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_delivery(self, d):
        p = success_probability(64511, 256, 1000, delivery_rate=d)
        p_full = success_probability(64511, 256, 1000, delivery_rate=1.0)
        assert 0.0 <= p <= p_full

    def test_equals_the_per_term_fsum(self):
        # The defining sum, one Python term at a time; fsum rounds the
        # exact sum once, so the program's result must be the same float.
        rng = random.Random(11)
        cases = [(10, 4, 7, 0.99), (10, 10, 10, 0.5), (64511, 256, 1000, 0.9025),
                 (64511, 256, 1000, 1.0), (3000, 2999, 3000, 0.3)]
        for _ in range(300):
            k = rng.randrange(1, 5000)
            b = rng.randrange(0, k + 1)
            cases.append((k, b, rng.randrange(0, k + 1), rng.choice([1.0, 0.9025, rng.random()])))
        for k, b, a, d in cases:
            if b == 0 or d == 0.0 or (d == 1.0 and a > k - b):
                continue
            want = -math.expm1(math.fsum(math.log1p(-d * min(1.0, b / (k - i))) for i in range(a)))
            assert success_probability(k, b, a, delivery_rate=d) == want, (k, b, a, d)

    def test_pigeonhole_needs_full_delivery(self):
        # With any loss, even sweeping every closed-or-open port cannot
        # guarantee a hit, so the certain-success shortcut must not fire.
        assert success_probability(10, 4, 7, delivery_rate=1.0) == 1.0
        assert success_probability(10, 4, 7, delivery_rate=0.99) < 1.0

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(InvalidParametersError):
                success_probability(100, 10, 5, delivery_rate=bad)


class TestMinProbes:
    def test_reference_targets(self):
        # 256 open ports in the default space: the even-odds point and
        # the three-nines point.
        assert min_probes(K_FULL, 256, 0.5) == 175
        assert min_probes(K_FULL, 256, 0.999) == 1715

    def test_even_odds_within_two_seconds_at_hundred_per_second(self):
        assert min_probes(K_FULL, 256, 0.5) <= 200

    def test_more_open_ports_need_fewer_probes(self):
        a99 = {b: min_probes(K_FULL, b, 0.99) for b in (128, 256, 512)}
        assert a99 == {128: 2278, 256: 1148, 512: 576}
        assert a99[128] > a99[256] > a99[512]

    def test_is_exact_threshold(self):
        for b, target in [(256, 0.5), (256, 0.99), (64, 0.9), (512, 0.999)]:
            a = min_probes(K_FULL, b, target)
            assert success_probability(K_FULL, b, a) >= target
            assert success_probability(K_FULL, b, a - 1) < target

    def test_pigeonhole_fallback(self):
        # target above P(k-b) forces probing every closed port plus one.
        k, b = 20, 3
        p_all_closed = success_probability(k, b, k - b)
        target = (1 + p_all_closed) / 2
        assert min_probes(k, b, target) == k - b + 1

    def test_all_ports_open(self):
        assert min_probes(50, 50, 0.999999) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParametersError):
            min_probes(K_FULL, 256, 0.0)
        with pytest.raises(InvalidParametersError):
            min_probes(K_FULL, 256, 1.0)
        with pytest.raises(InvalidParametersError):
            min_probes(K_FULL, 0, 0.5)

    def test_boundary_band_matches_running_sum(self, monkeypatch):
        # A target equal to P(a), or one float step either side of it,
        # lies within the bisection's slack, so these take the fallback;
        # the answer must still be the running sum's.
        walks = []
        advance = probability._advance_log_miss
        monkeypatch.setattr(probability, "_advance_log_miss",
                            lambda *args: walks.append(args) or advance(*args))
        rng = random.Random(6)
        cases = [(K_FULL, 256, 175), (K_FULL, 128, 2278), (4096, 1, 4000), (100, 7, 30)]
        for _ in range(150):
            k = rng.choice([K_FULL, 65535, rng.randrange(2, 5000)])
            b = rng.randrange(1, min(k, 4096) + 1)
            cases.append((k, b, rng.randrange(1, min(k - b, 3000) + 1) if b < k else 1))
        for k, b, a in cases:
            p = success_probability(k, b, a)
            for target in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)):
                if 0.0 < target < 1.0:
                    assert min_probes(k, b, target) == running_sum_min_probes(k, b, target), \
                        (k, b, a, target)
        assert len(walks) > 50

    @pytest.mark.parametrize("k", [2, 10, 100, 4096, K_FULL, 65535])
    def test_edges_match_running_sum(self, k):
        for b in sorted({1, 2, k // 2, k - 1, k}):
            for target in (1e-12, 0.5, 0.99, 1 - 1e-12):
                assert min_probes(k, b, target) == running_sum_min_probes(k, b, target), \
                    (k, b, target)

    def test_port_spaces_above_the_bisection_limit(self):
        # Above 65536 ports the log-gamma form is not trusted (at 10^9
        # ports it sits ~1e-5 from the running sum, and a bisection on it
        # would answer 103 for the P(100) target below); the running sum
        # gives the answer.
        targets = [(1 << 20, 1000, 0.9), (70000, 3, 0.01), (10 ** 7, 50000, 0.5)]
        for b, a in [(1000, 100), (100000, 1000), (1000000, 10)]:
            targets.append((10 ** 9, b, success_probability(10 ** 9, b, a)))
        for k, b, target in targets:
            assert min_probes(k, b, target) == running_sum_min_probes(k, b, target), (k, b, target)

    @pytest.mark.parametrize("k", [2, 10, 100, 4096])
    def test_every_open_port_count_is_the_exact_threshold(self, k):
        # Against the exact law 1 - C(k-b, a) / C(k, a), to within float
        # rounding of the target.
        def exact(b, a):
            return 1 - Fraction(math.comb(k - b, a), math.comb(k, a))

        for b in range(1, k + 1):
            for target in (0.37, 0.9, 0.999):
                a = min_probes(k, b, target)
                assert exact(b, a) >= Fraction(target) - Fraction(1, 10 ** 12), (k, b, target)
                assert exact(b, a - 1) < Fraction(target) + Fraction(1, 10 ** 12), (k, b, target)

    @given(b=st.integers(1, 600), target=st.floats(0.01, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_threshold_property(self, b, target):
        k = 4000
        a = min_probes(k, b, target)
        assert success_probability(k, b, a) >= target
        if a > 1:
            assert success_probability(k, b, a - 1) < target


class TestProbabilityCurve:
    def test_step_and_endpoint(self):
        curve = probability_curve(K_FULL, 256, 1000, step=250)
        assert [a for a, _ in curve] == [0, 250, 500, 750, 1000]
        assert curve[0][1] == 0.0
        assert curve[-1][1] == pytest.approx(0.9818191, abs=1e-6)

    def test_endpoint_always_included(self):
        curve = probability_curve(K_FULL, 256, 1001, step=250)
        assert [a for a, _ in curve] == [0, 250, 500, 750, 1000, 1001]

    def test_agrees_with_point_function(self):
        for a, p in probability_curve(K_FULL, 256, 2000, step=137):
            assert p == pytest.approx(success_probability(K_FULL, 256, a), abs=1e-12)

    def test_saturates_to_one(self):
        curve = dict(probability_curve(30, 10, 30, step=1))
        assert curve[20] < 1.0
        assert curve[21] == 1.0
        assert curve[30] == 1.0

    def test_zero_open_ports(self):
        assert probability_curve(100, 0, 10, step=5) == [(0, 0.0), (5, 0.0), (10, 0.0)]

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidParametersError):
            probability_curve(100, 10, 50, step=0)


@st.composite
def kernel_points(draw):
    """(k, b, points): ascending distinct probe counts up to k, mostly at
    most k - b."""
    k = draw(st.integers(1, 70000))
    b = draw(st.integers(0, k))
    points = draw(st.sets(st.integers(0, min(k - b, 8000)), max_size=10))
    if draw(st.booleans()):
        points |= draw(st.sets(st.integers(k - b, min(k, k - b + 50)), max_size=3))
    return k, b, sorted(points)


class TestLogMissKernel:
    @given(case=kernel_points())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_agrees_with_the_point_function(self, case):
        # One rounding per segment: every point within 1e-12 of
        # success_probability, and the first the same float, its log
        # being the defining sum rounded once (-inf past k - b probes).
        k, b, points = case
        sums = probability._log_miss_at(k, b, points)
        for i, (a, log_miss) in enumerate(zip(points, sums)):
            p, want = -math.expm1(log_miss) + 0.0, success_probability(k, b, a)
            assert (p == want) if i == 0 else abs(p - want) <= 1e-12, (k, b, a, i)
            assert (log_miss == -math.inf) == (a > k - b), (k, b, a)
        if points and points[0] <= k - b:
            a = points[0]
            assert sums[0] == math.fsum(math.log1p(-b / (k - i)) for i in range(a)), (k, b, a)

    def test_no_points(self):
        assert probability._log_miss_at(K_FULL, 256, []) == []


class TestSchedulePorts:
    def test_deterministic_per_seed(self):
        space = PortSpace()
        assert schedule_ports(space, 500, 7) == schedule_ports(space, 500, 7)
        assert schedule_ports(space, 500, 7) != schedule_ports(space, 500, 8)

    def test_distinct_and_in_range(self):
        space = PortSpace()
        ports = schedule_ports(space, 2000, 123)
        assert len(ports) == len(set(ports)) == 2000
        assert all(space.contains(p) for p in ports)

    def test_full_space_is_permutation(self):
        space = PortSpace(1, 40)
        ports = schedule_ports(space, 40, 99)
        assert sorted(ports) == list(range(1, 41))

    def test_count_bounds(self):
        space = PortSpace(1, 10)
        assert schedule_ports(space, 0, 1) == []
        with pytest.raises(InvalidParametersError):
            schedule_ports(space, 11, 1)
        with pytest.raises(InvalidParametersError):
            schedule_ports(space, -1, 1)

    def test_lazy_form_draws_the_same_ports(self):
        space = PortSpace()
        lazy = iter_ports(space, 300, 5)
        assert [next(lazy) for _ in range(10)] == schedule_ports(space, 10, 5)
        assert list(iter_ports(space, 300, 5)) == schedule_ports(space, 300, 5)

    def test_draws_the_ports_of_a_randrange_shuffle(self):
        # The Fisher-Yates as written with random.Random.randrange: the
        # program must draw the same ports from the same seed.
        def reference(space, count, seed):
            rng, pool = random.Random(seed), list(range(space.lo, space.hi + 1))
            for i in range(count):
                j = rng.randrange(i, space.size)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[:count]

        for space, count, seed in [(PortSpace(), 1000, 7), (PortSpace(1, 40), 40, 99),
                                   (PortSpace(100, 100), 1, 3), (PortSpace(1, 2), 2, 5)]:
            assert schedule_ports(space, count, seed) == reference(space, count, seed)

    def test_lazy_form_checks_count_before_first_draw(self):
        with pytest.raises(InvalidParametersError):
            iter_ports(PortSpace(1, 10), 11, 1)

    def test_first_draw_is_uniform(self):
        # Over many seeds the first scheduled port should spread evenly
        # across a small space: chi-square against uniform with 15 dof,
        # 99.9th percentile ~ 37.7.
        space = PortSpace(1, 16)
        counts = [0] * 16
        n = 40000
        for seed in range(n):
            counts[schedule_ports(space, 1, seed)[0] - 1] += 1
        expected = n / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 37.7, chi2


class TestProbeCount:
    def test_floor_absorbs_float_dust(self):
        assert probe_count(100.0, 19.999999999999996) == 2000
        assert probe_count(100.0, 0.0) == 0
        assert probe_count(33.3, 2.7) == 89

    @pytest.mark.parametrize("rate,seconds", [(100.0, math.inf), (100.0, math.nan),
                                              (1e308, 10.0), (math.inf, 1.0)])
    def test_non_finite_budget_is_refused(self, rate, seconds):
        with pytest.raises(InvalidParametersError, match="not finite"):
            probe_count(rate, seconds)
        with pytest.raises(InvalidParametersError, match="not finite"):
            PunchConfig(max_duration_s=rate * seconds)

    def test_punch_budget_is_the_same_floor(self):
        cfg = PunchConfig(probe_rate=100.0, max_duration_s=19.999999999999996)
        assert cfg.probe_budget == probe_count(100.0, 19.999999999999996) == 2000


class TestPortSpace:
    def test_default_space(self):
        space = PortSpace()
        assert (space.lo, space.hi, space.size) == (1025, 65535, 64511)

    def test_contains(self):
        space = PortSpace(100, 200)
        assert space.contains(100) and space.contains(200)
        assert not space.contains(99) and not space.contains(201)

    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidParametersError):
            PortSpace(0, 100)
        with pytest.raises(InvalidParametersError):
            PortSpace(200, 100)
        with pytest.raises(InvalidParametersError):
            PortSpace(1, 70000)
