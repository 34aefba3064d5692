"""Seeded punch trials against the analytic success law."""

import concurrent.futures
import gc
import weakref

import pytest

from bdmesh import montecarlo, netsim
from bdmesh.errors import InvalidParametersError
from bdmesh.montecarlo import (
    MIN_TRIALS_PER_WORKER,
    MonteCarloResult,
    SIGMA_CHECK_MIN_TRIALS,
    analytic_success_rate,
    run_monte_carlo,
    run_punch_trial,
    trial_seed,
)
from bdmesh.probability import PortSpace, success_probability


class TestTrialSeed:
    def test_frozen_values(self):
        # Pinned so reports stay reproducible across releases.
        assert trial_seed(42, 0) == 16942418127278984150
        assert trial_seed(42, 1) == 1130277691798415633

    def test_distinct_across_indices_and_masters(self):
        seeds = {trial_seed(m, i) for m in range(4) for i in range(200)}
        assert len(seeds) == 800

    def test_pure_function(self):
        assert trial_seed(7, 123) == trial_seed(7, 123)


class TestRunPunchTrial:
    def test_deterministic(self):
        a = run_punch_trial(trial_seed(5, 0), max_seconds=5.0)
        b = run_punch_trial(trial_seed(5, 0), max_seconds=5.0)
        assert a == b

    def test_success_reports_probes_and_time(self):
        # At 256 pinholes and 500 probes the success chance is ~86%;
        # scan seeds for one success and one failure and check shape.
        outcomes = [run_punch_trial(trial_seed(11, i), max_seconds=5.0)
                    for i in range(30)]
        wins = [o for o in outcomes if o.success]
        losses = [o for o in outcomes if not o.success]
        assert wins and losses
        for o in wins:
            assert 1 <= o.probes_sent <= 500
            assert o.elapsed_us < 5_500_000
        for o in losses:
            assert o.probes_sent == 500

    def test_small_space_always_succeeds(self):
        # 64 pinholes in a 64-port space: the first probe must hit.
        space = PortSpace(2000, 2063)
        out = run_punch_trial(trial_seed(3, 0), open_ports=64, rate=20.0,
                              max_seconds=2.0, space=space)
        assert out.success and out.probes_sent == 1


    # (open ports, seconds, loss) of the four benchmark punch configurations,
    # each with (success, probes_sent, elapsed_us) of trial_seed(10, i), i < 6.
    PINNED = {
        (256, 10.0, 0.0): [(True, 150, 1492000), (True, 294, 2932000), (True, 317, 3162000),
                           (True, 122, 1212000), (True, 766, 7652000), (True, 239, 2382000)],
        (128, 10.0, 0.0): [(True, 59, 582000), (False, 1000, 10000000), (True, 37, 362000),
                           (True, 879, 8782000), (True, 421, 4202000), (True, 221, 2202000)],
        (512, 5.0, 0.0): [(True, 47, 462000), (True, 242, 2412000), (True, 5, 42000),
                          (False, 500, 5000000), (True, 18, 172000), (True, 78, 772000)],
        (256, 10.0, 0.05): [(True, 287, 2862000), (True, 751, 7502000), (True, 323, 3222000),
                            (True, 489, 4882000), (True, 428, 4272000), (True, 1000, 9992000)],
    }
    # elapsed_us of the same trials when it was the end of the 200 ms slice
    # of virtual time in which the prober reported.
    SLICE_END_US = {
        (256, 10.0, 0.0): [1600000, 3000000, 3200000, 1400000, 7800000, 2400000],
        (128, 10.0, 0.0): [600000, 10000000, 400000, 8800000, 4400000, 2400000],
        (512, 5.0, 0.0): [600000, 2600000, 200000, 5000000, 200000, 800000],
        (256, 10.0, 0.05): [3000000, 7600000, 3400000, 5000000, 4400000, 10000000],
    }

    @pytest.mark.parametrize("config", list(PINNED))
    def test_pinned_outcomes(self, config):
        # A change to any draw of a trial (pinhole ports, nonces, the
        # probe schedule, loss) moves at least one of these.
        open_ports, max_seconds, loss = config
        got = [run_punch_trial(trial_seed(10, i), open_ports=open_ports, rate=100.0,
                               max_seconds=max_seconds, loss=loss) for i in range(6)]
        assert [(o.success, o.probes_sent, o.elapsed_us) for o in got] == self.PINNED[config]
        # The report time is the prober's own, inside the slice that ended with it.
        for o, slice_end in zip(got, self.SLICE_END_US[config]):
            assert slice_end - 200_000 < o.elapsed_us <= slice_end

    @pytest.mark.parametrize("loss", [0.0, 0.4, 0.9999999])
    def test_trial_world_is_freed_by_reference_counting(self, monkeypatch, loss):
        # loss=0.4: the opener acks more than one pinhole and closes the
        # extra ones.  loss=0.9999999: no anchor ping gets through, so the
        # trial takes the early return after 5 s of virtual time.
        nets = []

        class Recorded(netsim.Network):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                nets.append(weakref.ref(self))

        monkeypatch.setattr(montecarlo, "Network", Recorded)
        gc.collect()
        gc.disable()
        try:
            before = world_objects()
            out = run_punch_trial(trial_seed(10, 0), loss=loss)
            left = [o for o in world_objects() if not any(o is b for b in before)]
        finally:
            gc.enable()
        assert (out.probes_sent == 0) == (loss > 0.99)
        assert len(nets) == 1 and nets[0]() is None
        assert left == []


def world_objects():
    """Every live NAT mapping and simulated socket."""
    return [o for o in gc.get_objects() if type(o) in (netsim._Mapping, netsim.SimSocket)]


class TestAnalyticRate:
    def test_matches_product_formula(self):
        assert analytic_success_rate(256, 100.0, 10.0) == \
            success_probability(64511, 256, 1000)

    def test_loss_uses_two_leg_delivery(self):
        loss = 0.2
        assert analytic_success_rate(256, 100.0, 10.0, loss=loss) == \
            success_probability(64511, 256, 1000, delivery_rate=(1 - loss) ** 2)


class TestRunMonteCarlo:
    def test_tracks_analytic_rate(self):
        r = run_monte_carlo(trials=300, seed=7)
        assert r.trials == 300
        assert r.empirical_rate == r.successes / 300
        assert r.delta == r.empirical_rate - r.analytic_rate
        assert r.within_3sigma is True

    def test_deterministic_in_master_seed(self):
        r1 = run_monte_carlo(trials=120, seed=21)
        r2 = run_monte_carlo(trials=120, seed=21)
        assert r1 == r2
        r3 = run_monte_carlo(trials=120, seed=22)
        assert r3.successes != r1.successes or r3.total_probes != r1.total_probes

    def test_worker_count_does_not_change_results(self):
        base = run_monte_carlo(trials=80, seed=13, workers=1)
        split = run_monte_carlo(trials=80, seed=13, workers=2)
        assert (split.successes, split.total_probes) == \
            (base.successes, base.total_probes)

    def test_default_workers_match_single_process(self):
        # Enough trials that the default spreads over every CPU there is.
        trials = 2 * MIN_TRIALS_PER_WORKER
        solo = run_monte_carlo(trials=trials, seed=13, workers=1)
        default = run_monte_carlo(trials=trials, seed=13)
        assert default == solo

    def test_default_workers_stay_in_process_for_small_runs(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        small = run_monte_carlo(trials=MIN_TRIALS_PER_WORKER - 1, seed=13)
        solo = run_monte_carlo(trials=MIN_TRIALS_PER_WORKER - 1, seed=13, workers=1)
        assert small == solo

    def test_sigma_check_skipped_below_minimum(self):
        r = run_monte_carlo(trials=SIGMA_CHECK_MIN_TRIALS - 1, seed=3)
        assert r.within_3sigma is None
        assert r.sigma_check_skipped

    def test_loss_shifts_rate_down(self):
        r = run_monte_carlo(trials=150, seed=9, loss=0.2)
        clean = analytic_success_rate(256, 100.0, 10.0)
        assert r.analytic_rate < clean
        assert r.within_3sigma is True

    def test_progress_callback_sees_all_trials(self):
        seen = []
        run_monte_carlo(trials=120, seed=2,
                        progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (120, 120)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParametersError):
            run_monte_carlo(trials=0)
        with pytest.raises(InvalidParametersError):
            run_monte_carlo(trials=10, loss=1.0)
        with pytest.raises(InvalidParametersError):
            run_monte_carlo(trials=10, workers=0)

    @pytest.mark.parametrize("open_ports,max_seconds,expected", [
        (256, 10.0, (194, 49412)),
        (128, 10.0, (162, 99793)),
        (512, 5.0, (199, 23094)),
    ])
    def test_pinned_results(self, open_ports, max_seconds, expected):
        # Pinned so that speeding up the simulator provably changes no
        # draw: every trial must hit (or miss) at the same probe.
        r = run_monte_carlo(open_ports=open_ports, max_seconds=max_seconds,
                            trials=200, seed=42)
        assert (r.successes, r.total_probes) == expected

    def test_result_is_frozen(self):
        r = run_monte_carlo(trials=1, seed=1)
        assert isinstance(r, MonteCarloResult)
        with pytest.raises(AttributeError):
            r.successes = 0
