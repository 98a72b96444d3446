from dataclasses import replace

import numpy as np
import pytest

from cavityent import fluctuations as fl
from cavityent import heisenberg as hb
from cavityent.params import ModelParams, to_physical_time

# symplectic form of (a, b, a^dag, b^dag): S SIGMA S^dag = SIGMA for every propagator
SIGMA = np.diag([1.0, 1.0, -1.0, -1.0])


class TestSampleSchedule:
    def test_deterministic_for_fixed_seed(self):
        a = fl.sample_schedule(0.3, seed=42)
        b = fl.sample_schedule(0.3, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_values(self):
        a = fl.sample_schedule(0.3, seed=1)
        b = fl.sample_schedule(0.3, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_zero_mean_gives_zero_schedule(self):
        sched = fl.sample_schedule(0.0, seed=7)
        assert np.array_equal(sched.values, np.zeros(100))

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            fl.sample_schedule(-0.1)

    def test_unknown_spread_rejected(self):
        with pytest.raises(ValueError):
            fl.sample_schedule(0.1, spread="sigma")

    def test_law_of_large_numbers_std_mode(self):
        # sample mean of 1e5 draws lands within 5 standard errors
        sched = fl.sample_schedule(0.3, n_segments=100_000, seed=11, spread="std")
        sigma = 0.03
        assert abs(sched.values.mean() - 0.3) < 5 * sigma / np.sqrt(100_000)
        assert sched.values.std() == pytest.approx(sigma, rel=0.02)

    def test_variance_mode_scale(self):
        sched = fl.sample_schedule(0.1, n_segments=100_000, seed=11, spread="variance")
        assert sched.values.std() ** 2 == pytest.approx(0.01, rel=0.02)

    def test_segment_duration(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = fl.sample_schedule(0.1, n_segments=100, total_scaled_time=5.0)
        assert sched.segment_duration(p) == pytest.approx(to_physical_time(5.0, p) / 100)

    def test_segment_duration_rejects_uncoupled_cavities(self):
        sched = fl.sample_schedule(0.1, n_segments=10)
        with pytest.raises(ValueError, match="uncoupled"):
            sched.segment_duration(ModelParams(1.0, 0.0, 0.0, 5))


class TestPropagatePiecewise:
    def test_segment_count_is_the_length_of_values(self):
        # a stored segment count could disagree with the values it counts
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = fl.FluctuationSchedule(1.0, np.full(10, 0.3))
        assert sched.n_segments == 10
        assert sched.segment_duration(p) == to_physical_time(1.0, p) / 10
        t_scaled, y = fl.propagate_piecewise(p, sched)
        assert t_scaled.shape == y.shape == (11,)

    def test_constant_schedule_matches_single_shot(self):
        # a schedule with identical segments must compose to the one-step
        # propagator result at each boundary
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = fl.FluctuationSchedule(1.0, np.full(20, 0.1))
        t_scaled, y = fl.propagate_piecewise(p, sched)
        p_eps = replace(p, epsilon=0.1)
        for s, y_k in zip(t_scaled, y):
            t = to_physical_time(s, p) if s > 0 else 0.0
            y_ref = hb.covariance_series(p_eps, t)
            assert y_k == pytest.approx(y_ref, abs=1e-9)

    def test_zero_pump_reproduces_closed_form(self):
        p = ModelParams(1.0, 0.1, 0.0, 5)
        sched = fl.FluctuationSchedule(1.0, np.zeros(40))
        t_scaled, y = fl.propagate_piecewise(p, sched)
        n = p.n_initial
        expected = n * np.abs(np.sin(2 * np.pi * t_scaled)) / (
            2 * np.sqrt(2 * (n * np.cos(np.pi * t_scaled) ** 2 + 0.5)
                        * (n * np.sin(np.pi * t_scaled) ** 2 + 0.5))
        )
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_cumulative_symplectic_drift_small(self):
        # 100 compositions should not accumulate appreciable group error
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = fl.sample_schedule(0.1, n_segments=100, seed=3)
        dt = sched.segment_duration(p)
        s_total = np.eye(4, dtype=complex)
        for eps_k in sched.values:
            s_total = hb.propagators(replace(p, epsilon=eps_k), dt) @ s_total
        drift = np.abs(s_total @ SIGMA @ s_total.conj().T - SIGMA).max()
        assert drift / max(1.0, np.abs(s_total).max() ** 2) < 1e-8

    def test_y_bounded(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = fl.sample_schedule(0.3, seed=5)
        _, y = fl.propagate_piecewise(p, sched)
        assert y.min() >= 0.0 and y.max() < 1.0

    def test_unstable_excursions_stay_finite(self):
        # small lambda + strong pump: individual segments cross the
        # instability threshold; rescaling must keep Y finite and bounded
        p = ModelParams(1.0, 0.001, 0.0, 5)
        sched = fl.sample_schedule(0.6, seed=9)
        _, y = fl.propagate_piecewise(p, sched)
        assert np.all(np.isfinite(y))
        assert y.max() <= 1.0 + 1e-12

    def test_overflow_within_one_segment_is_refused(self):
        # lambda = 0.001, mean pump 0.6 over ten scaled time units in 100
        # segments: one segment's growth alone leaves double range, before
        # the rescale between segments can act
        p = ModelParams(1.0, 0.001, 0.6, 5)
        sched = _stacked([fl.sample_schedule(0.6, 100, 10.0, seed=fl.trial_seed(3, k))
                          for k in range(5)])
        with pytest.raises(ValueError, match=r"segment 10 of 100 at lambda = 0\.001; "
                                             r"use more segments"):
            fl.propagate_piecewise(p, sched)
        finer = replace(sched, values=np.repeat(sched.values, 4, axis=1))
        assert np.all(np.isfinite(fl.propagate_piecewise(p, finer)[1]))


def _stacked(schedules):
    first = schedules[0]
    values = np.stack([sched.values for sched in schedules])
    return fl.FluctuationSchedule(first.total_scaled_time, values)


class TestBatchedPropagation:
    def test_rows_equal_single_schedule_runs(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        singles = [fl.sample_schedule(0.3, n_segments=30, seed=k) for k in range(4)]
        t_batch, y_batch = fl.propagate_piecewise(p, _stacked(singles))
        assert y_batch.shape == (4, 31) and y_batch.flags.c_contiguous
        for sched, row in zip(singles, y_batch):
            t_single, y_single = fl.propagate_piecewise(p, sched)
            assert np.array_equal(t_single, t_batch)
            assert np.array_equal(row, y_single)

    def test_rescaling_one_row_leaves_the_other_untouched(self):
        # mean 0.6 at lambda = 0.001 crosses the instability threshold and
        # rescales; mean 0.3 stays stable and is never rescaled
        p = ModelParams(1.0, 0.001, 0.0, 5)
        unstable = fl.sample_schedule(0.6, seed=9)
        stable = fl.sample_schedule(0.3, seed=9)
        _, y_batch = fl.propagate_piecewise(p, _stacked([unstable, stable]))
        _, y_unstable = fl.propagate_piecewise(p, unstable)
        _, y_stable = fl.propagate_piecewise(p, stable)
        assert np.array_equal(y_batch[0], y_unstable)
        assert np.array_equal(y_batch[1], y_stable)
        # the unstable row's moments do pass the rescale threshold
        dt = unstable.segment_duration(p)
        g, log_peak = hb.initial_moments(5), 0.0
        for eps_k in unstable.values:
            s = hb.propagators(replace(p, epsilon=eps_k), dt)
            g = s @ g @ s.T
            log_peak += np.log(np.abs(g).max())
            g /= np.abs(g).max()
        assert log_peak > np.log(fl.RESCALE_THRESHOLD)

    def test_ensemble_trials_equal_per_trial_runs(self):
        p = ModelParams(1.0, 0.05, 0.3, 5)
        ens = fl.run_ensemble(p, 0.3, n_trials=3, master_seed=21, n_segments=20,
                              total_scaled_time=2.0)
        for k, row in enumerate(ens.trials):
            sched = fl.sample_schedule(0.3, 20, 2.0, seed=fl.trial_seed(21, k))
            assert np.array_equal(row, fl.propagate_piecewise(p, sched)[1])


class TestRunEnsemble:
    def test_bit_identical_reruns(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        a = fl.run_ensemble(p, 0.1, n_trials=4, master_seed=77)
        b = fl.run_ensemble(p, 0.1, n_trials=4, master_seed=77)
        assert np.array_equal(a.trials, b.trials)

    def test_trials_are_independent(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        result = fl.run_ensemble(p, 0.3, n_trials=3, master_seed=1)
        assert not np.array_equal(result.trials[0], result.trials[1])

    def test_zero_trials_rejected(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        with pytest.raises(ValueError):
            fl.run_ensemble(p, 0.1, n_trials=0)

    def test_mean_zero_pump_has_zero_spread(self):
        p = ModelParams(1.0, 0.1, 0.0, 5)
        result = fl.run_ensemble(p, 0.0, n_trials=3, master_seed=0, total_scaled_time=1.0)
        # identical trials; anything above mean-subtraction rounding fails
        assert result.std.max() < 1e-15
        assert result.cv.max() < 1e-15

    def test_strong_pump_spreads_more_than_weak(self):
        # directional claim checked across several master seeds: the
        # fractional spread at mean 0.3 exceeds the spread at mean 0.001
        # every time, and the weak-pump spread is tiny
        p = ModelParams(1.0, 0.001, 0.0, 5)
        for seed in range(5):
            strong = fl.run_ensemble(p, 0.3, n_trials=6, master_seed=seed)
            weak = fl.run_ensemble(p, 0.001, n_trials=6, master_seed=seed)
            _, cv_strong = fl.spread_statistics(strong)
            _, cv_weak = fl.spread_statistics(weak)
            assert cv_strong > cv_weak
            assert cv_weak < 1e-2


class TestSpreadStatistics:
    def test_single_trial_rejected(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        result = fl.run_ensemble(p, 0.1, n_trials=1, master_seed=0, total_scaled_time=1.0)
        with pytest.raises(ValueError):
            fl.spread_statistics(result)

    def test_returns_max_over_time(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        result = fl.run_ensemble(p, 0.1, n_trials=4, master_seed=0, total_scaled_time=1.0)
        max_std, max_cv = fl.spread_statistics(result)
        assert max_std == result.std.max()
        assert max_cv == result.cv.max()
