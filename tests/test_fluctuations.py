from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cavityent import fluctuations as fl
from cavityent import heisenberg as hb
from cavityent.params import ModelParams, covariance_measure, to_physical_time

# symplectic form of (a, b, a^dag, b^dag): S SIGMA S^dag = SIGMA for every propagator
SIGMA = np.diag([1.0, 1.0, -1.0, -1.0])


def _trial(mean, master_seed, **kwargs):
    """Trial 0 of a drawn batch, as a schedule of its own."""
    batch = fl.draw_schedules(mean, n_trials=1, master_seed=master_seed, **kwargs)
    return replace(batch, values=batch.values[0])


class TestSampleSchedule:
    def test_deterministic_for_fixed_seed(self):
        a = fl.draw_schedules(0.3, n_trials=3, master_seed=42)
        b = fl.draw_schedules(0.3, n_trials=3, master_seed=42)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_values(self):
        a = fl.draw_schedules(0.3, n_trials=1, master_seed=1)
        b = fl.draw_schedules(0.3, n_trials=1, master_seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_zero_mean_gives_zero_schedule(self):
        sched = fl.draw_schedules(0.0, n_trials=2, master_seed=7)
        assert np.array_equal(sched.values, np.zeros((2, 100)))

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fl.draw_schedules(-0.1)

    def test_unknown_spread_rejected(self):
        with pytest.raises(ValueError, match="unknown spread mode 'sigma'"):
            fl.draw_schedules(0.1, spread="sigma")

    def test_law_of_large_numbers_std_mode(self):
        # sample mean of 1e5 draws lands within 5 standard errors
        sched = _trial(0.3, 11, n_segments=100_000, spread="std")
        sigma = 0.03
        assert abs(sched.values.mean() - 0.3) < 5 * sigma / np.sqrt(100_000)
        assert sched.values.std() == pytest.approx(sigma, rel=0.02)

    def test_variance_mode_scale(self):
        sched = _trial(0.1, 11, n_segments=100_000, spread="variance")
        assert sched.values.std() ** 2 == pytest.approx(0.01, rel=0.02)

    def test_segment_duration(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = fl.draw_schedules(0.1, n_segments=100, total_scaled_time=5.0)
        assert sched.segment_duration(p) == pytest.approx(to_physical_time(5.0, p) / 100)

    def test_segment_duration_rejects_uncoupled_cavities(self):
        sched = fl.draw_schedules(0.1, n_segments=10)
        with pytest.raises(ValueError, match="uncoupled"):
            sched.segment_duration(ModelParams(1.0, 0.0, 0.0, 5))

    @pytest.mark.parametrize("spread, sigma", [("std", 0.03), ("variance", np.sqrt(0.03))])
    def test_row_k_draws_from_its_trial_seed(self, spread, sigma):
        sched = fl.draw_schedules(0.3, n_trials=4, master_seed=5, n_segments=7, spread=spread)
        for k, row in enumerate(sched.values):
            expected = np.random.default_rng(fl.trial_seed(5, k)).normal(0.3, sigma, 7)
            assert np.array_equal(row, expected)


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
        sched = _trial(0.1, 3, n_segments=100)
        dt = sched.segment_duration(p)
        s_total = np.eye(4, dtype=complex)
        for eps_k in sched.values:
            s_total = hb.propagators(replace(p, epsilon=eps_k), dt) @ s_total
        drift = np.abs(s_total @ SIGMA @ s_total.conj().T - SIGMA).max()
        assert drift / max(1.0, np.abs(s_total).max() ** 2) < 1e-8

    def test_carried_pair_stays_symplectic(self):
        # the rows [u v] the ensemble carries, composed over 100 segments:
        # u u^dag - v v^dag = I and u v^T - v u^T = 0 (S SIGMA S^dag = SIGMA
        # and the commutators [a, b] = 0 of the evolved fields)
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = _trial(0.1, 3, n_segments=100)
        # all 100 segments fall in one block: rows from one _rows call, as
        # propagate_piecewise builds them, then composed one segment at a time
        assert sched.n_segments <= fl.BLOCK_CELLS
        re, im, _ = hb._rows(replace(p, epsilon=sched.values), sched.segment_duration(p))
        pair = np.eye(2, 4)
        for k in range(sched.n_segments):
            pair = hb.compose(re[:, :, k] + 1j * im[:, :, k], pair)
        u, v = pair[:, :2], pair[:, 2:]
        scale = max(1.0, np.abs(pair).max() ** 2)
        assert np.abs(u @ u.conj().T - v @ v.conj().T - np.eye(2)).max() / scale < 1e-8
        assert np.abs(u @ v.T - v @ u.T).max() / scale < 1e-8

    def test_y_bounded(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        sched = _trial(0.3, 5)
        _, y = fl.propagate_piecewise(p, sched)
        assert y.min() >= 0.0 and y.max() < 1.0

    def test_unstable_excursions_stay_finite(self):
        # small lambda + strong pump: individual segments cross the
        # instability threshold; rescaling must keep Y finite and bounded
        p = ModelParams(1.0, 0.001, 0.0, 5)
        sched = _trial(0.6, 9)
        _, y = fl.propagate_piecewise(p, sched)
        assert np.all(np.isfinite(y))
        assert y.max() <= 1.0 + 1e-12

    def test_overflow_within_one_segment_is_refused(self):
        # lambda = 0.001, mean pump 0.6 over twenty scaled time units in 100
        # segments: one segment's growth alone leaves double range, before
        # the rescale between segments can act
        sched = _overflow_schedule(20.0)
        with pytest.raises(ValueError, match=r"segment 10 of 100 at lambda = 0\.001; "
                                             r"use more segments"):
            fl.propagate_piecewise(_OVERFLOW_PARAMS, sched)
        finer = replace(sched, values=np.repeat(sched.values, 4, axis=1))
        assert np.all(np.isfinite(fl.propagate_piecewise(_OVERFLOW_PARAMS, finer)[1]))

    def test_long_unstable_run_equals_a_finer_schedule(self):
        # over ten scaled time units the pair, the square root of the moments,
        # stays in double range where the moments would leave it in segment 10
        sched = _overflow_schedule(10.0)
        _, y = fl.propagate_piecewise(_OVERFLOW_PARAMS, sched)
        finer = replace(sched, values=np.repeat(sched.values, 4, axis=1))
        _, y_finer = fl.propagate_piecewise(_OVERFLOW_PARAMS, finer)
        assert np.abs(y - y_finer[:, ::4]).max() <= 1e-12

    @pytest.mark.parametrize("lam, mean", [(0.05, 0.3), (0.001, 0.6)], ids=["stable", "rescaled"])
    def test_matches_dense_congruence_per_segment(self, lam, mean):
        # the rescaled batch's worst gap, 6.6e-13, is scipy's expm on unstable
        # segments: on trial 2 the carried pair meets a 40-digit expm to 2.2e-16
        p = ModelParams(1.0, lam, 0.0, 5)
        sched = fl.draw_schedules(mean, n_trials=5, master_seed=3)
        _, y = fl.propagate_piecewise(p, sched)
        reference, rescaled = zip(*(_congruence_y(p, row, sched.segment_duration(p))
                                    for row in sched.values))
        assert any(rescaled) == (mean == 0.6)
        assert np.abs(y - np.array(reference)).max() <= 1e-12


class TestBlocks:
    @pytest.mark.parametrize("lam, mean", [(0.05, 0.3), (0.001, 0.6)], ids=["stable", "rescaled"])
    def test_blocks_equal_a_per_segment_loop(self, lam, mean):
        # 300 trials put 13 segments in a block: 100 segments are 7 whole
        # blocks and a partial one of 9
        p = ModelParams(1.0, lam, 0.0, 5)
        sched = fl.draw_schedules(mean, n_trials=300, master_seed=4)
        per_block = fl.BLOCK_CELLS // 300
        assert sched.n_segments // per_block >= 3 and sched.n_segments % per_block
        y, log_scale = _per_segment_y(p, sched)
        assert np.array_equal(fl.propagate_piecewise(p, sched)[1], y)
        assert (log_scale > 0).any() == (mean == 0.6)

    @pytest.mark.parametrize("omega, lam, odd_eps", [(1.0, 1.0, 0.0), (1.0, 2.5, 1.5)],
                             ids=["degenerate", "complex-B"])
    def test_one_odd_segment_leaves_every_row_its_own_bits(self, omega, lam, odd_eps):
        # at omega = lambda, epsilon = 0 gives alpha = 0 (dense expm); past
        # lambda = 2 omega, epsilon = 1.5 gives a complex B.  One such segment
        # of one trial shares a block with the other trials' real-path segments
        p = ModelParams(omega, lam, 0.0, 5)
        values = np.random.default_rng(8).normal(0.3, 0.03, (3, 20))
        values[1, 7] = odd_eps
        sched = fl.FluctuationSchedule(0.5, values)
        paths = hb.paths(hb.spectral(replace(p, epsilon=values)))
        assert np.count_nonzero(paths != hb.REAL) == 1
        assert paths[1, 7] == (hb.DENSE if odd_eps == 0.0 else hb.COMPLEX)
        _, y = fl.propagate_piecewise(p, sched)
        for row, trial in zip(y, values):
            alone = fl.propagate_piecewise(p, replace(sched, values=trial))[1]
            assert np.array_equal(row, alone)
        reference = [_congruence_y(p, row, sched.segment_duration(p))[0] for row in values]
        assert np.abs(y - np.array(reference)).max() <= 1e-12


def _per_segment_y(p, sched):
    # propagate_piecewise one segment at a time: rows of S from their own
    # _rows call, the same composition and rescale, Y read at every boundary
    dt = sched.segment_duration(p)
    pair, log_scale = np.eye(2, 4), np.zeros(sched.values.shape[:-1])
    y = [np.broadcast_to(covariance_measure(*hb.pair_moments(pair, p.n_initial)), log_scale.shape)]
    for k in range(sched.n_segments):
        with np.errstate(over="ignore", invalid="ignore"):
            re, im, _ = hb._rows(replace(p, epsilon=sched.values[..., k]), dt)
            pair = hb.compose(re + 1j * im, pair)
        peak = np.abs(pair).max(axis=(0, 1))
        grown = peak > fl.RESCALE_THRESHOLD
        pair = np.where(grown, pair / peak, pair)
        log_scale = log_scale + np.where(grown, 2.0 * np.log(peak), 0.0)
        half = np.where(log_scale < 700.0, 0.5 * np.exp(-log_scale), 0.0)
        y.append(covariance_measure(*hb.pair_moments(pair, p.n_initial), half))
    return np.stack(y, axis=-1), log_scale


_OVERFLOW_PARAMS = ModelParams(1.0, 0.001, 0.6, 5)


def _overflow_schedule(total_scaled_time):
    return fl.draw_schedules(0.6, n_trials=5, master_seed=3, total_scaled_time=total_scaled_time)


def _initial_moments(n):
    # <v_i v_j> of |N,0> over v = (a, b, a^dag, b^dag)
    g = np.zeros((4, 4), dtype=complex)
    g[0, 2], g[1, 3], g[2, 0] = n + 1.0, 1.0, n  # <a a^dag>, <b b^dag>, <a^dag a>
    return g


def _congruence_y(p, values, dt):
    # Y at each boundary from a dense expm per segment and G -> S G S^T,
    # G divided by its peak where that passes 1e100; returns (Y, whether G
    # was rescaled).  Y(0) = 0: |N,0> is a product state
    g, log_scale = _initial_moments(p.n_initial), 0.0
    y = [0.0]
    for eps_k in values:
        s = expm(-1j * dt * hb.build_matrix(replace(p, epsilon=eps_k)))
        g = s @ g @ s.T
        peak = np.abs(g).max()
        if peak > 1e100:
            g, log_scale = g / peak, log_scale + np.log(peak)
        y.append(covariance_measure(g[0, 1], g[0, 3], g[2, 0].real, g[3, 1].real,
                                    0.5 * np.exp(-log_scale)))
    return y, log_scale > 0.0


class TestBatchedPropagation:
    def test_rows_equal_single_schedule_runs(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        batch = fl.draw_schedules(0.3, n_trials=4, n_segments=30)
        t_batch, y_batch = fl.propagate_piecewise(p, batch)
        assert y_batch.shape == (4, 31) and y_batch.flags.c_contiguous
        for values, row in zip(batch.values, y_batch):
            t_single, y_single = fl.propagate_piecewise(p, replace(batch, values=values))
            assert np.array_equal(t_single, t_batch)
            assert np.array_equal(row, y_single)

    def test_rescaling_one_row_leaves_the_other_untouched(self):
        # mean 0.6 at lambda = 0.001 crosses the instability threshold and
        # rescales; mean 0.3 stays stable and is never rescaled
        p = ModelParams(1.0, 0.001, 0.0, 5)
        unstable = _trial(0.6, 9)
        stable = _trial(0.3, 9)
        both = replace(unstable, values=np.stack([unstable.values, stable.values]))
        _, y_batch = fl.propagate_piecewise(p, both)
        _, y_unstable = fl.propagate_piecewise(p, unstable)
        _, y_stable = fl.propagate_piecewise(p, stable)
        assert np.array_equal(y_batch[0], y_unstable)
        assert np.array_equal(y_batch[1], y_stable)
        # the unstable row's moments do pass the rescale threshold, the square of the pair's
        dt = unstable.segment_duration(p)
        g, log_peak = _initial_moments(5), 0.0
        for eps_k in unstable.values:
            s = hb.propagators(replace(p, epsilon=eps_k), dt)
            g = s @ g @ s.T
            log_peak += np.log(np.abs(g).max())
            g /= np.abs(g).max()
        assert log_peak > np.log(fl.RESCALE_THRESHOLD ** 2)

    def test_ensemble_trials_equal_per_trial_runs(self):
        p = ModelParams(1.0, 0.05, 0.3, 5)
        ens = fl.ensemble_of(p, fl.draw_schedules(0.3, n_trials=3, master_seed=21, n_segments=20,
                                                  total_scaled_time=2.0))
        for k, row in enumerate(ens.trials):
            values = np.random.default_rng(fl.trial_seed(21, k)).normal(0.3, 0.03, 20)
            sched = fl.FluctuationSchedule(2.0, values)
            assert np.array_equal(row, fl.propagate_piecewise(p, sched)[1])


class TestRunEnsemble:
    def test_bit_identical_reruns(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        a = fl.ensemble_of(p, fl.draw_schedules(0.1, n_trials=4, master_seed=77))
        b = fl.ensemble_of(p, fl.draw_schedules(0.1, n_trials=4, master_seed=77))
        assert np.array_equal(a.trials, b.trials)

    def test_trials_are_independent(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        result = fl.ensemble_of(p, fl.draw_schedules(0.3, n_trials=3, master_seed=1))
        assert not np.array_equal(result.trials[0], result.trials[1])

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            fl.draw_schedules(0.1, n_trials=0)

    @pytest.mark.parametrize("n_segments", [0, -1])
    def test_fewer_than_one_segment_rejected(self, n_segments):
        # 0 used to divide by zero in the segment duration, -1 to reach numpy's
        # "negative dimensions"; neither named the segment count
        with pytest.raises(ValueError, match=f"^need at least one pump segment, "
                                             f"got n_segments = {n_segments}$"):
            fl.ensemble_of(ModelParams(1, 0.05, 0, 5),
                           fl.draw_schedules(0.3, n_trials=2, n_segments=n_segments))

    def test_params_epsilon_is_not_read(self):
        # the schedules are the pump
        batch = fl.draw_schedules(0.3, n_trials=3, master_seed=12345)
        unpumped = fl.ensemble_of(ModelParams(1.0, 0.05, 0.0, 5), batch)
        pumped = fl.ensemble_of(ModelParams(1.0, 0.05, 0.45, 5), batch)
        assert np.array_equal(unpumped.trials, pumped.trials)

    def test_mean_zero_pump_has_zero_spread(self):
        p = ModelParams(1.0, 0.1, 0.0, 5)
        result = fl.ensemble_of(p, fl.draw_schedules(0.0, n_trials=3, master_seed=0,
                                                     total_scaled_time=1.0))
        # identical trials; anything above mean-subtraction rounding fails
        assert result.std.max() < 1e-15
        assert result.cv.max() < 1e-15

    def test_strong_pump_spreads_more_than_weak(self):
        # directional claim checked across several master seeds: the
        # fractional spread at mean 0.3 exceeds the spread at mean 0.001
        # every time, and the weak-pump spread is tiny
        p = ModelParams(1.0, 0.001, 0.0, 5)
        for seed in range(5):
            strong = fl.ensemble_of(p, fl.draw_schedules(0.3, n_trials=6, master_seed=seed))
            weak = fl.ensemble_of(p, fl.draw_schedules(0.001, n_trials=6, master_seed=seed))
            _, cv_strong = fl.spread_statistics(strong)
            _, cv_weak = fl.spread_statistics(weak)
            assert cv_strong > cv_weak
            assert cv_weak < 1e-2


class TestSpreadStatistics:
    def test_single_trial_rejected(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        result = fl.ensemble_of(p, fl.draw_schedules(0.1, n_trials=1, master_seed=0,
                                                     total_scaled_time=1.0))
        with pytest.raises(ValueError):
            fl.spread_statistics(result)

    def test_returns_max_over_time(self):
        p = ModelParams(1.0, 0.05, 0.0, 5)
        result = fl.ensemble_of(p, fl.draw_schedules(0.1, n_trials=4, master_seed=0,
                                                     total_scaled_time=1.0))
        max_std, max_cv = fl.spread_statistics(result)
        assert max_std == result.std.max()
        assert max_cv == result.cv.max()
