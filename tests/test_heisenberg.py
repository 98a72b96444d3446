import math

import numpy as np
import pytest
from scipy.linalg import expm

from cavityent import audit
from cavityent import binomial as bi
from cavityent import heisenberg as hb
from cavityent.params import ModelParams, covariance_measure, to_physical_time

# symplectic form of (a, b, a^dag, b^dag): S SIGMA S^dag = SIGMA for every propagator
SIGMA = np.diag([1.0, 1.0, -1.0, -1.0])


def rel_err(a, b):
    scale = max(1.0, np.abs(b).max())
    return np.abs(a - b).max() / scale


class TestCoefficientMatrix:
    def test_printed_entries(self):
        m = hb.build_matrix(ModelParams(1.0, 0.1, 0.1, 5))
        np.testing.assert_allclose(m[0], [1.0, 0.1, 0.2, 0.0])
        np.testing.assert_allclose(m[2], [-0.2, 0.0, -1.0, -0.1])

    def test_pump_free_block_structure(self):
        m = hb.build_matrix(ModelParams(1.0, 0.1, 0.0, 5))
        assert np.abs(m[:2, 2:]).max() == 0.0
        assert np.abs(m[2:, :2]).max() == 0.0

    def test_sigma_m_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = ModelParams(1.0, rng.uniform(0, 1), rng.uniform(-1, 1), 0)
            sm = SIGMA @ hb.build_matrix(p)
            assert np.abs(sm - sm.conj().T).max() == 0.0


class TestSpectral:
    def test_pump_free_values(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.0, 5))
        assert sd.A == pytest.approx(1.01)
        assert sd.B == pytest.approx(0.1)
        assert sd.alpha == pytest.approx(0.9)
        assert sd.gamma == pytest.approx(1.1)
        assert not sd.unstable

    def test_weak_hopping_strong_pump(self):
        sd = hb.spectral(ModelParams(1.0, 0.001, 0.3, 5))
        assert sd.A == pytest.approx(1.0 + 1e-6 - 0.18, abs=1e-12)
        assert sd.B == pytest.approx(math.sqrt(1e-6 - 9e-8 + 0.0081), abs=1e-12)

    def test_eigenvalue_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = ModelParams(1.0, rng.uniform(1e-3, 0.5), rng.uniform(0, 0.6), 0)
            sd = hb.spectral(p)
            assert sd.gamma ** 2 - sd.alpha ** 2 == pytest.approx(4.0 * sd.B, abs=1e-12)
            # +-alpha and +-gamma are eigenvalues of M: det(M - theta I) vanishes
            m = hb.build_matrix(p)
            scale = max(1.0, abs(sd.alpha), abs(sd.gamma)) ** 4
            for theta in (sd.alpha, -sd.alpha, sd.gamma, -sd.gamma):
                assert abs(np.linalg.det(m - theta * np.eye(4))) <= 1e-8 * scale

    def test_unstable_regime_flagged(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.6, 5))
        assert sd.unstable
        assert abs(sd.alpha.real) < 1e-12 and sd.alpha.imag > 0

    def test_epsilon_array_matches_scalars(self):
        eps = np.array([0.0, 0.1, 0.3, 0.6])
        batch = hb.spectral(ModelParams(1.0, 0.05, eps, 5))
        for k, e in enumerate(eps):
            single = hb.spectral(ModelParams(1.0, 0.05, float(e), 5))
            for field in ("A", "B", "alpha", "gamma", "unstable"):
                assert np.array_equal(getattr(batch, field)[k], getattr(single, field))
        assert batch.unstable.tolist() == [False, False, False, True]


class TestChCoefficients:
    def test_identity_at_t0(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.1, 5))
        np.testing.assert_allclose(hb.ch_coefficients(sd, 0.0), [1, 0, 0, 0], atol=1e-14)

    def test_printed_signs_fail_identity(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.1, 5))
        printed = audit.printed_ch_coefficients(sd, 0.0)
        assert printed[0] == pytest.approx(-1.0, abs=1e-14)

    def test_interpolation_property(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.0, 5))
        for t in (0.7, 5.0, 31.4):
            c = hb.ch_coefficients(sd, t)
            for theta in (0.9, -0.9, 1.1, -1.1):
                value = c[0] + c[1] * theta + c[2] * theta ** 2 + c[3] * theta ** 3
                assert value == pytest.approx(np.exp(-1j * theta * t), abs=1e-10)

    def test_degenerate_spectrum_raises(self):
        sd = hb.spectral(ModelParams(1.0, 0.0, 0.0, 0))  # B = 0
        with pytest.raises(hb.DegenerateSpectrumError):
            hb.ch_coefficients(sd, 1.0)


class TestPropagator:
    def test_identity_at_t0(self):
        s = hb.propagators(ModelParams(1.0, 0.1, 0.1, 5), 0.0)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-14)

    def test_pump_free_reduction_to_two_by_two(self):
        p = ModelParams(1.0, 0.1, 0.0, 5)
        t = 7.3
        s = hb.propagators(p, t)
        block = expm(-1j * t * np.array([[1.0, 0.1], [0.1, 1.0]]))
        np.testing.assert_allclose(s[:2, :2], block, atol=1e-12)
        assert np.abs(s[:2, 2:]).max() < 1e-12

    def test_matches_dense_exponential_and_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = ModelParams(1.0, rng.uniform(1e-3, 0.2), rng.uniform(0.0, 0.5), 5)
            t = rng.uniform(0.0, 2.0) * math.pi / p.lam
            s = hb.propagators(p, t)
            assert rel_err(s, expm(-1j * t * hb.build_matrix(p))) < 1e-9
            # symplectic condition, scaled by ||S||^2 since the products
            # in S Sigma S^dag grow quadratically in unstable draws
            sym = np.abs(s @ SIGMA @ s.conj().T - SIGMA).max()
            assert sym / max(1.0, np.abs(s).max() ** 2) < 1e-9

    def test_group_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = ModelParams(1.0, rng.uniform(1e-3, 0.2), rng.uniform(0.0, 0.4), 5)
            t1, t2 = rng.uniform(0, 30, 2)
            s12 = hb.propagators(p, t1 + t2)
            assert rel_err(hb.propagators(p, t2) @ hb.propagators(p, t1), s12) < 1e-9

    def test_conjugation_structure(self):
        p = ModelParams(1.0, 0.07, 0.21, 5)
        s = hb.propagators(p, 11.0)
        # rows for (a^dag, b^dag) mirror rows for (a, b) with the block swap
        swap = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        np.testing.assert_allclose(s[2:, :], np.conj(swap @ s @ swap)[2:, :], atol=1e-12)

    def test_degenerate_fallback_is_total(self):
        # lambda = 0 (and epsilon = 0) collapses the spectrum; dense path takes over
        p = ModelParams(1.0, 0.0, 0.0, 3)
        s = hb.propagators(p, 2.0)
        np.testing.assert_allclose(s, expm(-1j * 2.0 * hb.build_matrix(p)), atol=1e-12)

    def test_vectorized_matches_scalar(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        times = np.linspace(0.0, 20.0, 7)
        stack = hb.propagators(p, times)
        assert stack.shape == (7, 4, 4)
        for t, s in zip(times, stack):
            assert hb.propagators(p, t).shape == (4, 4)
            np.testing.assert_allclose(s, hb.propagators(p, t), atol=1e-12)

    def test_epsilon_array_matches_scalar_calls(self):
        # zero, stable and unstable pump in one batch, bit for bit
        eps = np.array([0.0, 0.1, 0.3, 0.6])
        p = ModelParams(1.0, 0.05, eps, 5)
        stack = hb.propagators(p, 17.0)
        assert stack.shape == (4, 4, 4)
        for e, s in zip(eps, stack):
            assert np.array_equal(s, hb.propagators(ModelParams(1.0, 0.05, float(e), 5), 17.0))
        single = hb.build_matrix(ModelParams(1.0, 0.05, 0.6, 5))
        assert np.array_equal(hb.build_matrix(p)[3], single)

    def test_epsilon_and_time_broadcast(self):
        eps = np.array([[0.1], [0.6]])
        times = np.array([0.0, 3.0, 40.0])
        stack = hb.propagators(ModelParams(1.0, 0.05, eps, 5), times)
        assert stack.shape == (2, 3, 4, 4)
        for i, e in enumerate(eps[:, 0]):
            for j, t in enumerate(times):
                single = hb.propagators(ModelParams(1.0, 0.05, float(e), 5), t)
                assert np.array_equal(stack[i, j], single)

    def test_one_degenerate_epsilon_sends_batch_to_expm(self):
        # at lambda = 0.1 the threshold epsilon = (1 - 0.01)/2 makes alpha = 0
        eps = np.array([[0.1, 0.495], [0.3, 0.0]])
        p = ModelParams(1.0, 0.1, eps, 5)
        with pytest.raises(hb.DegenerateSpectrumError):
            hb.ch_coefficients(hb.spectral(p), 2.0)
        stack = hb.propagators(p, 2.0)
        assert stack.shape == eps.shape + (4, 4)
        m = hb.build_matrix(p)
        for idx in np.ndindex(eps.shape):
            assert np.array_equal(stack[idx], expm(-1j * 2.0 * m[idx]))

    def test_degenerate_fallback_keeps_time_shape(self):
        p = ModelParams(1.0, 0.0, 0.0, 3)
        times = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
        stack = hb.propagators(p, times)
        assert stack.shape == (2, 3, 4, 4)
        np.testing.assert_array_equal(stack[0, 2], hb.propagators(p, 2.0))


class TestStructureFunctions:
    def test_identity_pattern_at_t0(self):
        f = audit.structure_functions(ModelParams(1.0, 0.1, 0.1, 5), 0.0)
        assert f.u == pytest.approx(1.0, abs=1e-12)
        assert f.x == pytest.approx(1.0, abs=1e-12)
        for value in (f.v, f.w, f.y_coef, f.z_coef):
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_pump_free_kills_epsilon_factors(self):
        f = audit.structure_functions(ModelParams(1.0, 0.1, 0.0, 5), 3.0)
        assert f.w == 0.0 and f.y_coef == 0.0 and f.z_coef == 0.0

    def test_signed_arguments_change_values(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        f_pp = audit.structure_functions(p, 4.0, +1, +1)
        f_mm = audit.structure_functions(p, 4.0, -1, -1)
        assert f_pp.u != f_mm.u


class TestMoments:
    def test_initial_moments(self):
        cab, cabd, na, nb = hb.transported_moment_arrays(ModelParams(1.0, 0.1, 0.1, 5), 0.0)
        assert cab == pytest.approx(0.0, abs=1e-12)
        assert cabd == pytest.approx(0.0, abs=1e-12)
        assert na == pytest.approx(5.0, abs=1e-12)
        assert nb == pytest.approx(0.0, abs=1e-12)

    def test_pump_free_quarter_period(self):
        p = ModelParams(1.0, 0.1, 0.0, 5)
        cab, cabd, na, nb = hb.transported_moment_arrays(p, to_physical_time(0.25, p))
        assert abs(cabd) == pytest.approx(2.5, abs=1e-10)
        assert abs(cab) == pytest.approx(0.0, abs=1e-10)
        assert na == pytest.approx(2.5, abs=1e-10)
        assert nb == pytest.approx(2.5, abs=1e-10)

    def test_scalar_time_matches_grid(self):
        p = ModelParams(1.0, 0.07, 0.21, 5)
        times = np.linspace(0.0, 40.0, 9)
        grid = hb.transported_moment_arrays(p, times)
        for k, t in enumerate(times):
            for scalar, column in zip(hb.transported_moment_arrays(p, t), grid):
                assert np.shape(scalar) == ()
                assert scalar == column[k]

    def test_pump_free_equivalence_to_closed_form(self):
        p = ModelParams(1.0, 0.1, 0.0, 5)
        t = to_physical_time(np.linspace(0.0, 1.0, 301), p)
        y_transport = hb.covariance_series(p, t)
        y_closed = bi.covariance_measure_closed(5, 0.1, t)
        np.testing.assert_allclose(y_transport, y_closed, atol=1e-9)

    def test_photon_numbers_nonnegative(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        _, _, na, nb = hb.transported_moment_arrays(p, np.linspace(0, 60, 121))
        assert na.min() > -1e-9 and nb.min() > -1e-9

    def test_moments_of_reads_initial_entries(self):
        g = hb.initial_moments(5)
        assert hb.moments_of(g) == (0j, 0j, 5.0, 0.0)
        stack = hb.moments_of(np.stack([g, 2.0 * g]))
        assert [np.shape(q) for q in stack] == [(2,)] * 4
        assert stack[2].tolist() == [5.0, 10.0]

    def test_covariance_measure_zero_for_product_moments(self):
        assert covariance_measure(0j, 0j, 5.0, 0.0) == 0.0

    def test_peak_y_for_equal_couplings(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        t = to_physical_time(np.linspace(0.0, 1.0, 4001), p)
        assert hb.covariance_series(p, t).max() == pytest.approx(0.6, abs=0.05)


def _full_congruence_moments(p, t):
    # every entry of S G(0) S^T, then the four that Y reads
    s = hb.propagators(p, t)
    g = np.einsum("...ik,kl,...jl->...ij", s, hb.initial_moments(p.n_initial), s)
    return hb.moments_of(g)


def _einsum_propagators(p, t):
    m = hb.build_matrix(p)
    powers = np.stack([np.broadcast_to(np.eye(4), m.shape), m, m @ m, m @ m @ m], axis=-3)
    return np.einsum("k...,...kij->...ij", hb.ch_coefficients(hb.spectral(p), t), powers)


class TestMomentKernel:
    """The four-entry moment kernel against the full congruence S G(0) S^T."""

    def assert_matches_full_congruence(self, p, t):
        kernel = hb.transported_moment_arrays(p, t)
        reference = _full_congruence_moments(p, t)
        for q, ref in zip(kernel, reference):
            assert np.shape(q) == np.shape(ref)
            assert np.all(np.isfinite(q))
            assert np.abs(q - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("lam", [0.001, 0.05, 0.3])
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.9])
    def test_stable(self, lam, eps):
        p = ModelParams(2.0, lam, eps, 5)
        assert not hb.spectral(p).unstable
        self.assert_matches_full_congruence(p, np.linspace(0.0, 60.0, 241))

    def test_unstable(self):
        p = ModelParams(1.0, 0.1, 0.6, 5)
        assert hb.spectral(p).unstable
        self.assert_matches_full_congruence(p, np.linspace(0.0, 40.0, 161))

    def test_dense_expm_fallback(self):
        # alpha = 0 at the threshold epsilon = (omega^2 - lambda^2) / (2 omega)
        p = ModelParams(1.0, 0.1, 0.495, 3)
        with pytest.raises(hb.DegenerateSpectrumError):
            hb.ch_coefficients(hb.spectral(p), 1.0)
        self.assert_matches_full_congruence(p, np.linspace(0.0, 30.0, 61))

    def test_epsilon_column_broadcast_against_times(self):
        p = ModelParams(1.0, 0.05, np.array([[0.1], [0.3], [0.6]]), 5)
        times = np.linspace(0.0, 30.0, 5)
        assert hb.transported_moment_arrays(p, times)[0].shape == (3, 5)
        self.assert_matches_full_congruence(p, times)

    @pytest.mark.parametrize("p, t", [
        (ModelParams(2.0, 0.05, 0.2, 5), np.linspace(0.0, 60.0, 241)),
        (ModelParams(1.0, 0.1, 0.6, 5), np.linspace(0.0, 40.0, 161)),
        (ModelParams(1.0, 0.05, np.array([[0.1], [0.3], [0.6]]), 5), np.linspace(0.0, 30.0, 5)),
        (ModelParams(1.0, 0.001, np.linspace(0.24, 0.36, 300), 5), 0.37),
    ])
    def test_propagators_equal_einsum_reference(self, p, t):
        assert np.array_equal(hb.propagators(p, t), _einsum_propagators(p, t), equal_nan=True)


class TestPhotonDifferenceRatio:
    def test_all_photons_one_mode(self):
        # |5,0> at t = 0
        assert hb.photon_ratio_series(ModelParams(1.0, 0.1, 0.1, 5), 0.0) == 1.0

    def test_equal_means(self):
        # pump-free quarter period: the photons are split evenly
        p = ModelParams(1.0, 0.1, 0.0, 5)
        ratio = hb.photon_ratio_series(p, to_physical_time(0.25, p))
        assert ratio == pytest.approx(0.0, abs=1e-10)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            hb.photon_ratio_series(ModelParams(1.0, 0.1, 0.0, 0), 0.0)

    def test_weak_hopping_ratio_stays_high(self):
        p = ModelParams(1.0, 0.001, 0.1, 5)
        t = to_physical_time(np.linspace(0.0, 1.0, 501), p)
        assert hb.photon_ratio_series(p, t).min() > 0.8

    def test_ratio_minima_align_with_y_peaks(self):
        # on the equal-coupling trace, Y peaks near where the photon numbers
        # meet; the pump shifts the two extrema by a few grid steps, so the
        # check is a window (1% of the grid) over the first half period
        for lam, eps in ((0.1, 0.1), (0.001, 0.001)):
            p = ModelParams(1.0, lam, eps, 5)
            t = to_physical_time(np.linspace(0.0, 0.5, 2001), p)
            y = hb.covariance_series(p, t)
            ratio = hb.photon_ratio_series(p, t)
            assert abs(int(np.argmax(y)) - int(np.argmin(ratio))) <= 20


class TestAudits:
    def test_closed_form_audit_consistent_at_t0(self):
        cab, cabd, na, nb = audit.moments_closed_form(ModelParams(1.0, 0.1, 0.1, 5), 0.0)
        assert cab == pytest.approx(0.0, abs=1e-12)
        assert cabd == pytest.approx(0.0, abs=1e-12)
        assert na == pytest.approx(5.0, abs=1e-12)
        assert nb == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_grid_matches_scalar_times(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        times = np.linspace(0.0, 31.4, 9)
        grid = audit.moments_closed_form(p, times)
        for k, t in enumerate(times):
            for scalar, column in zip(audit.moments_closed_form(p, t), grid):
                assert scalar == pytest.approx(column[k], rel=1e-12, abs=1e-12)

    def test_closed_form_audit_reports_deviations(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        dev = audit.closed_form_audit(p, np.linspace(0.0, 31.4, 9))
        assert set(dev) == {"cov_ab", "cov_ab_dagger", "mean_na", "mean_nb"}
        assert all(np.isfinite(v) for v in dev.values())

    def test_ch_sign_audit_separates_conventions(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        err = audit.ch_sign_audit(p, [0.0, 3.7, 31.4])
        assert err["corrected"] < 1e-9
        assert err["printed"] > 1e-2
