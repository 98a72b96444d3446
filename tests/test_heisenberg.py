import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cavityent import audit
from cavityent import binomial as bi
from cavityent import heisenberg as hb
from cavityent.params import ModelParams, covariance_measure, to_physical_time
from test_transport_reference import _reference

# symplectic form of (a, b, a^dag, b^dag): S SIGMA S^dag = SIGMA for every propagator
SIGMA = np.diag([1.0, 1.0, -1.0, -1.0])


def rel_err(a, b):
    scale = max(1.0, np.abs(b).max())
    return np.abs(a - b).max() / scale


def reference_error(x, ref):  # as in test_transport_reference: relative to max(1, |ref|)
    return float((np.abs(np.asarray(x) - ref) / np.maximum(1.0, np.abs(ref))).max())


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

    def test_complex_b_is_flagged_unstable(self):
        # lambda > 2 omega: B = 3.32i and alpha = 2.11 - 1.57i, so n_a grows
        # from 5 to about 4e13 by t = 10 although A - 2B has a positive real part
        p = ModelParams(1.0, 3.0, 2.0, 5)
        sd = hb.spectral(p)
        assert sd.B.real == 0.0 and sd.B.imag > 0 and (sd.A - 2.0 * sd.B).real > 0
        assert sd.unstable
        _, _, na, _ = hb.transported_moment_arrays(p, np.array([0.0, 5.0, 10.0]))
        assert na[0] == pytest.approx(5.0) and na[2] > 1e13


class TestChCoefficients:
    def test_identity_at_t0(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.1, 5))
        np.testing.assert_allclose(audit.ch_coefficients(sd, 0.0), [1, 0, 0, 0], atol=1e-14)

    def test_printed_signs_fail_identity(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.1, 5))
        printed = audit.printed_ch_coefficients(sd, 0.0)
        assert printed[0] == pytest.approx(-1.0, abs=1e-14)

    def test_interpolation_property(self):
        sd = hb.spectral(ModelParams(1.0, 0.1, 0.0, 5))
        for t in (0.7, 5.0, 31.4):
            c = audit.ch_coefficients(sd, t)
            for theta in (0.9, -0.9, 1.1, -1.1):
                value = c[0] + c[1] * theta + c[2] * theta ** 2 + c[3] * theta ** 3
                assert value == pytest.approx(np.exp(-1j * theta * t), abs=1e-10)

    def test_degenerate_spectrum_raises(self):
        sd = hb.spectral(ModelParams(1.0, 0.0, 0.0, 0))
        assert sd.B == 0
        with pytest.raises(ValueError, match=r"degenerate spectrum.*B = .*alpha = .*gamma = "):
            audit.ch_coefficients(sd, 1.0)


class TestExpm:
    def test_matches_scipy_on_stacked_stable_cells(self):
        rng = np.random.default_rng(13)
        eps = rng.uniform(0.0, 0.45, size=(3, 5))  # below the threshold 0.495 at lambda = 0.1
        times = rng.uniform(0.0, 100.0, size=(3, 5))
        a = -1j * times[..., None, None] * hb.build_matrix(ModelParams(1.0, 0.1, eps, 5))
        stack = audit.expm(a)
        assert stack.shape == (3, 5, 4, 4)
        for idx in np.ndindex(eps.shape):
            assert rel_err(stack[idx], expm(a[idx])) < 1e-12

    def test_batch_shape_and_members(self):
        # each matrix of a stack comes out as it does alone, bit for bit,
        # whatever its own scaling; zero gives the identity
        m = hb.build_matrix(ModelParams(1.0, 0.1, np.array([0.0, 0.2, 0.6]), 5))
        a = -1j * np.array([[0.0], [1e-3], [50.0]])[..., None, None] * m[None]
        stack = audit.expm(a)
        assert stack.shape == (3, 3, 4, 4)
        for idx in np.ndindex(3, 3):
            assert np.array_equal(stack[idx], audit.expm(a[idx]))
        assert np.array_equal(stack[0], np.broadcast_to(np.eye(4), (3, 4, 4)))
        assert audit.expm(np.zeros((4, 4))).shape == (4, 4)
        assert audit.expm(np.zeros((0, 4, 4))).shape == (0, 4, 4)


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
        # a^dag(t) = a(t)^dag: rows for (a^dag, b^dag) are the conjugate of the
        # rows for (a, b) with the column halves swapped, [v* u*], exactly
        cells = [
            (ModelParams(1.0, 0.07, 0.21, 5), 11.0),                        # stable
            (ModelParams(1.0, 0.1, 0.6, 5), np.linspace(0.0, 40.0, 9)),     # unstable
            (ModelParams(1.0, 3.0, 2.0, 5), np.array([0.0, 0.4, 3.0])),     # complex B
            (ModelParams(1.0, 0.1, 0.495, 5), np.array([0.0, 2.0, 30.0])),  # alpha = 0
            (ModelParams(1.0, 2.0, 1.41421356, 5), np.array([0.0, 2.0, 30.0])),  # B = 2e-8
            (ModelParams(1.0, 1e-3, 0.3, 5), 4000.0),                       # lambda = 1e-3
            (ModelParams(1.0, 0.05, np.array([[0.0], [0.1], [0.3], [0.6]]), 5),
             np.array([0.0, 3.0, 40.0])),                                   # epsilon batch
        ]
        for p, t in cells:
            s = hb.propagators(p, t)
            assert np.array_equal(s[..., 2:, :], np.conj(np.roll(s[..., :2, :], 2, axis=-1))), p

    def test_degenerate_fallback_is_total(self):
        # lambda = 0 (and epsilon = 0) collapses the spectrum, B = 0: Newton's form
        p = ModelParams(1.0, 0.0, 0.0, 3)
        s = hb.propagators(p, 2.0)
        np.testing.assert_allclose(s, expm(-1j * 2.0 * hb.build_matrix(p)), atol=1e-12)
        # omega = 0 too (unvalidated): M = 0, A = B = 0 and alpha = gamma = 0, so c = 0
        np.testing.assert_array_equal(hb.propagators(replace(p, omega=0.0), 2.0), np.eye(4))

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

    def test_a_batch_mixing_paths_gives_each_epsilon_its_own_bits(self):
        # at omega = 1, lambda = 3: epsilon = 0.5 takes Sylvester's real form, 1.5 has a
        # complex B, 4 has gamma = 0, and the root of B^2 near 1.07 takes Newton's form
        eps = np.array([[0.5, 1.5], [4.0, math.sqrt((9.0 - math.sqrt(45.0)) / 2.0)]])
        times = np.array([0.0, 0.3, 2.0])
        p = ModelParams(1.0, 3.0, eps[..., None], 5)
        sd = hb.spectral(p)
        ratio = np.abs(4.0 * sd.B) / np.maximum(np.abs(sd.alpha), np.abs(sd.gamma)) ** 2
        assert (ratio[..., 0] <= hb.KAPPA).tolist() == [[False, False], [False, True]]
        assert (sd.B.imag != 0)[..., 0].tolist() == [[False, True], [False, False]]
        assert sd.gamma[1, 0, 0] == 0
        stack = hb.propagators(p, times)
        assert stack.shape == eps.shape + times.shape + (4, 4)
        for idx in np.ndindex(eps.shape):
            alone = ModelParams(1.0, 3.0, float(eps[idx]), 5)
            for s, t in zip(stack[idx], times):
                assert np.array_equal(s, hb.propagators(alone, t)), (idx, t)

    def test_gamma_zero_is_as_accurate_as_expm(self):
        # lambda > omega: at omega = 1, lambda = 3, epsilon = 4, A + 2B = -22 + 22 = 0, and
        # sin(gamma t)/gamma is t; against the 40-digit reference S is no further off than expm
        p = ModelParams(1.0, 3.0, 4.0, 5)
        assert hb.spectral(p).gamma == 0.0
        ours = dense = 0.0
        for t in (0.05, 0.3, 2.0):
            ref = _reference(p, t)[0]
            ours = max(ours, reference_error(hb.propagators(p, t), ref))
            dense = max(dense, reference_error(audit.expm(-1j * t * hb.build_matrix(p)), ref))
        assert ours <= dense, (ours, dense)

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

    def test_covariance_measure_zero_for_product_moments(self):
        assert covariance_measure(0j, 0j, 5.0, 0.0) == 0.0

    def test_peak_y_for_equal_couplings(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        t = to_physical_time(np.linspace(0.0, 1.0, 4001), p)
        assert hb.covariance_series(p, t).max() == pytest.approx(0.6, abs=0.05)


def _full_congruence_moments(s, n):
    # every entry of S G(0) S^T, G(0) = <v_i v_j> of |N,0> over v = (a, b, a^dag, b^dag),
    # then the four that Y reads: <ab>, <ab^dag>, <a^dag a>, <b^dag b>
    g0 = np.zeros((4, 4), dtype=complex)
    g0[0, 2], g0[1, 3], g0[2, 0] = n + 1.0, 1.0, n
    g = np.einsum("...ik,kl,...jl->...ij", s, g0, s)
    return g[..., 0, 1], g[..., 0, 3], g[..., 2, 0].real, g[..., 3, 1].real


class TestMomentKernel:
    """The four-entry moment kernel against the full congruence S G(0) S^T."""

    def assert_matches_full_congruence(self, p, t):
        kernel = hb.transported_moment_arrays(p, t)
        reference = _full_congruence_moments(hb.propagators(p, t), p.n_initial)
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

    def test_alpha_zero_at_the_threshold(self):
        # alpha = 0 at the threshold epsilon = (omega^2 - lambda^2) / (2 omega); against the
        # 40-digit reference the moments are no further off than expm's full congruence
        p = ModelParams(1.0, 0.1, 0.495, 3)
        assert hb.spectral(p).alpha == 0.0
        self.assert_matches_full_congruence(p, np.linspace(0.0, 30.0, 61))
        ours = dense = 0.0
        for t in np.linspace(5.0, 30.0, 6):
            ref = _reference(p, t)[1]
            s = audit.expm(-1j * t * hb.build_matrix(p))
            for x, y, r in zip(hb.transported_moment_arrays(p, t),
                               _full_congruence_moments(s, p.n_initial), ref):
                ours, dense = max(ours, reference_error(x, r)), max(dense, reference_error(y, r))
        assert ours <= dense, (ours, dense)

    def test_epsilon_column_broadcast_against_times(self):
        p = ModelParams(1.0, 0.05, np.array([[0.1], [0.3], [0.6]]), 5)
        times = np.linspace(0.0, 30.0, 5)
        assert hb.transported_moment_arrays(p, times)[0].shape == (3, 5)
        self.assert_matches_full_congruence(p, times)


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
