import math
import warnings

import numpy as np
import pytest

from cavityent import binomial as bi
from cavityent.params import ModelParams, to_physical_time


def t_at(scaled, lam=0.1):
    return scaled * math.pi / lam


def exact_binomial(n, k):
    return math.comb(n, k)


class TestBinomialState:
    def test_initial_state(self):
        amps = bi.binomial_state(ModelParams(n_initial=5), 0.0)
        assert amps[0] == pytest.approx(1.0)
        assert np.abs(amps[1:]).max() == 0.0

    def test_full_transfer_at_half_period(self):
        # lambda t = pi/2: everything in |0,5>, finite thanks to the
        # cos^(N-n) sin^n factorization
        amps = bi.binomial_state(ModelParams(n_initial=5), t_at(0.5))
        assert abs(amps[5]) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(amps[:5]).max() < 1e-12

    def test_symmetric_point_probabilities(self):
        amps = bi.binomial_state(ModelParams(n_initial=5), t_at(0.25))
        expected = np.array([exact_binomial(5, n) for n in range(6)]) / 32.0
        np.testing.assert_allclose(np.abs(amps) ** 2, expected, atol=1e-12)

    def test_normalization_over_grid(self):
        for n in (0, 1, 5, 17, 50):
            p = ModelParams(n_initial=n)
            for t in np.linspace(0.0, 2 * math.pi / 0.1, 101):
                norm = np.sum(np.abs(bi.binomial_state(p, t)) ** 2)
                assert norm == pytest.approx(1.0, abs=1e-12)

    def test_large_n_no_overflow(self):
        amps = bi.binomial_state(ModelParams(n_initial=100), t_at(0.25))
        assert np.all(np.isfinite(amps.view(float)))
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestPhotonNumbers:
    def test_initial(self):
        assert bi.photon_numbers(ModelParams(n_initial=5), 0.0) == (5.0, 0.0)

    def test_equal_sharing_at_quarter_period(self):
        na, nb = bi.photon_numbers(ModelParams(n_initial=5), t_at(0.25))
        assert na == pytest.approx(2.5)
        assert nb == pytest.approx(2.5)

    def test_full_swap(self):
        na, nb = bi.photon_numbers(ModelParams(n_initial=5), t_at(0.5))
        assert na == pytest.approx(0.0, abs=1e-12)
        assert nb == pytest.approx(5.0)

    def test_sum_conserved(self):
        for t in np.linspace(0, 70, 37):
            na, nb = bi.photon_numbers(ModelParams(n_initial=11), t)
            assert na + nb == pytest.approx(11.0, abs=1e-12)


class TestCovarianceMeasure:
    def test_product_state_zero(self):
        assert bi.covariance_measure_closed(7, 0.1, 0.0) == 0.0

    def test_peak_value_n5(self):
        y = bi.covariance_measure_closed(5, 0.1, t_at(0.25))
        assert y == pytest.approx(5.0 / (math.sqrt(2.0) * 6.0), abs=1e-12)

    def test_peak_approaches_inverse_sqrt2(self):
        y = bi.covariance_measure_closed(50, 0.1, t_at(0.25))
        assert y == pytest.approx(50.0 / (math.sqrt(2.0) * 51.0), abs=1e-12)
        assert y < 1.0 / math.sqrt(2.0)

    def test_state_based_matches_closed_form(self):
        p = ModelParams(n_initial=5)
        for t in np.linspace(0.0, 2 * math.pi / 0.1, 201):
            y_state = bi.covariance_measure_from_state(bi.binomial_state(p, t))
            y_closed = bi.covariance_measure_closed(5, 0.1, t)
            assert y_state == pytest.approx(y_closed, abs=1e-10)

    def test_state_based_matches_closed_form_n10(self):
        p = ModelParams(n_initial=10)
        t = t_at(0.125)
        y_state = bi.covariance_measure_from_state(bi.binomial_state(p, t))
        assert y_state == pytest.approx(bi.covariance_measure_closed(10, 0.1, t), abs=1e-10)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            bi.covariance_measure_from_state(np.array([1.0, 1.0], dtype=complex))

    def test_periodicity(self):
        p = ModelParams(n_initial=5)
        period = math.pi / (2 * 0.1)
        for t in np.linspace(0.0, period, 41):
            assert bi.covariance_measure_closed(5, 0.1, t) == pytest.approx(
                bi.covariance_measure_closed(5, 0.1, t + period), abs=1e-10
            )


class TestReducedSpectrumAndEntropy:
    def test_initial_spectrum_pure(self):
        p = bi.reduced_spectrum(ModelParams(n_initial=5), 0.0)
        assert p[0] == pytest.approx(1.0)
        assert p[1:].max() == 0.0
        assert bi.entropy(p) == 0.0

    def test_pure_state_entropy_is_positive_zero(self):
        # a pure state's entropy must print as 0 in fig2's S column, not -0
        assert math.copysign(1.0, bi.entropy([1.0, 0.0])) == 1.0

    def test_quarter_period_spectrum(self):
        p = bi.reduced_spectrum(ModelParams(n_initial=5), t_at(0.25))
        expected = np.array([exact_binomial(5, n) for n in range(6)]) / 32.0
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_normalization(self):
        for t in np.linspace(0, 63.0, 29):
            p = bi.reduced_spectrum(ModelParams(n_initial=9), t)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0.0)

    def test_entropy_of_symmetric_binomial(self):
        # independent recomputation: direct -sum p log2 p over C(5,n)/32
        probs = np.array([exact_binomial(5, n) for n in range(6)]) / 32.0
        expected = -sum(q * math.log2(q) for q in probs)
        p = bi.reduced_spectrum(ModelParams(n_initial=5), t_at(0.25))
        assert bi.entropy(p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.198, abs=1e-3)

    def test_entropy_bound(self):
        for n in (1, 5, 12):
            p = ModelParams(n_initial=n)
            for t in np.linspace(0, 40.0, 53):
                s = bi.entropy(bi.reduced_spectrum(p, t))
                assert 0.0 <= s <= math.log2(n + 1) + 1e-12


# each batched function as a function of time, on N = 5
_FIVE = ModelParams(n_initial=5)
_BATCHED = {
    "binomial_state": lambda t: bi.binomial_state(_FIVE, t),
    "reduced_spectrum": lambda t: bi.reduced_spectrum(_FIVE, t),
    "entropy": lambda t: bi.entropy(bi.reduced_spectrum(_FIVE, t)),
    "covariance_measure_from_state": lambda t: bi.covariance_measure_from_state(
        bi.binomial_state(_FIVE, t)),
}
# a scalar, an empty grid, a line and a 2-D block of times over one period; the
# line holds times (index 382 and 882) where a numpy scalar's ** 2 (libm pow) is
# one ulp off the array square, so Y from the state takes the same arithmetic either way
_LINE = t_at(np.linspace(0.0, 1.0, 1001))
_GRIDS = {
    "scalar": t_at(0.37),
    "empty": np.array([]),
    "line": _LINE,
    "block": _LINE[:1000].reshape(40, 25),
}


class TestBatched:
    @pytest.mark.parametrize("grid", _GRIDS.values(), ids=_GRIDS)
    @pytest.mark.parametrize("name", _BATCHED)
    def test_grid_equals_stacked_calls(self, name, grid):
        f = _BATCHED[name]
        one = f(0.0)
        expected = np.array([f(float(t)) for t in np.ravel(grid)]).reshape(
            np.shape(grid) + np.shape(one))
        batched = f(grid)
        assert np.shape(batched) == expected.shape
        assert np.array_equal(batched, expected)


class TestHelpers:
    @pytest.mark.parametrize("n", [0, 1, 5, 50, 1000, 2500])
    def test_log_binomial_is_log_of_exact_comb(self, n):
        expected = [math.log(math.comb(n, k)) for k in range(n + 1)]
        assert np.array_equal(bi._log_binomial(n), expected)

    def test_xlogy_at_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bi._xlogy(0.0, 0.0) == 0.0
            assert bi._xlogy(1.0, 0.0) == -math.inf
            np.testing.assert_array_equal(bi._xlogy([0.0, 2.0, 0.0], [0.0, 0.5, 3.0]),
                                          [0.0, 2.0 * math.log(0.5), 0.0])


class TestJointFeatures:
    def test_peaks_coincide_and_zero_sets_match(self):
        p = ModelParams(n_initial=5)
        t_scaled = np.linspace(0.0, 0.5, 501)  # one period of Y and S
        t = to_physical_time(t_scaled, p)
        y = bi.covariance_measure_closed(5, 0.1, t)
        s = np.array([bi.entropy(bi.reduced_spectrum(p, tk)) for tk in t])
        assert abs(int(np.argmax(y)) - int(np.argmax(s))) <= 1
        assert t_scaled[np.argmax(y)] == pytest.approx(0.25, abs=0.001)
        # Y > 0 exactly where S > 0, away from the exchange nodes
        interior = (t_scaled % 0.5 > 1e-9) & (t_scaled % 0.5 < 0.5 - 1e-9)
        assert np.all((y[interior] > 0) == (s[interior] > 0))
