import math

import numpy as np
import pytest

from cavityent.binomial import covariance_measure_closed
from cavityent.params import (
    ModelParams,
    covariance_measure,
    to_physical_time,
    to_scaled_time,
    validate,
    violations,
)


def test_zero_scaled_time_is_zero():
    assert to_physical_time(0.0, ModelParams(lam=0.3)) == 0.0


def test_scaled_unit_is_pi_over_lambda():
    assert to_physical_time(1.0, ModelParams(lam=0.1)) == pytest.approx(10 * math.pi)


def test_first_peak_instant():
    # scaled time 0.25 at lambda = 0.1 lands on lambda*t = pi/4
    t = to_physical_time(0.25, ModelParams(lam=0.1))
    assert 0.1 * t == pytest.approx(math.pi / 4, abs=1e-15)


def test_uncoupled_cavities_rejected():
    with pytest.raises(ValueError, match="uncoupled"):
        to_physical_time(1.0, ModelParams(lam=0.0))
    with pytest.raises(ValueError, match="uncoupled"):
        to_scaled_time(1.0, ModelParams(lam=0.0))


@pytest.mark.parametrize("s, first", [(0.5, "0.5"), (np.array([0.0, 0.25, 0.5]), "0.25")],
                         ids=["scalar", "array"])
def test_overflowing_physical_time_names_lambda(s, first):
    # pi / 1e-320 already overflows: each s > 0 maps to inf
    with pytest.raises(ValueError, match=rf"^physical time is not finite at lambda = "
                                         rf"9\.99989e-321, scaled time {first}:"):
        to_physical_time(s, ModelParams(lam=1e-320))
    assert to_physical_time(s, ModelParams(lam=-1e-300)) == pytest.approx(-s * math.pi * 1e300)


def test_round_trip_across_lambda_range():
    rng = np.random.default_rng(3)
    for lam in 10 ** rng.uniform(-4, 0, size=200):
        p = ModelParams(lam=float(lam))
        t = float(rng.uniform(0, 100))
        assert to_physical_time(to_scaled_time(t, p), p) == pytest.approx(t, rel=1e-14)


def test_reference_parameter_sets_are_valid():
    validate(ModelParams(1.0, 0.1, 0.1, 5))
    validate(ModelParams(1.0, 0.001, 0.3, 5))


def test_invalid_parameters_are_all_named():
    bad = ModelParams(omega=0.0, lam=float("nan"), epsilon=1.0, n_initial=-2)
    problems = violations(bad)
    assert len(problems) == 3
    joined = " ".join(problems)
    assert "omega" in joined and "lam" in joined and "n_initial" in joined
    with pytest.raises(ValueError):
        validate(bad)


def test_validate_returns_params_unchanged():
    p = ModelParams(1.0, 0.1, 0.1, 5)
    assert validate(p) is p


class TestCovarianceMeasure:
    def test_scalar_input_equals_array_input(self):
        rng = np.random.default_rng(17)
        cab = rng.normal(size=50) + 1j * rng.normal(size=50)
        cabd = rng.normal(size=50) + 1j * rng.normal(size=50)
        na, nb = rng.uniform(0, 10, 50), rng.uniform(0, 10, 50)
        half = rng.uniform(0.0, 0.5, 50)
        grid = covariance_measure(cab, cabd, na, nb, half)
        assert grid.shape == (50,)
        for k in range(50):
            scalar = covariance_measure(complex(cab[k]), complex(cabd[k]),
                                        float(na[k]), float(nb[k]), float(half[k]))
            assert np.shape(scalar) == ()
            assert scalar == grid[k]

    def test_non_positive_denominator_gives_zero(self):
        assert covariance_measure(1j, 2.0, -0.5, 3.0) == 0.0
        assert covariance_measure(1j, 2.0, 3.0, 0.0, vacuum_half=0.0) == 0.0
        y = covariance_measure(np.array([1j, 1j]), np.array([2.0, 2.0]),
                               np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        assert y[0] == 0.0 and y[1] > 0.0

    def test_nan_denominator_gives_nan(self):
        # an overflowed photon number must not read as "no entanglement"
        assert np.isnan(covariance_measure(1, 1, math.nan, 1))
        assert np.isnan(covariance_measure(1, 1, math.inf - math.inf, 1))
        y = covariance_measure(np.array([1j, 1j]), np.array([2.0, 2.0]),
                               np.array([math.nan, 1.0]), np.array([1.0, 1.0]))
        assert np.isnan(y[0]) and y[1] > 0.0

    def test_matches_pump_free_closed_form(self):
        # |N,0> under hopping alone: n_a = N cos^2, n_b = N sin^2,
        # cov(a, b^dag) = i N sin cos, cov(a, b) = 0
        n, lam = 5, 0.1
        t = np.linspace(0.0, 2 * math.pi / lam, 401)
        c, s = np.cos(lam * t), np.sin(lam * t)
        y = covariance_measure(np.zeros_like(t), 1j * n * s * c, n * c ** 2, n * s ** 2)
        np.testing.assert_allclose(y, covariance_measure_closed(n, lam, t), atol=1e-12)

    def test_scaled_moments_with_scaled_vacuum_term(self):
        # moments carried divided by a scale factor need the vacuum term
        # divided by the same factor
        scale = 1e6
        y = covariance_measure(0.3 + 0.1j, 2.0j, 4.0, 1.5)
        y_scaled = covariance_measure((0.3 + 0.1j) / scale, 2.0j / scale,
                                      4.0 / scale, 1.5 / scale, 0.5 / scale)
        assert y_scaled == pytest.approx(y, rel=1e-12)

    def test_moments_past_the_square_range_give_finite_y(self):
        # the squares overflow past about 1e154; Y itself stays a bounded ratio
        assert covariance_measure(1e155, 0, 1e155, 1e155) == pytest.approx(math.sqrt(0.5))
        assert covariance_measure(1e150, 0, 1e160, 1e160) == pytest.approx(
            math.sqrt(0.5) * 1e-10)
        y = covariance_measure(np.array([1e155, 0.3 + 0.1j]), np.array([0.0, 2.0j]),
                               np.array([1e155, 4.0]), np.array([1e155, 1.5]))
        assert y[0] == pytest.approx(math.sqrt(0.5))
        assert y[1] == covariance_measure(0.3 + 0.1j, 2.0j, 4.0, 1.5)
