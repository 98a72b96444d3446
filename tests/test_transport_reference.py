"""Transport against a 40-digit reference: S = exp(-itM), G = S G(0) S^T and Y.

The reference is evaluated with mpmath from the same double inputs, so it is
exact to far below double rounding.  Each error is |x - ref| / max(1, |ref|),
maximised over a fixed seeded sample and a few derandomized hypothesis draws.
BOUNDS are the largest errors of the Cayley-Hamilton kernel that preceded the
four-matrix form, measured with this file, rounded up in the second digit: a
change to the transport may move output digits only if none of them grows.
"""

import math

import mpmath
import scipy.linalg
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityent import heisenberg as hb
from cavityent.params import ModelParams

DIGITS = 40
QUANTITIES = ("cov_ab", "cov_ab_dagger", "mean_na", "mean_nb", "Y", "propagators")
BOUNDS = {  # by regime: at the threshold alpha^2 = A - 2B keeps only its rounding error
    "threshold": {"cov_ab": 2.6e-8, "cov_ab_dagger": 2.6e-8, "mean_na": 2.6e-8,
                  "mean_nb": 2.6e-8, "Y": 6.5e-13, "propagators": 1.3e-8},
    "elsewhere": {"cov_ab": 3.0e-13, "cov_ab_dagger": 8.9e-13, "mean_na": 2.8e-12,
                  "mean_nb": 4.4e-13, "Y": 1.4e-13, "propagators": 2.5e-10},
}
GROWTH = 30.0  # largest |Im theta| t on the unstable side: moments stay near e^60


def _threshold(omega, lam):
    return (omega * omega - lam * lam) / (2.0 * omega)


def _growth_rate(p):  # largest |Im theta| over the eigenvalues +-alpha, +-gamma
    sd = hb.spectral(p)
    return max(abs(sd.alpha.imag), abs(sd.gamma.imag))


def _reference(p, t):
    """(S, (cov_ab, cov_ab_dagger, mean_na, mean_nb), Y) at DIGITS digits, as doubles."""
    with mpmath.workdps(DIGITS):
        w, l, e = (mpmath.mpf(v) for v in (p.omega, p.lam, p.epsilon))
        m = mpmath.matrix([[w, l, 2 * e, 0], [l, w, 0, 0],
                           [-2 * e, 0, -w, -l], [0, 0, -l, -w]])
        s = mpmath.expm(mpmath.mpc(0, -mpmath.mpf(t)) * m)
        g0 = mpmath.zeros(4, 4)
        g0[0, 2], g0[1, 3], g0[2, 0] = p.n_initial + 1, 1, p.n_initial
        g = s * g0 * s.T
        cab, cabd = g[0, 1], g[0, 3]
        na, nb = mpmath.re(g[2, 0]), mpmath.re(g[3, 1])
        half = mpmath.mpf(1) / 2
        y = mpmath.sqrt((abs(cabd) ** 2 + abs(cab) ** 2) / (2 * (na + half) * (nb + half)))
        s = np.array([[complex(s[i, j]) for j in range(4)] for i in range(4)])
        return s, (complex(cab), complex(cabd), float(na), float(nb)), float(y)


def _errors(p, times):
    """Largest error of each quantity over the times of one cell."""
    times = np.asarray(times, dtype=float)
    got = (*hb.transported_moment_arrays(p, times), hb.covariance_series(p, times),
           hb.propagators(p, times))
    refs = [_reference(p, t) for t in times]
    want = (*(np.array([r[1][k] for r in refs]) for k in range(4)),
            np.array([r[2] for r in refs]), np.array([r[0] for r in refs]))
    return {name: float((np.abs(x - ref) / np.maximum(1.0, np.abs(ref))).max())
            for name, x, ref in zip(QUANTITIES, got, want)}


def _sample():
    """About 100 seeded (regime, params, times) points, four times per cell.

    The cells cycle through epsilon = 0, stable epsilon, the threshold
    epsilon = (omega^2 - lambda^2) / (2 omega) and the unstable side, with
    lambda log-uniform down to 1e-3.  At the threshold alpha = 0, but the
    computed A - 2B is often a rounding error, not 0; the two fixed
    threshold cells have it exactly 0 and go to dense expm.  Two cells with
    lambda > 2 omega have a complex B.
    """
    rng = np.random.default_rng(20261018)
    cells = []
    for k in range(24):
        omega = float(rng.uniform(0.5, 3.0))
        lam = float(10.0 ** rng.uniform(-3.0, -0.5))
        threshold = _threshold(omega, lam)
        eps = (0.0, float(rng.uniform(0.0, 0.99)) * threshold, threshold,
               float(rng.uniform(1.01, 1.5)) * threshold)[k % 4]
        cells.append(ModelParams(omega, lam, eps, int(rng.integers(0, 51))))
    cells += [ModelParams(1.0, 0.1, 0.495, 3), ModelParams(1.0, 1.0, 0.0, 5),
              ModelParams(1.0, 3.0, 2.0, 5), ModelParams(0.5, 1.5, 0.9, 12)]
    sample = []
    for p in cells:
        regime = "threshold" if p.epsilon == _threshold(p.omega, p.lam) else "elsewhere"
        sample.append((regime, p, np.sort(rng.uniform(0.0, _t_max(p), 4))))
    return sample


def _t_max(p):
    """Five scaled time units, or less on the unstable side (see GROWTH)."""
    rate = _growth_rate(p)
    t_max = 5.0 * math.pi / p.lam
    return t_max if rate == 0.0 else min(t_max, GROWTH / rate)


@pytest.fixture(scope="module")
def sample_errors():
    errors = {regime: dict.fromkeys(QUANTITIES, 0.0) for regime in BOUNDS}
    for regime, p, times in _sample():
        for name, err in _errors(p, times).items():
            errors[regime][name] = max(errors[regime][name], err)
    return errors


def test_sample_covers_every_regime():
    kinds = set()
    for regime, p, _ in _sample():
        sd = hb.spectral(p)
        if (hb.paths(sd) == hb.DENSE).any():
            assert regime == "threshold"
            kinds.add("dense expm")
        if np.iscomplex(sd.B):
            kinds.add("complex B")
        elif regime == "threshold" or p.epsilon == 0.0:
            kinds.add(regime if p.epsilon else "no pump")
        else:
            kinds.add("unstable" if sd.unstable else "stable")
    assert kinds == {"no pump", "stable", "threshold", "dense expm", "unstable", "complex B"}
    assert min(p.lam for _, p, _ in _sample()) < 2e-3
    assert sum(len(times) for _, _, times in _sample()) >= 100


@pytest.mark.parametrize("regime", BOUNDS)
@pytest.mark.parametrize("name", QUANTITIES)
def test_sample_errors_within_bounds(sample_errors, regime, name):
    err = sample_errors[regime][name]
    assert err <= BOUNDS[regime][name], f"{name} {regime}: {err:.3g}"


def test_invariants_hold_in_every_regime():
    # S Sigma S^dag = Sigma relative to ||S||^2, photon numbers >= 0 exactly
    # (sums of squares) and Y >= 0, on every cell of the sample
    sigma = np.diag([1.0, 1.0, -1.0, -1.0])
    for _, p, times in _sample():
        grid = np.concatenate([times, np.linspace(0.0, _t_max(p), 41)])
        s = hb.propagators(p, grid)
        drift = np.abs(s @ sigma @ np.conj(np.swapaxes(s, -1, -2)) - sigma).max(axis=(-2, -1))
        scale = np.maximum(1.0, np.abs(s).max(axis=(-2, -1)) ** 2)
        assert (drift / scale).max() < 1e-9, p
        _, _, na, nb = hb.transported_moment_arrays(p, grid)
        assert na.min() >= 0.0 and nb.min() >= 0.0, p
        assert hb.covariance_series(p, grid).min() >= 0.0, p


@st.composite
def _points(draw):
    """A point away from the extremes the fixed sample holds: lambda >= 0.01, at most
    two scaled time units, epsilon at least 10 % off the threshold."""
    omega = draw(st.floats(0.5, 3.0))
    lam = draw(st.floats(0.01, 0.3))
    eps = draw(st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 1.5))) * _threshold(omega, lam)
    p = ModelParams(omega, lam, eps, draw(st.integers(0, 50)))
    return p, draw(st.floats(0.0, 1.0)) * min(_t_max(p), 2.0 * math.pi / lam)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_points())
def test_drawn_points_within_bounds(point):
    p, t = point
    errors = _errors(p, [t])
    for name in QUANTITIES:
        bound = BOUNDS["elsewhere"][name]
        assert errors[name] <= bound, f"{name}: {errors[name]:.3g} at {p}, t = {t!r}"


def _expm_error(expm, p, t, ref):
    s = expm(-1j * t * hb.build_matrix(p))
    return float((np.abs(s - ref) / np.maximum(1.0, np.abs(ref))).max())


def test_expm_on_dense_fallback_cells_is_as_accurate_as_scipy():
    # heisenberg.expm replaced scipy.linalg.expm on the degenerate cells;
    # against the 40-digit reference it may not be more than twice as far off
    cells = [(p, times) for regime, p, times in _sample()
             if (hb.paths(hb.spectral(p)) == hb.DENSE).any()]
    assert len(cells) == 3
    ours = theirs = 0.0
    for p, times in cells:
        for t in times:
            ref = _reference(p, t)[0]
            ours = max(ours, _expm_error(hb.expm, p, t, ref))
            theirs = max(theirs, _expm_error(scipy.linalg.expm, p, t, ref))
    assert ours <= 2.0 * theirs, (ours, theirs)
