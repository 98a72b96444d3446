"""Pump-free closed forms: two-mode binomial states and their entanglement.

With epsilon = 0 the hopping term conserves the total photon number, so an
initial |N,0> stays inside the (N+1)-dimensional sector spanned by
|N-n, n>.  Everything here is an explicit function of lambda*t.

Amplitudes are computed as cos^(N-n) * sin^n (with the binomial square
root), never via tan^n, so lambda*t = pi/2 is perfectly regular.

Note on phases: the amplitudes here carry only the global phase
exp(-i N omega t).  Generic evolution under a^dag b + a b^dag attaches an
extra (-i)^n to the n-th amplitude; that relative phase drops out of every
quantity computed from this module (|amplitude|, photon numbers, Y, the
reduced spectrum and the entropy), and the brute-force Fock comparison is
therefore done on magnitudes.

Binomials are exact integers before their logarithm is taken,
and 0 log 0 is 0 throughout (_xlogy).
"""

import math

import numpy as np

from .params import covariance_measure


def _log_binomial(n):
    """log C(n, k), k = 0..n, of the exact integers C(n, k + 1) = C(n, k) (n - k) // (k + 1)."""
    logs = np.empty(n + 1)
    comb = 1
    for k in range(n + 1):
        logs[k] = math.log(comb)
        comb = comb * (n - k) // (k + 1)
    return logs


def _xlogy(x, y):
    """x log y elementwise, 0 where x == 0 (also for y == 0); -inf for x > 0, y == 0."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    return np.multiply(x, log_y, out=np.zeros(x.shape), where=x != 0)


def binomial_state(params, t):
    """Amplitudes of exp(-iHt)|N,0> over the basis |N-n, n>, n = 0..N.

    Returns a complex array of shape shape(t) + (N+1,).
    """
    n_total = params.n_initial
    n = np.arange(n_total + 1)
    t = np.asarray(t, dtype=float)[..., None]
    phase = np.exp(-1j * n_total * params.omega * t)
    c, s = np.cos(params.lam * t), np.sin(params.lam * t)
    # one exp of log(C(N, n)^1/2 |cos|^(N-n) |sin|^n), finite for any N, times the powers' signs
    log_magnitude = (0.5 * _log_binomial(n_total) + _xlogy(n_total - n, np.abs(c))
                     + _xlogy(n, np.abs(s)))
    sign = np.sign(c) ** (n_total - n) * np.sign(s) ** n
    return phase * (sign * np.exp(log_magnitude))


def photon_numbers(params, t):
    """Mean photon numbers (a-mode, b-mode); their sum is exactly N."""
    n_total = params.n_initial
    c2 = np.cos(params.lam * t) ** 2
    return n_total * c2, n_total * (1.0 - c2)


def covariance_measure_closed(params, t):
    """Covariance entanglement measure Y of the evolved |N,0>, closed form."""
    n_total, lam = params.n_initial, params.lam
    c2 = np.cos(lam * t) ** 2
    s2 = 1.0 - c2
    num = n_total * np.abs(np.sin(2.0 * (lam * t)))
    den = 2.0 * np.sqrt(2.0 * (n_total * c2 + 0.5) * (n_total * s2 + 0.5))
    return num / den


def covariance_measure_from_state(amplitudes):
    """Y computed directly from sector amplitudes (must match the closed form).

    The sector is the last axis of amplitudes.  Operators that change the
    total photon number have zero expectation inside the sector: <a>, <b>
    and <ab> vanish, so cov(a, b) = 0 and cov(a, b^dag) = <a b^dag>.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    prob = np.abs(amps) ** 2
    norm = np.sum(prob, axis=-1)
    off = np.abs(norm - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"state not normalized: |psi|^2 = {float(np.extract(off, norm)[0])}")
    n_total = amps.shape[-1] - 1
    n = np.arange(n_total + 1)
    # a b^dag |N-n, n>  ->  sqrt((N-n)(n+1)) |N-n-1, n+1>
    hop = np.sqrt((n_total - n[:-1]) * (n[:-1] + 1.0))
    cov_abdag = np.sum(np.conj(amps[..., 1:]) * amps[..., :-1] * hop, axis=-1)
    return covariance_measure(0.0, cov_abdag, np.sum(prob * (n_total - n), axis=-1),
                              np.sum(prob * n, axis=-1))


def reduced_spectrum(params, t):
    """a-mode reduced density matrix eigenvalues p_n (of |N-n><N-n|), shape(t) + (N+1,)."""
    n_total = params.n_initial
    n = np.arange(n_total + 1)
    c2 = np.cos(params.lam * np.asarray(t, dtype=float)[..., None]) ** 2
    s2 = 1.0 - c2
    log_p = _log_binomial(n_total)
    # p_n = C(N,n) cos^(2(N-n)) sin^(2n); handle c2 or s2 = 0 via _xlogy
    log_p = log_p + _xlogy(n_total - n, c2) + _xlogy(n, s2)
    p = np.where(np.isneginf(log_p), 0.0, np.exp(log_p))
    return p


def entropy(probabilities):
    """von Neumann entropy in bits over the last axis, 0 log 0 = 0; +0.0 if pure, not -0.0."""
    p = np.asarray(probabilities, dtype=float)
    return 0.0 - np.sum(_xlogy(p, p), axis=-1) / np.log(2.0)
