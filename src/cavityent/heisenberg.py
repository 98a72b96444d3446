"""Pumped Heisenberg-picture dynamics of the operator vector (a, b, a^dag, b^dag).

The linear Heisenberg equations i dv/dt = M v are solved by the 4x4
propagator S(t) = exp(-i t M).  S is built entry by entry from the
Cayley-Hamilton cubic in M whenever the spectrum {+-alpha, +-gamma} is
non-degenerate, and by a dense matrix exponential otherwise.  The quadratic
congruence G(t) = S G(0) S^T transports the second moments of |N,0> and is
the authoritative route to the covariance measure.  G(0) has three nonzeros,
(0,2) = N+1, (1,3) = 1 and (2,0) = N, so the congruence is evaluated only at
the four entries Y reads, each a three-term sum
G_ij = (N+1) S_i0 S_j2 + S_i1 S_j3 + N S_i2 S_j0.  The published structure-
function formulas for the same moments are audited in `audit`, not trusted.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .params import covariance_measure

DEGENERACY_TOL = 1e-10


class DegenerateSpectrumError(RuntimeError):
    """Cayley-Hamilton denominators vanish; caller must use the dense path."""


@dataclass(frozen=True)
class SpectralData:  # every field is shaped like epsilon
    A: np.ndarray        # real
    B: np.ndarray        # complex; real and >= 0 for all real couplings of interest
    alpha: np.ndarray    # sqrt(A - 2B); imaginary in the parametrically unstable regime
    gamma: np.ndarray    # sqrt(A + 2B)
    unstable: np.ndarray


def build_matrix(params):
    """Real coefficient matrix M of i d/dt (a, b, a^dag, b^dag) = M (...); epsilon.shape + (4, 4)."""
    w, l = params.omega, params.lam
    e = np.asarray(params.epsilon, dtype=float)
    m = np.empty(e.shape + (4, 4))
    m[...] = [[w, l, 0.0, 0.0], [l, w, 0.0, 0.0], [0.0, 0.0, -w, -l], [0.0, 0.0, -l, -w]]
    m[..., 0, 2] = 2.0 * e
    m[..., 2, 0] = -2.0 * e
    return m


def spectral(params):
    """Eigenvalue data {A, B, alpha, gamma} of M for real epsilon.

    params.epsilon may be an array; every field then has its shape.  The
    four eigenvalues of M are +-alpha and +-gamma.  A - 2B < 0 marks the
    parametrically unstable regime (alpha imaginary, exponential growth);
    it is flagged, not an error.
    """
    w, l = params.omega, params.lam
    e = np.asarray(params.epsilon, dtype=float)
    a_val = w * w + l * l - 2.0 * e * e
    # float_power is C pow, as Python's e ** 4 on a float: same last bit
    radicand = w * w * l * l - l * l * e * e + np.float_power(e, 4)
    b_val = np.sqrt(radicand + 0j)
    alpha = np.sqrt(a_val - 2.0 * b_val)
    gamma = np.sqrt(a_val + 2.0 * b_val)
    return SpectralData(a_val, b_val, alpha, gamma, (a_val - 2.0 * b_val).real < 0)


def _sinc_scaled(theta, t):
    # sin(theta t)/theta; theta bounded away from 0 by the degeneracy guard
    return np.sin(theta * t) / theta


def ch_coefficients(spec_data, t):
    """Cayley-Hamilton coefficients (c0, c1, c2, c3) of exp(-i t M).

    t and the fields of spec_data may be scalars or arrays; the result has
    shape (4,) + broadcast(spec_data, t), the coefficient index first.
    Raises DegenerateSpectrumError when 4B or alpha is too small for the
    interpolation denominators at any element.
    """
    four_b = 4.0 * spec_data.B
    if min(np.abs(four_b).min(), np.abs(spec_data.alpha).min()) < DEGENERACY_TOL:
        raise DegenerateSpectrumError(
            f"degenerate spectrum: 4B = {four_b!r}, alpha = {spec_data.alpha!r}"
        )
    t = np.asarray(t, dtype=float)
    al, ga = spec_data.alpha, spec_data.gamma
    sa = _sinc_scaled(al, t)
    sg = _sinc_scaled(ga, t)
    ca = np.cos(al * t)
    cg = np.cos(ga * t)
    c0 = (ga ** 2 * ca - al ** 2 * cg) / four_b
    c1 = -1j * (ga ** 2 * sa - al ** 2 * sg) / four_b
    c2 = (cg - ca) / four_b
    c3 = 1j * (sa - sg) / four_b
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3))


def _ch_sum(c, m):
    """c0 I + c1 M + c2 M^2 + c3 M^3 entry-major: [i][j] shaped like broadcast(c[0], M_ij)."""
    c0, c1, c2, c3 = c
    eye, m2 = np.eye(4), m @ m
    m3 = m2 @ m
    return [[c0 * eye[i, j] + c1 * m[..., i, j] + c2 * m2[..., i, j] + c3 * m3[..., i, j]
             for j in range(4)] for i in range(4)]


def _matrix(s):
    """Entry-major s[i][j] as one (..., 4, 4) stack."""
    return np.stack([np.stack(row, axis=-1) for row in s], axis=-2)


def _propagator_entries(params, t):
    """(S, shape): S(t) = exp(-i t M) entry-major, S[i][j] shaped like broadcast(epsilon, t).

    Cayley-Hamilton path, with one stacked dense-expm call at degenerate
    spectra: a single degenerate epsilon sends the whole batch to expm.
    When epsilon and t are both 0-d the entries come back with one axis of
    length 1 (shape is then ()): numpy's scalar arithmetic rounds complex
    products differently from its array loops, and a scalar t must give the
    same bits as the same t on a grid.
    """
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(np.shape(params.epsilon), t.shape)
    if not shape:
        t = t[None]
    m = build_matrix(params)
    try:
        return _ch_sum(ch_coefficients(spectral(params), t), m), shape
    except DegenerateSpectrumError:
        return np.moveaxis(expm(-1j * t[..., None, None] * m), (-2, -1), (0, 1)), shape


def propagators(params, t):
    """S(t) = exp(-i t M); shape broadcast(epsilon, t) + (4, 4).

    t and params.epsilon may each be a scalar or an array.
    """
    s, shape = _propagator_entries(params, t)
    return _matrix(s).reshape(shape + (4, 4))


def initial_moments(n_initial):
    """Second-moment matrix <v_i v_j> of |N,0> over v = (a, b, a^dag, b^dag)."""
    g = np.zeros((4, 4), dtype=complex)
    g[0, 2] = n_initial + 1.0   # <a a^dag>
    g[1, 3] = 1.0               # <b b^dag>
    g[2, 0] = float(n_initial)  # <a^dag a>
    return g


def transported_moment_arrays(params, t):
    """(cov_ab, cov_ab_dagger, mean_na, mean_nb) of |N,0> at a scalar or array t.

    Second moments are carried by the congruence G(t) = S G(0) S^T, taken
    only at the four entries read here: over the three nonzeros of G(0)
    (see initial_moments) each is G_ij = (N+1) S_i0 S_j2 + S_i1 S_j3 + N S_i2 S_j0.
    The products are formed from real and imaginary parts, because numpy's
    SIMD complex multiply fuses multiply-adds on hosts that have them and
    the last bit of the moments would then depend on the host.  First
    moments of |N,0> vanish and stay zero under the homogeneous equations,
    so covariances equal raw second moments.
    """
    s, shape = _propagator_entries(params, t)
    g0 = initial_moments(params.n_initial)
    terms = [(k, l, g0[k, l].real) for k, l in zip(*np.nonzero(g0))]

    def entry(i, j):
        re = im = 0.0
        for k, l, value in terms:
            xr, xi = value * s[i][k].real, value * s[i][k].imag
            yr, yi = s[j][l].real, s[j][l].imag
            re = re + (xr * yr - xi * yi)
            im = im + (xr * yi + xi * yr)
        return re + 1j * im

    return tuple(q.reshape(shape) for q in _read_moments(entry))


def moments_of(g):
    """(cov_ab, cov_ab_dagger, mean_na, mean_nb) read off G = <v_i v_j>, any leading axes."""
    return _read_moments(lambda i, j: g[..., i, j])


def _read_moments(entry):
    # <ab>, <ab^dag>, <a^dag a>, <b^dag b> over v = (a, b, a^dag, b^dag)
    return entry(0, 1), entry(0, 3), entry(2, 0).real, entry(3, 1).real


def covariance_series(params, t):
    """Y via moment transport at a scalar or array t."""
    return covariance_measure(*transported_moment_arrays(params, t))


def photon_ratio_series(params, t):
    """|n_a - n_b| / (n_a + n_b) at a scalar or array t."""
    _, _, na, nb = transported_moment_arrays(params, t)
    total = na + nb
    if np.any(total <= 0):
        raise ValueError("photon difference ratio undefined at zero total photons")
    return np.abs(na - nb) / total
