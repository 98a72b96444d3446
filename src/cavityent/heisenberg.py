"""Pumped Heisenberg-picture dynamics of the operator vector (a, b, a^dag, b^dag).

The linear Heisenberg equations i dv/dt = M v are solved by the 4x4
propagator S(t) = exp(-i t M).  S is built entry by entry from the
Cayley-Hamilton cubic in M whenever the spectrum {+-alpha, +-gamma} is
non-degenerate, and by a dense matrix exponential otherwise; `propagators`
and the moment kernel share one entry builder.  The quadratic congruence
G(t) = S G(0) S^T transports the second moments of |N,0> and is the
authoritative route to the covariance measure.  G(0) has three nonzeros,
(0,2) = N+1, (1,3) = 1 and (2,0) = N, so the congruence is evaluated only at
the four entries Y reads, each a three-term sum
G_ij = (N+1) S_i0 S_j2 + S_i1 S_j3 + N S_i2 S_j0.
<ab> = G_01 reads rows 0 and 1 of S, <ab^dag> = G_03 rows 0 and 3,
<a^dag a> = G_20 rows 2 and 0 and <b^dag b> = G_31 rows 3 and 1; of the
last two only the real part is formed.  The kernel builds the fourteen
entries of S these touch a row at a time, in the order 0, 2, 3, 1: row 0
first, as three moments read it; row 2 gives <a^dag a>, and the parts of
row 0 only it reads are dropped with it; row 3 gives <ab^dag>; the
Cayley-Hamilton coefficients are freed once row 1 is built, and row 1
gives <ab> and <b^dag b>.  The published structure-function formulas for the
same moments are audited in `audit`, not trusted.
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
    al_t, ga_t = al * t, ga * t
    # sin(theta t)/theta; theta is bounded away from 0 by the degeneracy guard
    sa, sg = np.sin(al_t) / al, np.sin(ga_t) / ga
    ca, cg = np.cos(al_t), np.cos(ga_t)
    al2, ga2 = al ** 2, ga ** 2
    c = np.empty((4,) + np.broadcast_shapes(np.shape(four_b), np.shape(al_t)), dtype=complex)
    np.divide(ga2 * ca - al2 * cg, four_b, out=c[0, ...])
    np.divide(-1j * (ga2 * sa - al2 * sg), four_b, out=c[1, ...])
    np.divide(cg - ca, four_b, out=c[2, ...])
    np.divide(1j * (sa - sg), four_b, out=c[3, ...])
    return c


def _ch_sum(c, m):
    """entry(i, j) -> S_ij = (c0 I + c1 M + c2 M^2 + c3 M^3)_ij, shaped like broadcast(c[0], M_ij).

    A term whose power of M is exactly 0 at (i, j) for every epsilon of
    the batch is skipped, and c0 is added unscaled on the diagonal.  That
    leaves every finite sum as it was, up to the sign of a zero.
    """
    m2 = m @ m
    powers = (m, m2, m2 @ m)
    batch = tuple(range(m.ndim - 2))
    present = [np.any(p != 0, axis=batch) for p in powers]
    shape = np.broadcast_shapes(c.shape[1:], m.shape[:-2])

    def entry(i, j):
        s = c[0] if i == j else None
        for k, (p, nonzero) in enumerate(zip(powers, present), 1):
            if nonzero[i, j]:
                term = c[k] * p[..., i, j]
                s = term if s is None else np.add(s, term, out=term)
        return np.zeros(shape, dtype=complex) if s is None else s

    return entry


def _matrix(entry):
    """All sixteen entries entry(i, j) as one (..., 4, 4) stack."""
    return np.stack([np.stack([entry(i, j) for j in range(4)], axis=-1) for i in range(4)],
                    axis=-2)


def _propagator_entries(params, t):
    """(entry, shape): entry(i, j) builds S_ij(t) of exp(-i t M), shaped like broadcast(epsilon, t).

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
        s = expm(-1j * t[..., None, None] * m)
        return (lambda i, j: s[..., i, j]), shape


def propagators(params, t):
    """S(t) = exp(-i t M); shape broadcast(epsilon, t) + (4, 4).

    t and params.epsilon may each be a scalar or an array.
    """
    entry, shape = _propagator_entries(params, t)
    return _matrix(entry).reshape(shape + (4, 4))


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
    so covariances equal raw second moments.  The rows of S are built in
    the order the module docstring gives, each dropped once read.
    """
    entry, shape = _propagator_entries(params, t)
    g0 = initial_moments(params.n_initial)
    terms = [(k, l, g0[k, l].real) for k, l in zip(*np.nonzero(g0))]

    def x(i, s=None):  # the parts G(0)_kl S_ik by term; s is row i if built
        return [_parts(entry(i, k) if s is None else s[k], value) for k, _, value in terms]

    def y(j, s=None):  # the parts S_jl by term
        return [_parts(entry(j, l) if s is None else s[l]) for _, l, _ in terms]

    s = [entry(0, j) for j in range(4)]
    x0, y0 = x(0, s), y(0, s)
    del s
    na = _contract(x(2), y0)
    del y0
    s = [entry(3, j) for j in range(4)]
    cov_ab_dagger = _contract(x0, y(3, s), imag=True)
    x3 = x(3, s)
    del s
    y1 = y(1)
    del entry  # the last entry is built: frees the coefficients
    cov_ab = _contract(x0, y1, imag=True)
    del x0
    nb = _contract(x3, y1)
    return tuple(q.reshape(shape) for q in (cov_ab, cov_ab_dagger, na, nb))


def _parts(s, value=1.0):
    """(real, imag) of value * s, without the product when value is 1."""
    if value == 1.0:
        return s.real, s.imag
    return value * s.real, value * s.imag


def _contract(x, y, imag=False):
    """Sum over terms of x y from (real, imag) parts; complex if imag, else the real part only."""
    re = im = None
    for (xr, xi), (yr, yi) in zip(x, y):
        part = xr * yr
        part -= xi * yi
        re = part if re is None else np.add(re, part, out=re)
        if imag:
            part = xr * yi
            part += xi * yr
            im = part if im is None else np.add(im, part, out=im)
    if not imag:
        return re
    g = np.empty(re.shape, dtype=complex)
    g.real, g.imag = re, im
    return g


def moments_of(g):
    """(cov_ab, cov_ab_dagger, mean_na, mean_nb) read off G = <v_i v_j>, any leading axes."""
    # <ab>, <ab^dag>, <a^dag a>, <b^dag b> over v = (a, b, a^dag, b^dag)
    return g[..., 0, 1], g[..., 0, 3], g[..., 2, 0].real, g[..., 3, 1].real


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
