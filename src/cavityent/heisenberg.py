"""Pumped Heisenberg-picture dynamics of the operator vector (a, b, a^dag, b^dag).

The linear Heisenberg equations i dv/dt = M v are solved by the 4x4
propagator S(t) = exp(-i t M).  M has the eigenvalues +-alpha and +-gamma;
where they are distinct S is Sylvester's form over four fixed matrices,

    S(t) = cos(alpha t) P1 + cos(gamma t) P2 + sin(alpha t)/alpha P3 + sin(gamma t)/gamma P4,
    P1 = (gamma^2 I - M^2)/4B,    P2 = (M^2 - alpha^2 I)/4B,
    P3 = i (M^3 - gamma^2 M)/4B,  P4 = i (alpha^2 M - M^3)/4B,

with 4B = gamma^2 - alpha^2 and the P built once per epsilon.  For real B
(every lambda < 2 omega) P1 and P2 are real, P3 and P4 imaginary and the
four functions real (cosh and sinh/|theta| past the parametric
instability), so each S_ij is formed as a real and an imaginary part in
real arithmetic.  A complex B takes complex arithmetic, a degenerate
spectrum the dense matrix exponential `expm` (Pade 13 with scaling and
squaring).  `propagators` and the moment kernel share this one entry
builder.  The quadratic congruence G(t) = S G(0) S^T transports the
second moments of |N,0> and is the authoritative route to the covariance
measure; a series that overflows past the parametric instability is
refused.  The published structure-function formulas for the
same moments, and the Cayley-Hamilton coefficients they are written in,
live in `audit`, which checks them and never trusts them.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .params import covariance_measure, to_scaled_time

DEGENERACY_TOL = 1e-10

# Pade 13 numerator coefficients b_0 .. b_13 over b_0, so that exp(0) = I
# exactly, and the 1-norm bound theta_13 up to which the approximant is
# accurate to unit roundoff (Higham 2005, Tables 2.3 and 2.2)
PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
THETA13 = 5.371920351148152


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
    four eigenvalues of M are +-alpha and +-gamma.  An alpha or gamma with a
    nonzero imaginary part marks the parametrically unstable regime
    (exponential growth): A - 2B < 0 for real B, or any complex B.  It is
    flagged, not an error.
    """
    w, l = params.omega, params.lam
    e = np.asarray(params.epsilon, dtype=float)
    a_val = w * w + l * l - 2.0 * e * e
    # float_power is C pow, as Python's e ** 4 on a float: same last bit
    radicand = w * w * l * l - l * l * e * e + np.float_power(e, 4)
    b_val = np.sqrt(radicand + 0j)
    alpha = np.sqrt(a_val - 2.0 * b_val)
    gamma = np.sqrt(a_val + 2.0 * b_val)
    return SpectralData(a_val, b_val, alpha, gamma, (alpha.imag != 0) | (gamma.imag != 0))


def expm(a):
    """exp(a) for a square matrix or a stack of them (any leading axes).

    Pade 13 with scaling and squaring (Higham, SIAM J. Matrix Anal. Appl.
    26 (2005) 1179): each matrix is scaled by 2^-s, s the least with
    1-norm / 2^s <= THETA13, its [13/13] Pade approximant r is solved for,
    and r is squared s times.  Each matrix of a stack gets its own s, so
    it comes out as it would alone.
    """
    a = np.asarray(a)
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    mant, exp = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / THETA13)
    s = np.maximum(exp - (mant == 0.5), 0)  # ceil(log2(norm / THETA13)), at least 0
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b = PADE13
    ident = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        more = s > k
        r[more] = r[more] @ r[more]
    return r.reshape(shape)


def _degenerate(spec_data):
    """True where 4B, alpha or gamma is within DEGENERACY_TOL of 0 for any element."""
    return min(np.abs(4.0 * spec_data.B).min(), np.abs(spec_data.alpha).min(),
               np.abs(spec_data.gamma).min()) < DEGENERACY_TOL


def _cos_sinc(q, t):
    """cos(theta t) and sin(theta t)/theta for theta^2 = q, elementwise.

    For real q both are real: cosh(|theta| t) and sinh(|theta| t)/|theta| where q < 0.
    """
    if np.iscomplexobj(q):
        theta = np.sqrt(q)
        return np.cos(theta * t), np.sin(theta * t) / theta
    r = np.sqrt(np.abs(q))
    rt = r * t
    c, s = np.cos(rt), np.sin(rt)
    hyperbolic = np.broadcast_to(q < 0, rt.shape)
    if hyperbolic.any():
        c[hyperbolic], s[hyperbolic] = np.cosh(rt[hyperbolic]), np.sinh(rt[hyperbolic])
    return c, s / r


def _entries(params, t):
    """(entry, shape): entry(i, j) is (Re S_ij, Im S_ij) of S(t) = exp(-i t M), built once.

    Both are shaped like broadcast(epsilon, t), but with one axis of length
    1 when that shape is (): numpy's scalar ufuncs may round differently from
    its array loops, and a scalar t must give the bits of the same t on a
    grid.  A single degenerate epsilon sends the whole batch to one stacked
    dense-expm call, a single complex B the batch to complex arithmetic.
    """
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(np.shape(params.epsilon), t.shape)
    if not shape:
        t = t[None]
    m = build_matrix(params)
    sd = spectral(params)
    if _degenerate(sd):
        s = expm(-1j * t[..., None, None] * m)
        return (lambda i, j: (s[..., i, j].real, s[..., i, j].imag)), shape
    real = not np.any(sd.B.imag)
    b = sd.B.real if real else sd.B
    al2, ga2 = sd.A - 2.0 * b, sd.A + 2.0 * b
    (ca, sa), (cg, sg) = _cos_sinc(al2, t), _cos_sinc(ga2, t)
    al2, ga2, four_b = (np.asarray(q)[..., None, None] for q in (al2, ga2, 4.0 * b))
    m2 = m @ m
    m3 = m2 @ m
    p1, p2 = (ga2 * np.eye(4) - m2) / four_b, (m2 - al2 * np.eye(4)) / four_b
    p3, p4 = (m3 - ga2 * m) / four_b, (al2 * m - m3) / four_b  # P3/i and P4/i

    def entry(i, j):
        cos_part = ca * p1[..., i, j]
        cos_part += cg * p2[..., i, j]
        sin_part = sa * p3[..., i, j]
        sin_part += sg * p4[..., i, j]
        if real:
            return cos_part, sin_part
        return cos_part.real - sin_part.imag, cos_part.imag + sin_part.real

    return cache(entry), shape


def _complex(re, im):
    z = np.array(re, dtype=complex)
    z.imag = im
    return z


def propagators(params, t):
    """S(t) = exp(-i t M) for scalar or array t and epsilon; shape broadcast(epsilon, t) + (4, 4)."""
    entry, shape = _entries(params, t)
    re, im = np.moveaxis([[entry(i, j) for j in range(4)] for i in range(4)], (0, 1), (-2, -1))
    return _complex(re, im).reshape(shape + (4, 4))


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
    (see initial_moments) each is G_ij = (N+1) S_i0 S_j2 + S_i1 S_j3 + N S_i2 S_j0,
    summed in real arithmetic (numpy's SIMD complex multiply fuses
    multiply-adds on some hosts) over the fourteen entries of S it reads.
    First moments of |N,0> vanish and stay zero under the homogeneous
    equations, so covariances equal raw second moments.
    """
    s, shape = _entries(params, t)
    g0 = initial_moments(params.n_initial)
    terms = [(k, l, g0[k, l].real) for k, l in zip(*np.nonzero(g0))]

    def g(i, j, imag):  # G_ij, or only its real part
        re = im = 0.0
        for k, l, value in terms:
            (xr, xi), (yr, yi) = s(i, k), s(j, l)
            part = xr * yr
            part -= xi * yi
            part *= value
            re += part
            if imag:
                part = xr * yi
                part += xi * yr
                part *= value
                im += part
        return _complex(re, im) if imag else re

    moments = g(0, 1, True), g(0, 3, True), g(2, 0, False), g(3, 1, False)
    return tuple(q.reshape(shape) for q in moments)


def moments_of(g):
    """(cov_ab, cov_ab_dagger, mean_na, mean_nb) read off G = <v_i v_j>, any leading axes."""
    # <ab>, <ab^dag>, <a^dag a>, <b^dag b> over v = (a, b, a^dag, b^dag)
    return g[..., 0, 1], g[..., 0, 3], g[..., 2, 0].real, g[..., 3, 1].real


def covariance_series(params, t):
    """Y via moment transport at a scalar or array t; refused where not finite (_finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        moments = transported_moment_arrays(params, t)
        return _finite("Y", covariance_measure(*moments), moments, params, t)


def photon_ratio_series(params, t):
    """|n_a - n_b| / (n_a + n_b) at a scalar or array t; refused where not finite (_finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, na, nb = transported_moment_arrays(params, t)
        total = na + nb
        if np.any(total <= 0):
            raise ValueError("photon difference ratio undefined at zero total photons")
        return _finite("the photon ratio", np.abs(na - nb) / total, (total,), params, t)


def _finite(name, result, parts, params, t):
    """result, or a ValueError naming the first point where it or one of parts is not finite."""
    bad = ~np.logical_and.reduce([np.isfinite(q) for q in (result, *parts)])
    if not bad.any():
        return result
    k = np.argmax(bad)
    eps, t_first = (np.broadcast_to(v, bad.shape).flat[k] for v in (params.epsilon, t))
    raise ValueError(f"{name} is not finite at lambda = {params.lam:g}, epsilon = {eps:g}, "
                     f"first at scaled time {to_scaled_time(t_first, params):g}: the second "
                     "moments overflow; lower epsilon or end the time grid earlier")
