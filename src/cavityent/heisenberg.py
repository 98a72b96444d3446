"""Pumped Heisenberg-picture dynamics of the operator vector (a, b, a^dag, b^dag).

The linear Heisenberg equations i dv/dt = M v are solved by the 4x4
propagator S(t) = exp(-i t M) = [[u, v], [v*, u*]], carried as its
Bogoliubov pair: a(t) = u00 a + u01 b + v00 a^dag + v01 b^dag, b(t) likewise
over u1k, v1k.  Rows 2-3 are only ever conjugated, since a^dag(t) = a(t)^dag.
M has the eigenvalues +-alpha and +-gamma; where they are distinct S is
Sylvester's form over four fixed matrices,

    S(t) = cos(alpha t) P1 + cos(gamma t) P2 + sin(alpha t)/alpha P3 + sin(gamma t)/gamma P4,
    P1 = (gamma^2 I - M^2)/4B,    P2 = (M^2 - alpha^2 I)/4B,
    P3 = i (M^3 - gamma^2 M)/4B,  P4 = i (alpha^2 M - M^3)/4B,

with 4B = gamma^2 - alpha^2 and the P built once per epsilon.  For real B
(every lambda < 2 omega) P1 and P2 are real, P3 and P4 imaginary and the
four functions real (cosh and sinh/|theta| past the parametric
instability), so u and v come as real and imaginary parts in real
arithmetic.  A complex B takes complex arithmetic, a degenerate spectrum
the dense matrix exponential `expm` (Pade 13 with scaling and squaring),
each epsilon its own path (`paths`) also inside a batch.  `propagators`,
the moment kernel and `piecewise_series`, which steps a batch of pairs
through a piecewise-constant pump, share this one row builder.  The second
moments of |N,0>, short sums over u and v, are the authoritative route to
Y; a series that overflows past the instability is refused.  The published
structure-function formulas for the same moments, and the Cayley-Hamilton
coefficients, live in `audit`, which never trusts them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import covariance_measure, to_scaled_time

DEGENERACY_TOL = 1e-10
REAL, COMPLEX, DENSE = 0, 1, 2  # propagator paths (`paths`)
RESCALE_THRESHOLD = 1e50  # on piecewise_series' pair, so on the moments 1e100
BLOCK_CELLS = 4096  # (segment, trial) cells whose propagators one _rows call builds

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


def paths(spec_data):
    """Each epsilon's propagator path, shaped like epsilon: REAL, COMPLEX or DENSE.

    DENSE (expm) where 4B, alpha or gamma is within DEGENERACY_TOL of 0,
    else COMPLEX where B is complex, else REAL.  `_rows` builds each
    epsilon's rows on its own path.
    """
    sd = spec_data
    degenerate = np.minimum(np.minimum(np.abs(4.0 * sd.B), np.abs(sd.alpha)),
                            np.abs(sd.gamma)) < DEGENERACY_TOL
    return np.where(degenerate, DENSE, np.where(sd.B.imag != 0, COMPLEX, REAL))


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


def _rows(params, t):
    """(re, im, shape): rows [u v] of S(t) = exp(-i t M), re and im (2, 4) + grid.

    grid is shape = broadcast(epsilon, t), but with one axis of length 1 when
    that shape is (): numpy's scalar ufuncs may round differently from its
    array loops, and a scalar t must give the bits of the same t on a grid.
    Each epsilon takes its own path (`paths`), so every member of a batch,
    a fig5 cell or a noise-ensemble trial, gets the bits it would get alone.
    """
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(np.shape(params.epsilon), t.shape)
    if not shape:
        t = t[None]
    sd = spectral(params)
    path = paths(sd)
    if (path != path.flat[0]).any():  # each path on the grid points whose epsilon takes it
        eps, t, path = np.broadcast_arrays(params.epsilon, t, path)
        re, im = np.empty((2, 2, 4) + shape)
        for p in np.unique(path):
            on = path == p
            re[:, :, on], im[:, :, on], _ = _rows(replace(params, epsilon=eps[on]), t[on])
        return re, im, shape
    m = build_matrix(params)
    if path.flat[0] == DENSE:
        s = np.moveaxis(expm(-1j * t[..., None, None] * m)[..., :2, :], (-2, -1), (0, 1))
        return s.real, s.imag, shape
    real = path.flat[0] == REAL
    b = sd.B.real if real else sd.B
    al2, ga2 = sd.A - 2.0 * b, sd.A + 2.0 * b
    (ca, sa), (cg, sg) = _cos_sinc(al2, t), _cos_sinc(ga2, t)

    def top(x):  # rows 0-1 of a 4x4 stack as (2, 4) + epsilon's axes, aligned with the grid's
        x = np.ascontiguousarray(np.moveaxis(x[..., :2, :], (-2, -1), (0, 1)))
        return x.reshape((2, 4) + (1,) * (np.ndim(ca) + 2 - x.ndim) + x.shape[2:])

    m2 = m @ m
    i, m1, m2, m3 = (top(x) for x in (np.eye(4), m, m2, m2 @ m))
    four_b = 4.0 * b
    cos_part = ca * ((ga2 * i - m2) / four_b)        # cos(alpha t) P1
    cos_part += cg * ((m2 - al2 * i) / four_b)       # cos(gamma t) P2
    sin_part = sa * ((m3 - ga2 * m1) / four_b)       # sin(alpha t)/alpha P3/i
    sin_part += sg * ((al2 * m1 - m3) / four_b)      # sin(gamma t)/gamma P4/i
    if real:
        return cos_part, sin_part, shape
    return cos_part.real - sin_part.imag, cos_part.imag + sin_part.real, shape


def _complete(pair):
    """S = [[u, v], [v*, u*]] from its rows [u v]: (2, 4) + grid -> (4, 4) + grid."""
    return np.concatenate([pair, pair[:, [2, 3, 0, 1]].conj()])


def propagators(params, t):
    """S(t) = [[u, v], [v*, u*]] at scalar or array t, epsilon; broadcast(epsilon, t) + (4, 4)."""
    re, im, shape = _rows(params, t)
    return np.moveaxis(_complete(re + 1j * im), (0, 1), (-2, -1)).reshape(shape + (4, 4))


def transported_moment_arrays(params, t):
    """(cov_ab, cov_ab_dagger, mean_na, mean_nb) of |N,0> at a scalar or array t (_paper_sums)."""
    re, im, shape = _rows(params, t)
    return tuple(q.reshape(shape) for q in _paper_sums(re, im, params.n_initial))


def piecewise_series(params, values, dt):
    """Y at every segment boundary for epsilon = values[..., k] on segment k, each dt long.

    params.epsilon is not read; y is values.shape[:-1] + (n_segments + 1,), Y(0) first.
    Each trial (row of values) carries the pair (u, v) of its propagator product so far.
    One `_rows` call builds a block of about BLOCK_CELLS (segment, trial) cells, each on its
    own path, so each trial gets the bits of its own run, and Y is read once per block.  A
    pair whose peak passes RESCALE_THRESHOLD is divided by it; the moments, quadratic in the
    pair, keep the square of that factor in a log scale that only Y's vacuum term needs.
    The rescale acts between segments, so a segment that grows a pair past double range
    (about 1e258) is refused with a ValueError naming it; more segments shorten each step.
    """
    batch, n_segments = values.shape[:-1], values.shape[-1]
    values = np.moveaxis(values, -1, 0)  # segment-major
    step = max(1, BLOCK_CELLS // max(1, math.prod(batch)))
    pair = np.eye(2, 4)  # rows [u v] of S(0) = I, broadcast over the trials
    log_scale = np.zeros(batch)
    y = np.empty(batch + (n_segments + 1,))
    y[..., 0] = covariance_measure(*_paper_sums(pair.real, pair.imag, params.n_initial))
    for start in range(0, n_segments, step):
        history = []  # (pair, log_scale) after each segment of the block
        with np.errstate(over="ignore", invalid="ignore"):
            re, im, _ = _rows(replace(params, epsilon=values[start:start + step]), dt)
            for rows in np.moveaxis(re + 1j * im, 2, 0):
                pair = np.einsum("ik...,kj...->ij...", rows, _complete(pair))  # rows of S P
                peak = np.abs(pair).max(axis=(0, 1))  # not finite where the pair is not
                if not np.isfinite(peak).all():
                    raise ValueError(
                        f"second moments overflow within pump segment {start + len(history) + 1}"
                        f" of {n_segments} at lambda = {params.lam:g}; use more segments")
                grown = peak > RESCALE_THRESHOLD
                if grown.any():  # the moments, quadratic in the pair, keep 2 log(peak)
                    pair = np.where(grown, pair / peak, pair)
                    log_scale = log_scale + np.where(grown, 2.0 * np.log(peak), 0.0)
                history.append((pair, log_scale))
        pairs, log_scales = (np.stack(x, axis=-1) for x in zip(*history))  # segments last, as in y
        half = np.where(log_scales < 700.0, 0.5 * np.exp(-log_scales), 0.0)
        moments = _paper_sums(pairs.real, pairs.imag, params.n_initial)
        y[..., start + 1:start + 1 + len(history)] = covariance_measure(*moments, half)
    return y


def _paper_sums(re, im, n):
    """The entries of G = S G(0) S^T that Y reads, from rows [u v] of S as re, im (2, 4) + grid:

        <a^dag a> = (N+1) |v00|^2 + |v01|^2 + N |u00|^2,  <b^dag b> likewise over row 1,
        <ab>      = (N+1) u00 v10 + u01 v11 + N v00 u10,
        <ab^dag>  = (N+1) u00 u10* + u01 u11* + N v00 v10*,

    in real arithmetic (numpy's SIMD complex multiply fuses multiply-adds on
    some hosts); the photon numbers, sums of squares, are never negative.
    First moments of |N,0> vanish and stay zero under the homogeneous
    equations, so covariances equal raw second moments.
    """
    # the entries of a(t)'s and b(t)'s rows, each as its (re, im) pair
    (u00, u01, v00, _), (u10, u11, v10, v11) = (list(zip(r, i)) for r, i in zip(re, im))

    def paper_sum(x0, x1, x2):
        return (n + 1.0) * x0 + x1 + n * x2

    cov = np.empty((2,) + re.shape[2:], dtype=complex)
    pairs = (u00, v10), (u01, v11), (v00, u10)  # <ab>
    cov.real[0] = paper_sum(*(x[0] * y[0] - x[1] * y[1] for x, y in pairs))
    cov.imag[0] = paper_sum(*(x[0] * y[1] + x[1] * y[0] for x, y in pairs))
    pairs = (u00, u10), (u01, u11), (v00, v10)  # <ab^dag>, against conj(y)
    cov.real[1] = paper_sum(*(x[0] * y[0] + x[1] * y[1] for x, y in pairs))
    cov.imag[1] = paper_sum(*(x[1] * y[0] - x[0] * y[1] for x, y in pairs))
    # <a^dag a> and <b^dag b> together, over rows 0 and 1
    mean_n = paper_sum(*(re[:, k] * re[:, k] + im[:, k] * im[:, k] for k in (2, 3, 0)))
    return (*cov, *mean_n)


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


def _finite(name, result, parts, params, t, advice="lower epsilon or end the time grid earlier"):
    """result, or a ValueError naming the first point where it or one of parts is not finite."""
    bad = ~np.logical_and.reduce([np.isfinite(q) for q in (result, *parts)])
    if not bad.any():
        return result
    k = np.argmax(bad)
    eps, t_first = (np.broadcast_to(v, bad.shape).flat[k] for v in (params.epsilon, t))
    raise ValueError(f"{name} is not finite at lambda = {params.lam:g}, epsilon = {eps:g}, "
                     f"first at scaled time {to_scaled_time(t_first, params):g}: the second "
                     f"moments overflow; {advice}")
