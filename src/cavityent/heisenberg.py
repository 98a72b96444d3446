"""Pumped Heisenberg-picture dynamics of the operator vector (a, b, a^dag, b^dag).

The linear Heisenberg equations i dv/dt = M v are solved by the 4x4
propagator S(t) = exp(-i t M) = [[u, v], [v*, u*]], carried as its
Bogoliubov pair: a(t) = u00 a + u01 b + v00 a^dag + v01 b^dag, b(t) likewise
over u1k, v1k.  Rows 2-3 are only ever conjugated, since a^dag(t) = a(t)^dag.
M has the eigenvalues +-alpha and +-gamma, so (M^2 - alpha^2 I)(M^2 - gamma^2 I)
= 0, and S = F(M^2) - i M G(M^2), F(w) = cos(t sqrt w), G(w) = sin(t sqrt w)/sqrt w,
is the interpolation of F and G at the nodes alpha^2 and gamma^2 for every
spectrum (Higham, Functions of Matrices, 2008, ch. 1).  Each epsilon, also
inside a batch, takes Sylvester's form over four matrices built once per epsilon,

    S(t) = cos(alpha t) P1 + cos(gamma t) P2 + sin(alpha t)/alpha P3 + sin(gamma t)/gamma P4,
    P1 = (gamma^2 I - M^2)/4B,    P2 = (M^2 - alpha^2 I)/4B,
    P3 = i (M^3 - gamma^2 M)/4B,  P4 = i (alpha^2 M - M^3)/4B,

with sin(theta t)/theta = t at theta = 0, or, where 4B = gamma^2 - alpha^2 is
small against the nodes (KAPPA), Newton's form, which never divides by 4B,

    S(t) = F(alpha^2) I + F[alpha^2, gamma^2] (M^2 - alpha^2 I)
           - i M (G(alpha^2) I + G[alpha^2, gamma^2] (M^2 - alpha^2 I)).

For real B (every lambda < 2 omega) the four functions of Sylvester's form
are real (cosh and sinh/|theta| past the parametric instability), P1 and P2
real and P3 and P4 imaginary, so u and v come as real and imaginary parts
in real arithmetic; a complex B takes complex arithmetic.
`propagators`, the moment kernel and `piecewise_series`, which steps a
batch of pairs through a piecewise-constant pump, share this one row
builder.  The second moments of |N,0>, short sums over u and v, are the
authoritative route to Y; a series that overflows past the instability is
refused.  The published structure-function formulas for the same moments
and the Cayley-Hamilton coefficients live in `audit`, which never trusts
them, beside the dense exponential that oracle-check gates S against.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import covariance_measure, to_scaled_time

# Newton's form where |4B| <= KAPPA max(|alpha^2|, |gamma^2|), Sylvester's above.
# Sylvester's divides by 4B; Newton's F(alpha^2) I and F[..] (M^2 - alpha^2 I) cancel
# on the unstable side, where cosh(|alpha| t) >> cos(gamma t).  1e-3 is the crossover
# measured against a 40-digit reference; every cell of configs/*.cfg lies above it
# (the lowest, 2e-3, is fig5's at lambda = 1e-3, epsilon = 0).
KAPPA = 1e-3
RESCALE_THRESHOLD = 1e50  # on piecewise_series' pair, so on the moments 1e100
BLOCK_CELLS = 4096  # (segment, trial) cells whose propagators one _rows call builds


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


def _cos_sinc(q, t):
    """cos(theta t) and sin(theta t)/theta for theta^2 = q, elementwise; t where theta = 0.

    For real q both are real: cosh(|theta| t) and sinh(|theta| t)/|theta| where q < 0.
    """
    if np.iscomplexobj(q):
        theta = np.sqrt(q)
        c, s = np.cos(theta * t), np.sin(theta * t)
    else:
        theta = np.sqrt(np.abs(q))
        rt = theta * t
        c, s = np.cos(rt), np.sin(rt)
        hyperbolic = np.broadcast_to(q < 0, rt.shape)
        if hyperbolic.any():
            c[hyperbolic], s[hyperbolic] = np.cosh(rt[hyperbolic]), np.sinh(rt[hyperbolic])
    zero = theta == 0
    if zero.any():
        return c, np.where(zero, t, s / np.where(zero, 1.0, theta))
    return c, s / theta


def _rows(params, t):
    """(re, im, shape): rows [u v] of S(t) = exp(-i t M), re and im (2, 4) + grid.

    grid is shape = broadcast(epsilon, t), but with one axis of length 1 when
    that shape is (): numpy's scalar ufuncs may round differently from its
    array loops, and a scalar t must give the bits of the same t on a grid.
    Each epsilon takes its own form (real or complex B, Sylvester's or
    Newton's), so every member of a batch, a fig5 cell or a noise-ensemble
    trial, gets the bits it would get alone.
    """
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(np.shape(params.epsilon), t.shape)
    if not shape:
        t = t[None]
    sd = spectral(params)
    newton = np.abs(4.0 * sd.B) <= KAPPA * np.maximum(np.abs(sd.alpha), np.abs(sd.gamma)) ** 2
    form = 2 * newton + (sd.B.imag != 0)
    if (form != form.flat[0]).any():  # each form on the grid points whose epsilon takes it
        eps, t, form = np.broadcast_arrays(params.epsilon, t, form)
        re, im = np.empty((2, 2, 4) + shape)
        for f in np.unique(form):
            on = form == f
            re[:, :, on], im[:, :, on], _ = _rows(replace(params, epsilon=eps[on]), t[on])
        return re, im, shape
    m = build_matrix(params)
    real = form.flat[0] % 2 == 0
    b = sd.B.real if real else sd.B
    al2, ga2 = sd.A - 2.0 * b, sd.A + 2.0 * b
    ca, sa = _cos_sinc(al2, t)

    def top(x):  # rows 0-1 of a 4x4 stack as (2, 4) + epsilon's axes, aligned with the grid's
        x = np.ascontiguousarray(np.moveaxis(x[..., :2, :], (-2, -1), (0, 1)))
        return x.reshape((2, 4) + (1,) * (np.ndim(ca) + 2 - x.ndim) + x.shape[2:])

    m2 = m @ m
    i, m1, m2, m3 = (top(x) for x in (np.eye(4), m, m2, m2 @ m))
    if newton.flat[0]:
        # divided differences over c = (alpha + gamma)/2 and d = (alpha - gamma)/2 = -B/c:
        # F[alpha^2, gamma^2] = -(t^2/2) sinc(ct) sinc(dt) and G[alpha^2, gamma^2] =
        # (t/2)(cos(ct) sinc(dt) - sinc(ct) cos(dt))/(alpha gamma), which is G'(0) = -t^3/6
        # where c = 0 (alpha = gamma = 0).  alpha + gamma does not cancel: for real B their
        # parts share signs, and for a complex B they are exact conjugates
        alpha, gamma = sd.alpha, sd.gamma
        c = (alpha + gamma) / 2.0
        zero = c == 0
        d = -sd.B / np.where(zero, 1.0, c)
        (cos_c, sinc_c), (cos_d, sinc_d) = _cos_sinc(c * c, t), _cos_sinc(d * d, t)
        f_diff = -0.5 * sinc_c * sinc_d
        g_diff = 0.5 * (cos_c * sinc_d - sinc_c * cos_d) / np.where(zero, 1.0, alpha * gamma)
        g_diff = np.where(zero, -t ** 3 / 6.0, g_diff)
        cos_part = ca * i + f_diff * (m2 - al2 * i)         # F(M^2)
        sin_part = -(sa * m1 + g_diff * (m3 - al2 * m1))    # -M G(M^2)
        if real:
            cos_part, sin_part = cos_part.real, sin_part.real
    else:
        cg, sg = _cos_sinc(ga2, t)
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
