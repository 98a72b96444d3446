"""Model parameters, scaled-time conventions and the entanglement measure Y.

All quantities are in dimensionless (scaled) units.  Time is often quoted
in units of pi/lambda, the period of the pump-free photon exchange between
the two cavities.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the two coupled single-mode cavities.

    omega     -- angular frequency common to both modes
    lam       -- cavity-cavity photon hopping strength
    epsilon   -- quadratic (two-photon) pump amplitude, real; the matrix
                 functions of `heisenberg` also take an array of them
    n_initial -- photon number N of the a-mode at t = 0 (b-mode in vacuum)
    """

    omega: float = 1.0
    lam: float = 0.1
    epsilon: float = 0.0
    n_initial: int = 5


def violations(params):
    """List every violated parameter invariant; empty list means valid."""
    problems = []
    for name in ("omega", "lam", "epsilon"):
        value = getattr(params, name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} must be a finite real number")
    if isinstance(params.omega, (int, float)) and math.isfinite(params.omega):
        if params.omega <= 0:
            problems.append("omega must be positive")
    n = params.n_initial
    if not isinstance(n, int) or isinstance(n, bool):
        problems.append("n_initial must be an integer")
    elif n < 0:
        problems.append("n_initial must be non-negative")
    return problems


def validate(params):
    """Return params unchanged if valid, else raise ValueError naming each problem."""
    problems = violations(params)
    if problems:
        raise ValueError("invalid parameters: " + "; ".join(problems))
    return params


def covariance_measure(cov_ab, cov_ab_dagger, nbar_a, nbar_b, vacuum_half=0.5):
    """Dodonov's covariance entanglement measure Y, elementwise over arrays.

        Y = sqrt( (|cov(a,b^dag)|^2 + |cov(a,b)|^2) / (2 (nbar_a + h)(nbar_b + h)) )

    with h = vacuum_half, the +1/2 vacuum term (smaller when the moments are
    carried divided by a scale factor).  Y is 0 where the denominator is not
    positive, NaN where it is NaN.  Where the largest moment passes 2^500,
    all four and h are first divided by 2^k, k its binary exponent: exact,
    and the squares stay finite until a moment itself overflows.  Every
    route computes Y through this one function but one:
    binomial.covariance_measure_closed, the pump-free closed formula that
    fig1 and fig2 tabulate, is kept as an independent check of it.
    """
    # asarray and np.square: scalars take the array arithmetic, so both agree
    # bit for bit (a numpy scalar's ** 2 calls libm's pow, at times one ulp off x * x)
    parts = [np.abs(np.asarray(cov_ab_dagger)), np.abs(np.asarray(cov_ab)),
             np.asarray(nbar_a), np.asarray(nbar_b), vacuum_half]
    _, k = np.frexp(np.maximum(np.maximum(parts[0], parts[1]),
                               np.maximum(np.abs(parts[2]), np.abs(parts[3]))))
    if np.any(k > 500):
        scale = np.ldexp(1.0, np.where(k > 500, -k, 0))
        parts = [q * scale for q in parts]
    abs_abd, abs_ab, nbar_a, nbar_b, half = parts
    num = np.square(abs_abd) + np.square(abs_ab)
    den = 2.0 * (nbar_a + half) * (nbar_b + half)
    ratio = np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=~(den <= 0))
    return np.sqrt(ratio)


def to_physical_time(s, params):
    """Convert scaled time (units of pi/lambda) to physical time.

    A ValueError names lambda where s * pi / lambda is not finite, as for a
    subnormal lambda, instead of handing inf on to the routes.
    """
    if params.lam == 0:
        raise ValueError("scaled time undefined for uncoupled cavities")
    with np.errstate(over="ignore"):
        t = s * math.pi / params.lam
    finite = np.isfinite(t)
    if not np.all(finite):
        s_first = np.broadcast_to(s, np.shape(t)).flat[np.argmin(finite)]
        raise ValueError(f"physical time is not finite at lambda = {params.lam:g}, scaled "
                         f"time {s_first:g}: scaled time * pi / lambda overflows; "
                         "raise lambda or end the time grid earlier")
    return t


def to_scaled_time(t, params):
    """Convert physical time to scaled time (units of pi/lambda)."""
    if params.lam == 0:
        raise ValueError("scaled time undefined for uncoupled cavities")
    return t * params.lam / math.pi
