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
    carried divided by a scale factor).  Where the denominator is not
    positive, Y is 0.  Every route computes Y through this one function.
    """
    # asarray: scalars take the array arithmetic, so both agree bit for bit
    num = np.abs(np.asarray(cov_ab_dagger)) ** 2 + np.abs(np.asarray(cov_ab)) ** 2
    den = 2.0 * (np.asarray(nbar_a) + vacuum_half) * (np.asarray(nbar_b) + vacuum_half)
    ratio = np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0)
    return np.sqrt(ratio)


def to_physical_time(s, params):
    """Convert scaled time (units of pi/lambda) to physical time."""
    if params.lam == 0:
        raise ValueError("scaled time undefined for uncoupled cavities")
    return s * math.pi / params.lam


def to_scaled_time(t, params):
    """Convert physical time to scaled time (units of pi/lambda)."""
    if params.lam == 0:
        raise ValueError("scaled time undefined for uncoupled cavities")
    return t * params.lam / math.pi
