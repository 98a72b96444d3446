"""Monte-Carlo study of Gaussian pump-amplitude fluctuations.

The pump amplitude is a piecewise-constant function of time: the run is
split into equal segments and each segment draws an independent Gaussian
amplitude.  The quoted "one-tenth of the mean" noise level is read as
std = mean/10 by default: the literal variance = mean/10 reading gives a
standard deviation of sqrt(mean/10), which at small mean dwarfs the mean
itself (10x the mean at mean = 0.001) and contradicts the observation
that weak-pump fluctuations leave the entanglement untouched.  Both
readings are available through the spread switch.  Negative draws are
not clamped -- the Hamiltonian is well defined for negative epsilon and
clamping would bias the distribution.

The per-time coefficient of variation is normalized by the peak of the
ensemble-mean Y rather than pointwise: Y crosses zero periodically, and
a pointwise std/mean is O(1) at the crossings for arbitrarily small
pump noise, which would make the spread diagnostic meaningless.

The drawn schedules are the pump: `draw_schedules` returns them as an
(n_trials, n_segments) array, which goes in as params.epsilon, and
`ensemble_of(params, total_scaled_time)` splits the run into n_segments
equal steps.  All trials are propagated together, and each gets the bits
of its own run (`heisenberg.piecewise_series`).
"""

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily: load it with this module, not in the first draw
from numpy.random import SeedSequence, default_rng

from . import heisenberg
from .params import to_physical_time


@dataclass(frozen=True)
class EnsembleResult:
    t_scaled: np.ndarray      # shared grid, scaled-time units
    trials: np.ndarray        # (n_trials, len(t_scaled)) Y values
    mean: np.ndarray
    std: np.ndarray
    cv: np.ndarray           # std normalized by the peak of the mean series


def trial_seed(master_seed, trial):
    return SeedSequence([int(master_seed), int(trial)])


def draw_schedules(mean_epsilon, n_trials=10, master_seed=0, n_segments=100, spread="std"):
    """The seeded piecewise-constant pump schedules of an ensemble, (n_trials, n_segments).

    Row k is n_segments Gaussian draws about mean_epsilon from
    default_rng(trial_seed(master_seed, k)), with
    spread="std":      std      = mean/10 (default, see module docstring);
    spread="variance": variance = mean/10 (the literal reading).
    """
    if mean_epsilon < 0:
        raise ValueError("mean pump amplitude must be non-negative")
    if spread == "variance":
        sigma = math.sqrt(mean_epsilon / 10.0)
    elif spread == "std":
        sigma = mean_epsilon / 10.0
    else:
        raise ValueError(f"unknown spread mode {spread!r}")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if n_segments < 1:
        raise ValueError(f"need at least one pump segment, got n_segments = {n_segments}")
    rngs = (default_rng(trial_seed(master_seed, k)) for k in range(n_trials))
    return np.stack([rng.normal(mean_epsilon, sigma, int(n_segments)) for rng in rngs])


def ensemble_of(params, total_scaled_time):
    """Y of every trial of the batch params.epsilon over total_scaled_time, and its statistics.

    params.epsilon is the (n_trials, n_segments) pump, row k trial k's schedule
    (`draw_schedules`); the trials are propagated together on n_segments equal steps.
    """
    shape = np.shape(params.epsilon)
    if len(shape) != 2 or not all(shape):
        raise ValueError(f"ensemble_of needs epsilon of shape (n_trials, n_segments), "
                         f"both at least 1, got shape {shape}")
    dt = to_physical_time(total_scaled_time, params) / shape[1]
    trials = heisenberg.piecewise_series(params, dt)
    t_scaled = np.linspace(0.0, total_scaled_time, shape[1] + 1)
    mean = trials.mean(axis=0)
    std = trials.std(axis=0)
    peak = mean.max()
    cv = std / peak if peak > 0 else np.zeros_like(std)
    return EnsembleResult(t_scaled, trials, mean, std, cv)


def spread_statistics(ensemble):
    """Max-over-time std and coefficient of variation of Y across trials."""
    if ensemble.trials.shape[0] < 2:
        raise ValueError("spread statistics need at least two trials")
    return float(ensemble.std.max()), float(ensemble.cv.max())
