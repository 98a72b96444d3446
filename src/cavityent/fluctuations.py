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

All trials of an ensemble are propagated together: their schedules are
stacked into one (n_trials, n_segments) array, and each segment takes one
propagator call for every trial at once.  Long runs at small lambda can
enter the parametrically unstable regime inside individual segments, so
each trial's second-moment matrix is carried with its own extracted scale
factor to keep everything inside double-precision range; the covariance
measure only needs moment ratios plus a scaled vacuum term.  The rescale
acts between segments, so a run in which one segment's growth alone leaves
that range is refused with a ValueError naming the segment, not written
out as nan.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import heisenberg
from .params import covariance_measure, to_physical_time

RESCALE_THRESHOLD = 1e100


@dataclass(frozen=True)
class FluctuationSchedule:
    total_scaled_time: float
    values: np.ndarray    # (n_segments,), or (n_trials, n_segments) for a batch
    n_segments = property(lambda self: self.values.shape[-1])

    def segment_duration(self, params):
        return to_physical_time(self.total_scaled_time, params) / self.n_segments


@dataclass(frozen=True)
class EnsembleResult:
    t_scaled: np.ndarray      # shared grid, scaled-time units
    trials: np.ndarray        # (n_trials, len(t_scaled)) Y values
    mean: np.ndarray
    std: np.ndarray
    cv: np.ndarray           # std normalized by the peak of the mean series


def sample_schedule(mean, n_segments=100, total_scaled_time=5.0, seed=0, spread="std"):
    """Draw a seeded piecewise-constant pump schedule.

    spread="std":      Gaussian std      = mean/10 (default, see module docstring).
    spread="variance": Gaussian variance = mean/10 (the literal reading).
    """
    if mean < 0:
        raise ValueError("mean pump amplitude must be non-negative")
    if spread == "variance":
        sigma = math.sqrt(mean / 10.0)
    elif spread == "std":
        sigma = mean / 10.0
    else:
        raise ValueError(f"unknown spread mode {spread!r}")
    rng = np.random.default_rng(seed)
    values = rng.normal(loc=mean, scale=sigma, size=int(n_segments))
    return FluctuationSchedule(float(total_scaled_time), values)


def propagate_piecewise(params, schedule):
    """Y at every segment boundary under the piecewise-constant pump.

    Returns (t_scaled, y); y has one row per trial of a batched schedule,
    each of length n_segments + 1.  Moments are transported segment by
    segment through exp(-i dt M(eps_k)), all trials in one propagator call,
    and each trial is rescaled on its own when its moments grow large
    (unstable excursions).  Raises ValueError when the moments stop being
    finite within one segment; more segments shorten each step.
    """
    batch = schedule.values.shape[:-1]
    dt = schedule.segment_duration(params)
    g = np.broadcast_to(heisenberg.initial_moments(params.n_initial), batch + (4, 4))
    log_scale = np.zeros(batch)
    y = np.empty(batch + (schedule.n_segments + 1,))
    y[..., 0] = covariance_measure(*heisenberg.moments_of(g))
    for k in range(schedule.n_segments):
        with np.errstate(over="ignore", invalid="ignore"):
            s = heisenberg.propagators(replace(params, epsilon=schedule.values[..., k]), dt)
            g = s @ g @ np.swapaxes(s, -1, -2)
        if not np.isfinite(g).all():
            raise ValueError(
                f"second moments overflow within pump segment {k + 1} of "
                f"{schedule.n_segments} at lambda = {params.lam:g}; use more segments"
            )
        peak = np.abs(g).max(axis=(-2, -1))
        grown = peak > RESCALE_THRESHOLD
        g = np.where(grown[..., None, None], g / peak[..., None, None], g)
        log_scale += np.where(grown, np.log(peak), 0.0)
        half = np.where(log_scale < 700.0, 0.5 * np.exp(-log_scale), 0.0)
        y[..., k + 1] = covariance_measure(*heisenberg.moments_of(g), half)
    t_scaled = np.linspace(0.0, schedule.total_scaled_time, schedule.n_segments + 1)
    return t_scaled, y


def trial_seed(master_seed, trial):
    return np.random.SeedSequence([int(master_seed), int(trial)])


def run_ensemble(
    params,
    mean_epsilon,
    n_trials=10,
    master_seed=0,
    n_segments=100,
    total_scaled_time=5.0,
    spread="std",
):
    """Independent seeded trials of the fluctuating-pump evolution.

    Trial k draws its schedule from trial_seed(master_seed, k); the
    schedules are stacked and propagated together.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    seeds = [trial_seed(master_seed, k) for k in range(n_trials)]
    values = np.stack([sample_schedule(mean_epsilon, n_segments, total_scaled_time, seed,
                                       spread).values for seed in seeds])
    batch = FluctuationSchedule(float(total_scaled_time), values)
    t_scaled, trials = propagate_piecewise(params, batch)
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
