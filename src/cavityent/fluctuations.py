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

Long runs at small lambda can enter the parametrically unstable regime
inside individual segments, so the second-moment matrix is carried with
an extracted scale factor to keep everything inside double-precision
range; the covariance measure only needs moment ratios plus a scaled
vacuum term.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import heisenberg
from .params import covariance_measure

RESCALE_THRESHOLD = 1e100


@dataclass(frozen=True)
class FluctuationSchedule:
    mean_epsilon: float
    n_segments: int
    total_scaled_time: float
    values: np.ndarray
    seed: object

    def segment_duration(self, params):
        return self.total_scaled_time * math.pi / params.lam / self.n_segments


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
    return FluctuationSchedule(float(mean), int(n_segments), float(total_scaled_time), values, seed)


def propagate_piecewise(params, schedule):
    """Y at every segment boundary under the piecewise-constant pump.

    Returns (t_scaled, y) arrays of length n_segments + 1.  Moments are
    transported segment by segment through exp(-i dt M(eps_k)) and
    rescaled when they grow large (unstable excursions).
    """
    dt = schedule.segment_duration(params)
    g = heisenberg.initial_moments(params.n_initial)
    log_scale = 0.0
    moments = np.empty((schedule.n_segments + 1, 4, 4), dtype=complex)
    half = np.empty(schedule.n_segments + 1)
    moments[0], half[0] = g, 0.5
    for k, eps_k in enumerate(schedule.values):
        s = heisenberg.propagators(params.with_epsilon(eps_k), dt)
        g = s @ g @ s.T
        peak = np.abs(g).max()
        if peak > RESCALE_THRESHOLD:
            g /= peak
            log_scale += math.log(peak)
        moments[k + 1] = g
        half[k + 1] = 0.5 * math.exp(-log_scale) if log_scale < 700.0 else 0.0
    y = covariance_measure(moments[:, 0, 1], moments[:, 0, 3],
                           moments[:, 2, 0].real, moments[:, 3, 1].real, half)
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
    """Independent seeded trials of the fluctuating-pump evolution."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    trials = []
    t_scaled = None
    for k in range(n_trials):
        sched = sample_schedule(
            mean_epsilon, n_segments, total_scaled_time, seed=trial_seed(master_seed, k), spread=spread
        )
        t_scaled, y = propagate_piecewise(params, sched)
        trials.append(y)
    trials = np.array(trials)
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
