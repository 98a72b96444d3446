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

All trials of an ensemble are propagated together.  A product of
propagators has their form [[u, v], [v*, u*]], so each trial carries the
Bogoliubov pair (u, v) of its product so far: one `heisenberg._rows` call
builds the rows of a block of segments, each on its own propagator path,
one `heisenberg.compose` per segment steps all trials, and Y, read once
per block, comes from the same sums over u and v as on the transport
route.  Past the instability the pair grows: a trial's pair is divided by
its peak when that passes RESCALE_THRESHOLD, and the moments, quadratic
in it, keep the square of the factor in a log scale that only Y's vacuum
term needs.  The rescale acts between segments, so a run in which one
segment grows the pair by more than about 1e258, out of double range, is
refused naming the segment.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
# numpy loads numpy.random lazily: load it with this module, not in the first draw
from numpy.random import SeedSequence, default_rng

from . import heisenberg
from .params import covariance_measure, to_physical_time

RESCALE_THRESHOLD = 1e50  # on the pair, so on the moments 1e100
BLOCK_CELLS = 4096  # (segment, trial) cells whose propagators one _rows call builds


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


def propagate_piecewise(params, schedule):
    """Y at every segment boundary under the piecewise-constant pump.

    The schedule is the pump: params.epsilon is not read.  Returns
    (t_scaled, y); y has one row per trial of a batched schedule, each of
    length n_segments + 1.  One `heisenberg._rows` call builds each
    block of about BLOCK_CELLS (segment, trial) cells, each segment on its
    own propagator path, so each trial's row is the bits of its own run.
    Raises ValueError when a trial's pair stops being finite within one
    segment; more segments shorten each step.
    """
    batch = schedule.values.shape[:-1]
    dt = schedule.segment_duration(params)
    values = np.moveaxis(schedule.values, -1, 0)  # segment-major
    step = max(1, BLOCK_CELLS // max(1, math.prod(batch)))
    pair = np.eye(2, 4)  # rows [u v] of S(0) = I; compose broadcasts it over the trials
    log_scale = np.zeros(batch)
    y = np.empty(batch + (schedule.n_segments + 1,))
    y[..., 0] = covariance_measure(*heisenberg.pair_moments(pair, params.n_initial))
    for start in range(0, schedule.n_segments, step):
        history = []  # (pair, log_scale) after each segment of the block
        with np.errstate(over="ignore", invalid="ignore"):
            re, im, _ = heisenberg._rows(replace(params, epsilon=values[start:start + step]), dt)
            for rows in np.moveaxis(re + 1j * im, 2, 0):
                pair = heisenberg.compose(rows, pair)
                peak = np.abs(pair).max(axis=(0, 1))  # not finite where the pair is not
                if not np.isfinite(peak).all():
                    raise ValueError(
                        f"second moments overflow within pump segment {start + len(history) + 1}"
                        f" of {schedule.n_segments} at lambda = {params.lam:g}; use more segments")
                grown = peak > RESCALE_THRESHOLD
                if grown.any():  # the moments, quadratic in the pair, keep 2 log(peak)
                    pair = np.where(grown, pair / peak, pair)
                    log_scale = log_scale + np.where(grown, 2.0 * np.log(peak), 0.0)
                history.append((pair, log_scale))
        pairs, log_scales = (np.stack(x, axis=-1) for x in zip(*history))  # segments last, as in y
        half = np.where(log_scales < 700.0, 0.5 * np.exp(-log_scales), 0.0)
        moments = heisenberg.pair_moments(pairs, params.n_initial)
        y[..., start + 1:start + 1 + len(history)] = covariance_measure(*moments, half)
    t_scaled = np.linspace(0.0, schedule.total_scaled_time, schedule.n_segments + 1)
    return t_scaled, y


def trial_seed(master_seed, trial):
    return SeedSequence([int(master_seed), int(trial)])


def draw_schedules(mean_epsilon, n_trials=10, master_seed=0, n_segments=100,
                   total_scaled_time=5.0, spread="std"):
    """The seeded piecewise-constant pump schedules of an ensemble, one row per trial.

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
    values = np.stack([rng.normal(mean_epsilon, sigma, int(n_segments)) for rng in rngs])
    return FluctuationSchedule(float(total_scaled_time), values)


def ensemble_of(params, batch):
    """Y of every trial of a batch of schedules, propagated together, and its statistics.

    The schedules are the pump: params.epsilon is not read.
    """
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
