"""Deterministic data tables behind each figure-reproduction subcommand.

Every function returns (columns, meta): an ordered mapping of column name
to 1-D array, plus the settings the table was produced from.  Column
layouts are part of the CLI contract and must stay stable.
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import binomial, fluctuations, heisenberg
from .params import ModelParams, to_physical_time

FIG3_PAIRS = ((0.001, 0.1), (0.001, 0.001), (0.1, 0.1), (0.1, 0.001))
FIG4_PAIRS = ((0.001, 0.1), (0.001, 0.001), (0.1, 0.005))
FIG5_LAMBDAS = (0.001, 0.005, 0.01, 0.05, 0.1)
FIG6_LAMBDAS = (0.001, 0.05)
SENSITIVITY_WINDOWS = (1.0, 5.0)  # fig5's other scan windows, in units of pi/lambda
# (epsilon, time) points fig5 evaluates in one covariance_series call: a few
# cells of the CSV prefix per block, so each pool task outweighs its numpy
# call overheads, and one cell of the JSON run's longer grid
BLOCK = 32768
# glibc mallopt parameters and the values _scan and fig6 pin: the mmap
# threshold at the 32 MiB ceiling of glibc's own dynamic rule, and no
# trimming of a free heap top below 256 MiB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES, _MMAP_THRESHOLD_BYTES = 256 << 20, 32 << 20


def _tag(lam, eps):
    return f"lam{lam:g}_eps{eps:g}"


def _labels(setting, values, label):
    """label(value) for each value of a list setting, in order.

    The labels name output columns, so an empty list would leave no data
    column and two values with one label a single column; a ValueError
    names the setting instead.
    """
    if len(values) == 0:
        raise ValueError(f"{setting} must list at least one value")
    seen = {}
    for value in values:
        text = label(value)
        if text in seen:
            raise ValueError(
                f"{setting} {seen[text]} and {value} give the same column label {text!r}; "
                "each value needs a label of its own"
            )
        seen[text] = value
    return list(seen)


def fig1(omega=1.0, lam=0.1, t_max_scaled=1.0, points=1001, n_values=(1, 5, 10, 50)):
    """Pump-free Y(t) for several initial photon numbers."""
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    t = to_physical_time(t_scaled, ModelParams(omega, lam, 0.0, 0))
    columns = {"t_scaled": t_scaled}
    for n, label in zip(n_values, _labels("n_values", n_values, lambda n: f"N{n}")):
        params = ModelParams(omega, lam, 0.0, n)
        columns[f"Y_{label}"] = binomial.covariance_measure_closed(params, t)
    meta = {"omega": omega, "lambda": lam, "t_max_scaled": t_max_scaled,
            "points": points, "n_values": list(n_values)}
    return columns, meta


def fig2(omega=1.0, lam=0.1, n_initial=5, t_max_scaled=1.0, points=1001):
    """Pump-free Y and von Neumann entropy S for |N,0>."""
    params = ModelParams(omega, lam, 0.0, n_initial)
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    t = to_physical_time(t_scaled, params)
    y = binomial.covariance_measure_closed(params, t)
    s = binomial.entropy(binomial.reduced_spectrum(params, t))
    columns = {"scaled_time": t_scaled, "Y": y, "S": s}
    meta = {"omega": omega, "lambda": lam, "n_initial": n_initial,
            "t_max_scaled": t_max_scaled, "points": points}
    return columns, meta


def fig3(pairs=FIG3_PAIRS, omega=1.0, n_initial=5, t_max_scaled=1.0, points=2001):
    """Pumped Y(t) via moment transport, one column per (lambda, epsilon)."""
    return _pair_table(heisenberg.covariance_series, "Y", pairs, omega, n_initial,
                       t_max_scaled, points)


def fig4(pairs=FIG4_PAIRS, omega=1.0, n_initial=5, t_max_scaled=1.0, points=2001):
    """Photon-number difference ratio |n_a - n_b| / (n_a + n_b) over time."""
    return _pair_table(heisenberg.photon_ratio_series, "ratio", pairs, omega, n_initial,
                       t_max_scaled, points)


def _pair_table(series, prefix, pairs, omega, n_initial, t_max_scaled, points):
    """A scaled_time column, then series on that grid as one column per (lambda, epsilon)."""
    labels = _labels("pairs", pairs, lambda pair: _tag(*pair))
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    cells = [ModelParams(omega, lam, eps, n_initial) for lam, eps in pairs]
    columns = {"scaled_time": t_scaled}
    for label, values in zip(labels, _scan(series, cells, t_scaled)):
        columns[f"{prefix}_{label}"] = values
    meta = {"omega": omega, "n_initial": n_initial, "pairs": [list(p) for p in pairs],
            "t_max_scaled": t_max_scaled, "points": points}
    return columns, meta


def fig5(
    lambdas=FIG5_LAMBDAS,
    omega=1.0,
    n_initial=5,
    eps_max=0.5,
    eps_points=26,
    window_scaled=2.0,
    points=8001,
    sensitivity=True,
):
    """Max Y over a scan window as a function of pump strength epsilon.

    The maximization horizon is not fixed by the physics; the default is
    two scaled-time units, and meta["sensitivity"] carries the same scan at
    SENSITIVITY_WINDOWS so the horizon dependence is visible.

    The time grid always spans the longest window.  With sensitivity=False
    each cell is evaluated only on the grid's prefix up to window_scaled
    and meta has no "sensitivity" entry; the columns keep every bit.  The
    CLI computes the sensitivity windows only for JSON output, since CSV
    does not write meta, and `sweep` never does.

    The (lambda, epsilon) cells run on `_scan`'s thread pool, one thread
    per CPU in the process's affinity mask (`taskset -c 0` gives a one-core
    run), in blocks of at most max(1, BLOCK // prefix points) consecutive
    epsilons of one lambda, each evaluated by one `covariance_series` call
    with epsilon shaped (k, 1).  Each cell of a block gets the bits it would
    get alone, and every block is computed alone, so the output is
    byte-identical for any CPU count.  A cell whose Y is not finite on the
    evaluated grid is refused by `heisenberg.covariance_series`, the first
    such cell in cell order at its first non-finite time.
    """
    labels = _labels("lambdas", lambdas, lambda lam: f"lam{lam:g}")
    if min(eps_points, points) < 1:
        raise ValueError(f"eps_points and points must be at least 1, got {eps_points}, {points}")
    if not (np.isfinite(window_scaled) and window_scaled > 0):
        raise ValueError(f"window_scaled must be finite and positive, got {window_scaled}")
    eps_grid = np.linspace(0.0, eps_max, eps_points)
    windows = sorted(set([window_scaled, *SENSITIVITY_WINDOWS]))
    longest = max(windows)
    size = points * longest / window_scaled
    try:  # n_t >= 1: numpy refuses only a grid it cannot allocate
        n_t = max(points, int(size))
        t_scaled = np.linspace(0.0, longest, n_t)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"window_scaled = {window_scaled:g} needs {size:.4g} time points up to "
                         f"scaled time {longest:g}, more than numpy can allocate") from None
    returned = windows if sensitivity else [window_scaled]
    ends = np.searchsorted(t_scaled, returned, side="right")
    # ends is ascending, so the last is the prefix every returned window needs
    per_block = max(1, BLOCK // ends[-1])
    blocks = [ModelParams(omega, lam, eps_grid[start:start + per_block, None], n_initial)
              for lam in lambdas for start in range(0, eps_points, per_block)]

    def window_maxima(params, t):
        y = heisenberg.covariance_series(params, t)
        return np.stack([y[:, :end].max(axis=1) for end in ends], axis=1)

    maxima = np.concatenate(_scan(window_maxima, blocks, t_scaled[:ends[-1]]))
    columns = {"epsilon": eps_grid}
    scans = {}
    for label, scan in zip(labels, maxima.reshape(len(lambdas), eps_points, len(returned))):
        per_window = dict(zip(returned, scan.T))
        columns[f"max_Y_{label}"] = per_window[window_scaled]
        scans[label] = {
            f"window{w:g}": per_window[w].tolist() for w in returned if w != window_scaled
        }
    meta = {"omega": omega, "n_initial": n_initial, "lambdas": list(lambdas),
            "eps_max": eps_max, "eps_points": eps_points,
            "window_scaled": window_scaled, "points": n_t,
            "sensitivity_windows": [w for w in windows if w != window_scaled]}
    if sensitivity:
        meta["sensitivity"] = scans
    return columns, meta


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _scan(series, tasks, t_scaled):
    """series(params, t) for each task, t the physical times of t_scaled; a list in task order.

    A task is one cell, or for fig5 a block of cells of one lambda (epsilon
    shaped (k, 1)).  Each is run on a pool of one thread per usable CPU, at
    most one per task; numpy releases the GIL inside its loops, so a task
    must be large enough that its loops, not its Python-level calls,
    dominate.  Each task builds its own time grid, so only the grids in
    flight are held.  Results are read in task order, so the first failing
    task's error propagates, after `map` has cancelled the pending tasks and
    the pool has joined every thread.
    """
    _keep_freed_heap()

    def task(params):
        return series(params, to_physical_time(t_scaled, params))

    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(tasks))) as pool:
        return list(pool.map(task, tasks))


def _keep_freed_heap():
    """Let glibc's malloc keep the memory freed between tasks for the process's life.

    Every task allocates and frees a few MB of temporaries.  By default glibc
    returns a free heap top past its trim threshold to the kernel and faults
    it back in on the next task, and with the pool's threads each return
    also flushes the other CPU's TLB: on 2 vCPUs the configs/fig5.cfg CSV
    scan took 0.160 s without this and 0.137 s with it (medians of 15).
    Peak memory stays that of the scan; without glibc nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def sweep(lam, omega=1.0, n_initial=5, eps_max=0.5, eps_points=26,
          window_scaled=2.0, points=8001):
    """fig5's column for one lambda, on fig5's grid: epsilon against max Y."""
    scan, _ = fig5((lam,), omega, n_initial, eps_max, eps_points, window_scaled, points,
                   sensitivity=False)
    columns = {"epsilon": scan["epsilon"], "max_Y": scan[f"max_Y_lam{lam:g}"]}
    meta = {"omega": omega, "lambda": lam, "n_initial": n_initial,
            "eps_max": eps_max, "eps_points": eps_points,
            "window_scaled": window_scaled, "points": points}
    return columns, meta


def fig6(
    lambdas=FIG6_LAMBDAS,
    omega=1.0,
    n_initial=5,
    mean_epsilon=0.3,
    n_trials=10,
    n_segments=100,
    total_scaled_time=5.0,
    master_seed=12345,
    spread="std",
):
    """Fluctuating-pump ensembles: per-trial Y series plus spread statistics.

    Like the scans, it keeps the heap it frees (_keep_freed_heap): each
    block of the noise ensemble's segments allocates and frees its
    propagators' temporaries.
    """
    _keep_freed_heap()
    columns = None
    meta = {"omega": omega, "n_initial": n_initial, "mean_epsilon": mean_epsilon,
            "n_trials": n_trials, "n_segments": n_segments,
            "total_scaled_time": total_scaled_time, "master_seed": master_seed,
            "spread": spread, "spread_statistics": {}}
    tags = _labels("lambdas", lambdas, lambda lam: f"lam{lam:g}")
    # one draw of the trials' schedules, propagated at every lambda
    batch = fluctuations.draw_schedules(mean_epsilon, n_trials, master_seed, n_segments, spread)
    for lam, tag in zip(lambdas, tags):
        ens = fluctuations.ensemble_of(ModelParams(omega, lam, batch, n_initial), total_scaled_time)
        if columns is None:
            columns = {"scaled_time": ens.t_scaled}
        for k in range(n_trials):
            columns[f"Y_{tag}_trial{k + 1}"] = ens.trials[k]
        columns[f"Y_{tag}_mean"] = ens.mean
        columns[f"Y_{tag}_std"] = ens.std
        columns[f"Y_{tag}_cv"] = ens.cv
        if n_trials >= 2:
            max_std, max_cv = fluctuations.spread_statistics(ens)
            meta["spread_statistics"][tag] = {"max_std": max_std, "max_cv": max_cv}
    return columns, meta
