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
from .params import ModelParams, to_physical_time, validate

FIG3_PAIRS = ((0.001, 0.1), (0.001, 0.001), (0.1, 0.1), (0.1, 0.001))
FIG4_PAIRS = ((0.001, 0.1), (0.001, 0.001), (0.1, 0.005))
FIG5_LAMBDAS = (0.001, 0.005, 0.01, 0.05, 0.1)
FIG6_LAMBDAS = (0.001, 0.05)
# glibc mallopt parameters and the values fig5 pins: the mmap threshold at
# the 32 MiB ceiling of glibc's own dynamic rule, and no trimming of a free
# heap top below 256 MiB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES, _MMAP_THRESHOLD_BYTES = 256 << 20, 32 << 20


def _tag(lam, eps):
    return f"lam{lam:g}_eps{eps:g}"


def _labels(setting, values, label):
    """label(value) for each value of a list setting, in order.

    The labels name output columns, so two values with one label would
    leave a single column; a ValueError names them instead.
    """
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
    params = validate(ModelParams(omega, lam, 0.0, 0))
    t = to_physical_time(t_scaled, params)
    columns = {"t_scaled": t_scaled}
    for n, label in zip(n_values, _labels("n_values", n_values, lambda n: f"N{n}")):
        validate(ModelParams(omega, lam, 0.0, n))
        columns[f"Y_{label}"] = binomial.covariance_measure_closed(n, lam, t)
    meta = {"omega": omega, "lambda": lam, "t_max_scaled": t_max_scaled,
            "points": points, "n_values": list(n_values)}
    return columns, meta


def fig2(omega=1.0, lam=0.1, n_initial=5, t_max_scaled=1.0, points=1001):
    """Pump-free Y and von Neumann entropy S for |N,0>."""
    params = validate(ModelParams(omega, lam, 0.0, n_initial))
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    t = to_physical_time(t_scaled, params)
    y = binomial.covariance_measure_closed(n_initial, lam, t)
    s = np.array([binomial.entropy(binomial.reduced_spectrum(params, tk)) for tk in t])
    columns = {"scaled_time": t_scaled, "Y": y, "S": s}
    meta = {"omega": omega, "lambda": lam, "n_initial": n_initial,
            "t_max_scaled": t_max_scaled, "points": points}
    return columns, meta


def fig3(pairs=FIG3_PAIRS, omega=1.0, n_initial=5, t_max_scaled=1.0, points=2001):
    """Pumped Y(t) via moment transport, one column per (lambda, epsilon)."""
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    columns = {"scaled_time": t_scaled}
    for (lam, eps), label in zip(pairs, _labels("pairs", pairs, lambda pair: _tag(*pair))):
        params = validate(ModelParams(omega, lam, eps, n_initial))
        t = to_physical_time(t_scaled, params)
        columns[f"Y_{label}"] = heisenberg.covariance_series(params, t)
    meta = {"omega": omega, "n_initial": n_initial, "pairs": [list(p) for p in pairs],
            "t_max_scaled": t_max_scaled, "points": points}
    return columns, meta


def fig4(pairs=FIG4_PAIRS, omega=1.0, n_initial=5, t_max_scaled=1.0, points=2001):
    """Photon-number difference ratio |n_a - n_b| / (n_a + n_b) over time."""
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    columns = {"scaled_time": t_scaled}
    for (lam, eps), label in zip(pairs, _labels("pairs", pairs, lambda pair: _tag(*pair))):
        params = validate(ModelParams(omega, lam, eps, n_initial))
        t = to_physical_time(t_scaled, params)
        columns[f"ratio_{label}"] = heisenberg.photon_ratio_series(params, t)
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
    sensitivity_windows=(1.0, 5.0),
):
    """Max Y over a scan window as a function of pump strength epsilon.

    The maximization horizon is not fixed by the physics; the default is
    two scaled-time units, and meta carries the same scan at the
    sensitivity windows so the horizon dependence is visible.

    The (lambda, epsilon) cells run on a thread pool of one thread per CPU
    in the process's affinity mask (`taskset -c 0` gives a one-core run),
    at most one per cell, each thread one whole cell at a time.  Every cell
    is computed alone, so the output is byte-identical for any CPU count.
    A cell whose Y is not finite in some window is refused with a
    ValueError naming the cell and the shortest such window.
    """
    labels = _labels("lambdas", lambdas, lambda lam: f"lam{lam:g}")
    eps_grid = np.linspace(0.0, eps_max, eps_points)
    windows = sorted(set([window_scaled, *sensitivity_windows]))
    longest = max(windows)
    n_t = max(points, int(points * longest / window_scaled))
    t_scaled = np.linspace(0.0, longest, n_t)
    cells = [validate(ModelParams(omega, lam, float(eps), n_initial))
             for lam in lambdas for eps in eps_grid]
    maxima = _window_maxima(cells, t_scaled, windows, min(_usable_cpus(), len(cells)))
    bad = np.argwhere(~np.isfinite(maxima))
    if len(bad):
        # row-major: the first cell in (lambda, epsilon) order, then its
        # shortest failing window (windows are sorted and nested)
        params, w = cells[bad[0][0]], windows[bad[0][1]]
        where, fix = (("scan window", " or window_scaled") if w == window_scaled
                      else ("sensitivity window", ""))
        raise ValueError(
            f"Y is not finite at lambda = {params.lam:g}, epsilon = {params.epsilon:g} "
            f"within the {where} (scaled time {w:g}): the second moments overflow; "
            f"lower eps_max{fix}"
        )
    columns = {"epsilon": eps_grid}
    sensitivity = {}
    for label, scan in zip(labels, maxima.reshape(len(lambdas), eps_points, len(windows))):
        per_window = dict(zip(windows, scan.T))
        columns[f"max_Y_{label}"] = per_window[window_scaled]
        sensitivity[label] = {
            f"window{w:g}": per_window[w].tolist() for w in windows if w != window_scaled
        }
    meta = {"omega": omega, "n_initial": n_initial, "lambdas": list(lambdas),
            "eps_max": eps_max, "eps_points": eps_points,
            "window_scaled": window_scaled, "points": n_t,
            "sensitivity_windows": [w for w in windows if w != window_scaled],
            "sensitivity": sensitivity}
    return columns, meta


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _window_maxima(cells, t_scaled, windows, workers):
    """Max Y over t_scaled <= w for each cell and window; shape (len(cells), len(windows)).

    t_scaled is ascending and starts at 0.  Every cell is one task on a
    pool of `workers` threads, so `workers` cells are in flight; numpy
    releases the GIL inside its loops.  A maximum is NaN or inf where Y
    overflows; the caller decides.  Should a task raise, pending tasks are
    cancelled and every thread is joined before the error propagates.
    """
    _keep_freed_heap()
    ends = np.searchsorted(t_scaled, windows, side="right")
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_cell_maxima, params, t_scaled, ends) for params in cells]
        return np.array([f.result() for f in futures])
    finally:
        pool.shutdown(cancel_futures=True)


def _keep_freed_heap():
    """Let glibc's malloc keep the memory freed between cells for the process's life.

    Every cell allocates and frees a few MB of temporaries.  By default
    glibc returns a free heap top past its trim threshold to the kernel
    and faults it back in on the next cell: about 95000 page faults per
    configs/fig5.cfg scan.  With the pool's threads each return also
    flushes the other CPU's TLB, so the scan's run time varied widely from
    run to run.  Peak memory stays that of the scan; without glibc nothing
    changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _cell_maxima(params, t_scaled, ends):
    # numpy's error state is per thread: a worker starts from the defaults
    with np.errstate(over="ignore", invalid="ignore"):
        y = heisenberg.covariance_series(params, to_physical_time(t_scaled, params))
        return [y[:end].max() for end in ends]


def sweep(lam, omega=1.0, n_initial=5, eps_max=0.5, eps_points=26,
          window_scaled=2.0, points=8001):
    """fig5 for one lambda and no sensitivity windows: epsilon against max Y."""
    scan, _ = fig5((lam,), omega, n_initial, eps_max, eps_points, window_scaled, points,
                   sensitivity_windows=())
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
    """Fluctuating-pump ensembles: per-trial Y series plus spread statistics."""
    columns = None
    meta = {"omega": omega, "n_initial": n_initial, "mean_epsilon": mean_epsilon,
            "n_trials": n_trials, "n_segments": n_segments,
            "total_scaled_time": total_scaled_time, "master_seed": master_seed,
            "spread": spread, "spread_statistics": {}}
    for lam, tag in zip(lambdas, _labels("lambdas", lambdas, lambda lam: f"lam{lam:g}")):
        params = validate(ModelParams(omega, lam, mean_epsilon, n_initial))
        ens = fluctuations.run_ensemble(
            params, mean_epsilon, n_trials=n_trials, master_seed=master_seed,
            n_segments=n_segments, total_scaled_time=total_scaled_time, spread=spread,
        )
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
