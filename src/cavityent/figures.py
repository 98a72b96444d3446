"""Deterministic data tables behind each figure-reproduction subcommand.

Every function returns (columns, meta): an ordered mapping of column name
to 1-D array, plus the settings the table was produced from.  Column
layouts are part of the CLI contract and must stay stable.
"""

import numpy as np

from . import binomial, fluctuations, fock, heisenberg
from .params import ModelParams, covariance_measure, to_physical_time, validate

FIG3_PAIRS = ((0.001, 0.1), (0.001, 0.001), (0.1, 0.1), (0.1, 0.001))
FIG4_PAIRS = ((0.001, 0.1), (0.001, 0.001), (0.1, 0.005))
FIG5_LAMBDAS = (0.001, 0.005, 0.01, 0.05, 0.1)
FIG6_LAMBDAS = (0.001, 0.05)


def _tag(lam, eps):
    return f"lam{lam:g}_eps{eps:g}"


def fig1(omega=1.0, lam=0.1, t_max_scaled=1.0, points=1001, n_values=(1, 5, 10, 50)):
    """Pump-free Y(t) for several initial photon numbers."""
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    params = validate(ModelParams(omega, lam, 0.0, 0))
    t = to_physical_time(t_scaled, params)
    columns = {"t_scaled": t_scaled}
    for n in n_values:
        columns[f"Y_N{n}"] = binomial.covariance_measure_closed(n, lam, t)
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
    for lam, eps in pairs:
        params = validate(ModelParams(omega, lam, eps, n_initial))
        t = to_physical_time(t_scaled, params)
        columns[f"Y_{_tag(lam, eps)}"] = heisenberg.covariance_series(params, t)
    meta = {"omega": omega, "n_initial": n_initial, "pairs": [list(p) for p in pairs],
            "t_max_scaled": t_max_scaled, "points": points}
    return columns, meta


def fig4(pairs=FIG4_PAIRS, omega=1.0, n_initial=5, t_max_scaled=1.0, points=2001):
    """Photon-number difference ratio |n_a - n_b| / (n_a + n_b) over time."""
    t_scaled = np.linspace(0.0, t_max_scaled, points)
    columns = {"scaled_time": t_scaled}
    for lam, eps in pairs:
        params = validate(ModelParams(omega, lam, eps, n_initial))
        t = to_physical_time(t_scaled, params)
        columns[f"ratio_{_tag(lam, eps)}"] = heisenberg.photon_ratio_series(params, t)
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
    """
    eps_grid = np.linspace(0.0, eps_max, eps_points)
    windows = sorted(set([window_scaled, *sensitivity_windows]))
    longest = max(windows)
    n_t = max(points, int(points * longest / window_scaled))
    t_scaled = np.linspace(0.0, longest, n_t)
    columns = {"epsilon": eps_grid}
    sensitivity = {}
    for lam in lambdas:
        per_window = {w: np.empty(eps_points) for w in windows}
        for i, eps in enumerate(eps_grid):
            params = validate(ModelParams(omega, lam, float(eps), n_initial))
            y = heisenberg.covariance_series(params, to_physical_time(t_scaled, params))
            for w in windows:
                per_window[w][i] = y[t_scaled <= w].max()
        columns[f"max_Y_lam{lam:g}"] = per_window[window_scaled]
        sensitivity[f"lam{lam:g}"] = {
            f"window{w:g}": per_window[w].tolist() for w in windows if w != window_scaled
        }
    meta = {"omega": omega, "n_initial": n_initial, "lambdas": list(lambdas),
            "eps_max": eps_max, "eps_points": eps_points,
            "window_scaled": window_scaled, "points": n_t,
            "sensitivity_windows": [w for w in windows if w != window_scaled],
            "sensitivity": sensitivity}
    return columns, meta


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
    for lam in lambdas:
        params = validate(ModelParams(omega, lam, mean_epsilon, n_initial))
        ens = fluctuations.run_ensemble(
            params, mean_epsilon, n_trials=n_trials, master_seed=master_seed,
            n_segments=n_segments, total_scaled_time=total_scaled_time, spread=spread,
        )
        if columns is None:
            columns = {"scaled_time": ens.t_scaled}
        tag = f"lam{lam:g}"
        for k in range(n_trials):
            columns[f"Y_{tag}_trial{k + 1}"] = ens.trials[k]
        columns[f"Y_{tag}_mean"] = ens.mean
        columns[f"Y_{tag}_std"] = ens.std
        columns[f"Y_{tag}_cv"] = ens.cv
        if n_trials >= 2:
            max_std, max_cv = fluctuations.spread_statistics(ens)
            meta["spread_statistics"][tag] = {"max_std": max_std, "max_cv": max_cv}
    return columns, meta


def oracle_check(
    omega=1.0,
    n_initial=5,
    seed=2024,
    n_random_draws=25,
    pumped_params=(0.1, 0.1),
    convergence_tol=1e-6,
):
    """Dual-path audit: closed forms vs transport vs the Fock oracle.

    Returns (report, ok).  ok is False on any tolerance breach in the
    certified sections; the published-formula audits are report-only.
    """
    report = {"seed": seed, "sections": {}}
    ok = True

    # pump-free triple path: closed form / sector state / transport / oracle
    lam = 0.1
    params = validate(ModelParams(omega, lam, 0.0, n_initial))
    t_grid = to_physical_time(np.linspace(0.0, 0.5, 101), params)
    y_closed = binomial.covariance_measure_closed(n_initial, lam, t_grid)
    y_state = np.array([
        binomial.covariance_measure_from_state(binomial.binomial_state(params, t))
        for t in t_grid
    ])
    y_transport = heisenberg.covariance_series(params, t_grid)
    basis, ev = fock.check_convergence(params, t_grid[-1])  # pump-free: the exact N rung
    psi0 = fock.fock_state(basis, n_initial, 0)
    y_oracle = np.array([
        fock.observables(psi, basis)["Y"] for psi in ev.at_times(psi0, t_grid)
    ])
    triple = {
        "state_vs_closed": float(np.abs(y_state - y_closed).max()),
        "transport_vs_closed": float(np.abs(y_transport - y_closed).max()),
        "oracle_vs_closed": float(np.abs(y_oracle - y_closed).max()),
        "tolerance": 1e-8,
    }
    triple["pass"] = max(triple["state_vs_closed"], triple["transport_vs_closed"],
                         triple["oracle_vs_closed"]) < triple["tolerance"]
    ok &= triple["pass"]
    report["sections"]["pump_free_triple_path"] = triple

    # propagator: Cayley-Hamilton vs dense exponential, sign audit included
    rng = np.random.default_rng(seed)
    ch_section = {"draws": n_random_draws, "tolerance": 1e-9,
                  "max_corrected": 0.0, "max_printed": 0.0}
    for _ in range(n_random_draws):
        p = ModelParams(omega, rng.uniform(1e-3, 0.2), rng.uniform(0.0, 0.5), n_initial)
        t = rng.uniform(0.0, 2.0) * np.pi / p.lam
        errs = heisenberg.ch_sign_audit(p, [t])
        ch_section["max_corrected"] = max(ch_section["max_corrected"], errs["corrected"])
        ch_section["max_printed"] = max(ch_section["max_printed"], errs["printed"])
    ch_section["pass"] = ch_section["max_corrected"] < ch_section["tolerance"]
    ok &= ch_section["pass"]
    report["sections"]["ch_vs_dense_exponential"] = ch_section

    # published moment formulas: audited, never gated on
    audit_rows = []
    for lam_a, eps_a in ((0.1, 0.1), (0.001, 0.1), (0.1, 0.001), (0.05, 0.3)):
        p = ModelParams(omega, lam_a, eps_a, n_initial)
        times = to_physical_time(np.linspace(0.0, 1.0, 21), p)
        dev = heisenberg.closed_form_audit(p, times)
        audit_rows.append({"lambda": lam_a, "epsilon": eps_a, "max_deviation": dev})
    report["sections"]["published_moment_formulas_audit"] = {
        "note": "report-only: transport path is authoritative",
        "rows": audit_rows,
    }

    # pumped transport vs the Fock oracle, at the cutoff its leak bound
    # certifies (leak_bound at t_max, and the observable bound it implies)
    lam_p, eps_p = pumped_params
    p = validate(ModelParams(omega, lam_p, eps_p, n_initial))
    t_max = to_physical_time(1.0, p)
    basis, ev = fock.check_convergence(p, t_max, tol=convergence_tol)
    psi0 = fock.fock_state(basis, p.n_initial, 0)
    probes = np.linspace(0.0, t_max, 17)[1:]
    cab, cabd, na, nb = heisenberg.transported_moment_arrays(p, probes)
    y = covariance_measure(cab, cabd, na, nb)
    max_dev = 0.0
    for k, psi in enumerate(ev.at_times(psi0, probes)):
        obs = fock.observables(psi, basis)
        max_dev = max(
            max_dev,
            abs(obs["cov_ab"] - cab[k]),
            abs(obs["cov_ab_dagger"] - cabd[k]),
            abs(obs["mean_na"] - na[k]),
            abs(obs["mean_nb"] - nb[k]),
            abs(obs["Y"] - y[k]),
        )
    pumped = {"lambda": lam_p, "epsilon": eps_p,
              "truncation": "n_a + n_b <= cutoff", "cutoff": basis.cutoff_a,
              **ev.certificate,
              "max_deviation": float(max_dev),
              "tolerance": max(1e-5, 10.0 * convergence_tol)}
    pumped["pass"] = pumped["max_deviation"] < pumped["tolerance"]
    ok &= pumped["pass"]
    report["sections"]["pumped_transport_vs_oracle"] = pumped

    report["pass"] = bool(ok)
    return report, bool(ok)
