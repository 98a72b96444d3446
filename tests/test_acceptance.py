"""Acceptance suite: one test per headline capability, printed pass/fail.

Each test prints an `[ok]`/`[FAIL]` line naming the criterion so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.  Tolerances are
pinned in the assertions; none are loosened at runtime.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cavityent import audit
from cavityent import binomial as bi
from cavityent import figures
from cavityent import fluctuations as fl
from cavityent import fock
from cavityent import heisenberg as hb
from cavityent.params import ModelParams, covariance_measure, to_physical_time

# symplectic form of (a, b, a^dag, b^dag): S SIGMA S^dag = SIGMA for every propagator
SIGMA = np.diag([1.0, 1.0, -1.0, -1.0])


def report(name, passed, detail=""):
    flag = "[ok]  " if passed else "[FAIL]"
    print(f"{flag} {name}" + (f" -- {detail}" if detail else ""))
    assert passed, f"{name}: {detail}"


def test_criterion_1_pump_free_peak_law():
    # max Y = N / (sqrt(2) (N+1)), attained at lambda t = pi / 4
    lam = 0.1
    grid = np.linspace(0.0, 0.5, 20001)
    worst_val, worst_pos = 0.0, 0
    for n in (1, 5, 10, 50):
        p = ModelParams(1.0, lam, 0.0, n)
        y = bi.covariance_measure_closed(p, to_physical_time(grid, p))
        k = int(np.argmax(y))
        expected = n / (math.sqrt(2.0) * (n + 1))
        worst_val = max(worst_val, abs(y[k] - expected))
        worst_pos = max(worst_pos, abs(k - int(np.argmin(np.abs(grid - 0.25)))))
    report(
        "criterion 1: pump-free peak law N/(sqrt(2)(N+1)) at lambda*t = pi/4",
        worst_val < 1e-9 and worst_pos <= 1,
        f"max value error {worst_val:.2e}, max peak offset {worst_pos} grid steps",
    )


def test_criterion_2_triple_path_agreement():
    # closed form, sector-state moments, moment transport and the Fock
    # oracle all compute the same Y(t) with the pump off
    n, lam = 5, 0.1
    p = ModelParams(1.0, lam, 0.0, n)
    t = to_physical_time(np.linspace(0.0, 1.0, 201), p)
    y_closed = bi.covariance_measure_closed(p, t)
    y_state = np.array([
        bi.covariance_measure_from_state(bi.binomial_state(p, tk)) for tk in t
    ])
    y_transport = hb.covariance_series(p, t)
    basis, h, _ = fock.truncation(p, n)
    ev = fock.SpectralEvolver(h, fock.fock_state(basis, n, 0))
    y_oracle = np.array([fock.observables(psi, basis)["Y"] for psi in ev.at_times(t)])
    worst = max(
        np.abs(y_state - y_closed).max(),
        np.abs(y_transport - y_closed).max(),
        np.abs(y_oracle - y_closed).max(),
    )
    report(
        "criterion 2: four-path agreement on pump-free Y(t), one period, N=5",
        worst < 1e-8,
        f"max pairwise deviation {worst:.2e}",
    )


def test_criterion_3_entropy():
    n, lam = 5, 0.1
    p = ModelParams(1.0, lam, 0.0, n)
    grid = np.linspace(0.0, 0.5, 4001)
    t = to_physical_time(grid, p)
    s = np.array([bi.entropy(bi.reduced_spectrum(p, tk)) for tk in t])
    y = bi.covariance_measure_closed(p, t)
    s_peak = s[np.argmin(np.abs(grid - 0.25))]
    bound_ok = s.max() <= math.log2(n + 1) + 1e-12
    coincide = abs(int(np.argmax(s)) - int(np.argmax(y))) <= 1
    report(
        "criterion 3: entropy 2.198 bits at the peak, bounded, coincident with Y",
        abs(s_peak - 2.198) < 1e-3 and bound_ok and coincide,
        f"S(peak) = {s_peak:.6f}, bound ok = {bound_ok}, "
        f"peak offset {abs(int(np.argmax(s)) - int(np.argmax(y)))} steps",
    )


def test_criterion_4_propagator_certification():
    # errors are measured relative to the propagator scale: unstable draws
    # have entries up to ~1e40 where an absolute 1e-9 is below the floating
    # point resolution of the comparison itself
    rng = np.random.default_rng(314159)
    worst_exp = worst_sym = worst_group = worst_id = 0.0
    for _ in range(200):
        p = ModelParams(1.0, rng.uniform(1e-3, 0.2), rng.uniform(0.0, 0.5), 5)
        t = rng.uniform(0.0, 2.0) * math.pi / p.lam
        s = hb.propagators(p, t)
        scale = max(1.0, np.abs(s).max())
        worst_exp = max(
            worst_exp, np.abs(s - expm(-1j * t * hb.build_matrix(p))).max() / scale
        )
        worst_sym = max(
            worst_sym,
            np.abs(s @ SIGMA @ s.conj().T - SIGMA).max() / scale ** 2,
        )
        half = hb.propagators(p, t / 2.0)
        worst_group = max(worst_group, np.abs(half @ half - s).max() / scale)
        worst_id = max(worst_id, np.abs(hb.propagators(p, 0.0) - np.eye(4)).max())
    worst = max(worst_exp, worst_sym, worst_group, worst_id)
    report(
        "criterion 4: Cayley-Hamilton propagator certified over 200 draws",
        worst < 1e-9,
        f"dense-exp {worst_exp:.2e}, symplectic {worst_sym:.2e}, "
        f"group {worst_group:.2e}, identity {worst_id:.2e} (scale-relative)",
    )


def test_criterion_5_pumped_oracle():
    p = ModelParams(1.0, 0.1, 0.1, 5)
    t_max = to_physical_time(1.0, p)
    basis, ev = fock.check_convergence(p, t_max, tol=1e-6, ceiling=60)
    probes = np.linspace(0.0, t_max, 41)
    worst = 0.0
    peak_y = 0.0
    for t, psi in zip(probes, ev.at_times(probes)):
        obs = fock.observables(psi, basis)
        cab, cabd, na, nb = hb.transported_moment_arrays(p, t)
        worst = max(
            worst,
            abs(obs["cov_ab"] - cab),
            abs(obs["cov_ab_dagger"] - cabd),
            abs(obs["mean_na"] - na),
            abs(obs["mean_nb"] - nb),
            abs(obs["Y"] - covariance_measure(cab, cabd, na, nb)),
        )
        peak_y = max(peak_y, obs["Y"])
    report(
        "criterion 5: pumped transport matches converged Fock oracle, peak Y ~ 0.6",
        worst < 1e-5 and abs(peak_y - 0.6) < 0.05 and basis.cutoff_a <= 60,
        f"max deviation {worst:.2e}, peak Y {peak_y:.4f}, cutoff {basis.cutoff_a}",
    )


def test_criterion_6_published_formula_audit():
    rows = []
    for lam, eps in ((0.1, 0.1), (0.001, 0.1), (0.1, 0.001), (0.05, 0.3)):
        p = ModelParams(1.0, lam, eps, 5)
        dev = audit.closed_form_audit(p, to_physical_time(np.linspace(0.0, 1.0, 21), p))
        rows.append(dev)
    produced = (
        len(rows) == 4
        and all(set(r) == {"cov_ab", "cov_ab_dagger", "mean_na", "mean_nb"} for r in rows)
        and all(np.isfinite(v) for r in rows for v in r.values())
    )
    report(
        "criterion 6: published-coefficient audit report produced (report-only)",
        produced,
        f"worst quoted deviation {max(v for r in rows for v in r.values()):.3g}",
    )


def test_criterion_7_pump_strength_trends():
    # omega = 2 reproduces the quoted endpoints; at omega = 1 the scan
    # endpoint sits exactly on the parametric instability threshold
    cols, _ = figures.fig5(lambdas=(0.001, 0.1), omega=2.0, eps_points=26)
    eps = cols["epsilon"]
    y_weak = cols["max_Y_lam0.001"]
    y_strong = cols["max_Y_lam0.1"]
    weak_ok = (
        abs(y_weak[0] - 0.589) < 0.05
        and y_weak[-1] < 0.1
        and np.diff(y_weak).max() < 0.01  # monotone in trend
    )
    strong_ok = y_strong.min() >= 0.55 and y_strong[eps <= 0.4][-1] >= 0.65
    report(
        "criterion 7: pump-strength scan trends (weak lambda collapses, strong holds)",
        weak_ok and strong_ok,
        f"lam=0.001: {y_weak[0]:.3f} -> {y_weak[-1]:.3f}; "
        f"lam=0.1: min {y_strong.min():.3f}, at eps=0.4 {y_strong[eps <= 0.4][-1]:.3f}",
    )


def test_criterion_8_fluctuation_contrast():
    wins = 0
    weak_cvs = []
    for seed in range(5):
        cv = {}
        for lam in (0.001, 0.05):
            p = ModelParams(1.0, lam, fl.draw_schedules(0.3, n_trials=10, master_seed=seed), 5)
            ens = fl.ensemble_of(p, 5.0)
            cv[lam] = fl.spread_statistics(ens)[1]
        wins += cv[0.001] > cv[0.05]
        for lam in (0.001, 0.05):
            p = ModelParams(1.0, lam, fl.draw_schedules(0.001, n_trials=10, master_seed=seed), 5)
            ens = fl.ensemble_of(p, 5.0)
            weak_cvs.append(fl.spread_statistics(ens)[1])
    weak_max = max(weak_cvs)
    report(
        "criterion 8: fluctuation spread contrast across hopping strengths",
        wins == 5 and weak_max < 1e-2,
        f"lam=0.001 louder than lam=0.05 in {wins}/5 seeds; "
        f"weak-pump max CV {weak_max:.2e}",
    )


def test_criterion_9_linear_drive_insensitivity():
    n, lam = 5, 0.1
    p = ModelParams(1.0, lam, 0.0, n)
    basis, h0, _ = fock.truncation(p, 40)
    _, h1, _ = fock.truncation(p, 40, linear_drive=0.1)
    psi0 = fock.fock_state(basis, n, 0)
    ev0 = fock.SpectralEvolver(h0, psi0)
    ev1 = fock.SpectralEvolver(h1, psi0)
    t = to_physical_time(np.linspace(0.0, 1.0, 41), p)
    worst = 0.0
    for a, b in zip(ev0.at_times(t), ev1.at_times(t)):
        y0 = fock.observables(a, basis)["Y"]
        y1 = fock.observables(b, basis)["Y"]
        worst = max(worst, abs(y1 - y0))
    report(
        "criterion 9: covariance measure insensitive to a linear drive",
        worst < 1e-8,
        f"max |Y_driven - Y_free| = {worst:.2e}",
    )
