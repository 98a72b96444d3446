"""Turn on the quadratic pump: deterministic dynamics first, then a noisy
pump amplitude.

The pump term epsilon (a^dag^2 + a^2) breaks photon-number conservation.
Second moments still close on themselves, so the dynamics reduces to a
4x4 propagator; the truncated-Fock brute force confirms the transported
moments.  A fluctuating pump barely matters when the hopping is fast
(lambda = 0.05) but washes out the entanglement when the hopping is slow
(lambda = 0.001).
"""

from dataclasses import replace

import numpy as np

from cavityent import fluctuations as fl
from cavityent import fock
from cavityent import heisenberg as hb
from cavityent.params import ModelParams, to_physical_time

params = ModelParams(omega=1.0, lam=0.1, epsilon=0.1, n_initial=5)

scaled = np.linspace(0.0, 1.0, 401)
t = to_physical_time(scaled, params)
y = hb.covariance_series(params, t)
print(f"pumped run (lambda = eps = 0.1): peak Y = {y.max():.4f} "
      f"at scaled time {scaled[np.argmax(y)]:.3f}")

# check every 20th instant against the truncated-Fock brute force, in one call
basis, ev = fock.check_convergence(params, t[-1], tol=1e-6)
print(f"oracle cutoff: n_a + n_b <= {basis.cutoff_a}, certified to "
      f"{ev.certificate['observable_bound']:.1e} "
      f"(leak bound {ev.certificate['leak_bound']:.1e})")
probes = slice(None, None, 20)
obs = fock.observables(ev.at_times(t[probes]), basis)
print(f"Y at scaled time {scaled[200]:.2f}: transport {y[200]:.10f}, "
      f"oracle {obs['Y'][10]:.10f}")
print(f"largest |transport - oracle| over {obs['Y'].size} instants: "
      f"{np.abs(y[probes] - obs['Y']).max():.1e}")

# stability boundary: the pump destabilizes the system at 2 eps = omega
for eps in (0.2, 0.45, 0.55):
    sd = hb.spectral(replace(params, epsilon=eps))
    regime = "unstable" if sd.unstable else "stable"
    print(f"eps = {eps:.2f}: {regime}")

# noisy pump: ten trials, the same draws at both hopping strengths; the
# drawn schedule is the pump, so the model's own epsilon is left at 0
print("\nfluctuating pump, mean eps = 0.3, std = mean/10:")
batch = fl.draw_schedules(0.3, n_trials=10, master_seed=12345)
for lam in (0.001, 0.05):
    ens = fl.ensemble_of(ModelParams(omega=1.0, lam=lam, n_initial=5), batch)
    max_std, max_cv = fl.spread_statistics(ens)
    print(f"  lambda = {lam}: max std {max_std:.4f}, max CV {max_cv:.4f}")

print("\nweak mean pump, eps = 0.001 (noise is invisible):")
batch = fl.draw_schedules(0.001, n_trials=10, master_seed=12345)
for lam in (0.001, 0.05):
    ens = fl.ensemble_of(ModelParams(omega=1.0, lam=lam, n_initial=5), batch)
    _, max_cv = fl.spread_statistics(ens)
    print(f"  lambda = {lam}: max CV {max_cv:.2e}")
