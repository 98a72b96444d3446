"""Walk through the pump-free physics: photon exchange, the covariance
measure Y, and the entanglement entropy of the reduced a-mode state.

With the pump off, a cavity prepared with N photons next to an empty one
swaps its photons back and forth at rate lambda.  Halfway through the
swap the two modes are maximally correlated: Y peaks at N/(sqrt(2)(N+1))
and the entropy peaks at the same instant.
"""

import math
from dataclasses import replace

import numpy as np

from cavityent import binomial as bi
from cavityent.params import ModelParams, to_physical_time

N, LAM = 5, 0.1
params = ModelParams(omega=1.0, lam=LAM, epsilon=0.0, n_initial=N)

# one full exchange period, in units of pi / lambda
scaled = np.linspace(0.0, 1.0, 801)
t = to_physical_time(scaled, params)

na, nb = bi.photon_numbers(params, t)
y = bi.covariance_measure_closed(params, t)
s = bi.entropy(bi.reduced_spectrum(params, t))

print(f"initial photons: n_a = {na[0]:.3f}, n_b = {nb[0]:.3f}")
k = np.argmin(np.abs(scaled - 0.25))
print(f"quarter period:  n_a = {na[k]:.3f}, n_b = {nb[k]:.3f}  (photons split evenly)")

peak = N / (math.sqrt(2.0) * (N + 1))
print(f"\npeak Y        = {y.max():.6f}")
print(f"N/(sqrt2(N+1)) = {peak:.6f}")
print(f"peak entropy  = {s.max():.4f} bits  (bound log2(N+1) = {math.log2(N + 1):.4f})")

# the two diagnostics agree on when the state is most entangled
print(f"\nY peaks at scaled time  {scaled[np.argmax(y)]:.4f}")
print(f"S peaks at scaled time  {scaled[np.argmax(s)]:.4f}")

# the peak grows with N but never reaches 1/sqrt(2)
print("\npeak Y by initial photon number:")
for n in (1, 5, 10, 50, 500):
    y_n = bi.covariance_measure_closed(replace(params, n_initial=n), t)
    print(f"  N = {n:4d}: {y_n.max():.5f}")
print(f"  limit : {1 / math.sqrt(2):.5f}")
