"""Bipartite continuous-variable entanglement of two coupled optical cavities.

Submodules:
    params        -- model parameters, scaled-time conventions, the measure Y
    binomial      -- pump-free closed forms (two-mode binomial states)
    heisenberg    -- pumped dynamics via the 4x4 Bogoliubov propagator
    fock          -- truncated-Fock-space brute-force oracle
    fluctuations  -- Monte-Carlo pump-fluctuation ensembles
    figures       -- data tables behind each figure subcommand
    audit         -- cross-checks: published formulas, every route against the others
    cli           -- command-line front end

Importing the package before numpy (the command line does) gives numpy's
OpenBLAS one thread, unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS names a count.  The package's dense problems are small (the
Fock oracle's largest block has a few hundred states): threads gain little
on them, and while another process holds a core OpenBLAS's spinning threads
wait on each other, so a run's wall time doubles and scatters.
"""

import os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .params import ModelParams, to_physical_time, to_scaled_time

__all__ = ["ModelParams", "to_physical_time", "to_scaled_time"]
__version__ = "0.1.0"
