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
"""

from .params import ModelParams, to_physical_time, to_scaled_time, validate

__all__ = ["ModelParams", "to_physical_time", "to_scaled_time", "validate"]
__version__ = "0.1.0"
