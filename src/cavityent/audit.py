"""Audits of the transport path: the published formulas and the Fock oracle.

The figures trust one route for pumped dynamics, the moment transport of
`heisenberg`; this module only checks it.  The published structure-
function formulas and Cayley-Hamilton signs are evaluated verbatim and
their distance from transport reported, never trusted.  oracle_check runs
every route (closed forms, sector states, transport, the truncated-Fock
oracle) against the others.

Sign convention: ch_coefficients rederives c0 and c1 from the
interpolation conditions c0 + c1 th + c2 th^2 + c3 th^3 = exp(-i th t),
th in {+-alpha, +-gamma}; the variant with both signs flipped
(printed_ch_coefficients) gives exp(0) = -I.  The gate on exp(-itM) is
not these coefficients but heisenberg.propagators, the S the figures run.
"""

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily: load it with this module, not in the first draw
from numpy.random import default_rng

from . import binomial, fock, heisenberg
from .params import ModelParams, covariance_measure, to_physical_time

# Pade 13 numerator coefficients b_0 .. b_13 over b_0, so that exp(0) = I
# exactly, and the 1-norm bound theta_13 up to which the approximant is
# accurate to unit roundoff (Higham 2005, Tables 2.3 and 2.2)
PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
THETA13 = 5.371920351148152


@dataclass(frozen=True)
class StructureFunctions:
    u: complex
    v: complex
    w: complex
    x: complex
    y_coef: complex
    z_coef: complex


def expm(a):
    """exp(a) for a square matrix or a stack of them (any leading axes).

    Pade 13 with scaling and squaring (Higham, SIAM J. Matrix Anal. Appl.
    26 (2005) 1179): each matrix is scaled by 2^-s, s the least with
    1-norm / 2^s <= THETA13, its [13/13] Pade approximant r is solved for,
    and r is squared s times.  Each matrix of a stack gets its own s, so
    it comes out as it would alone.  The reference of ch_sign_audit.
    """
    a = np.asarray(a)
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    mant, exp = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / THETA13)
    s = np.maximum(exp - (mant == 0.5), 0)  # ceil(log2(norm / THETA13)), at least 0
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b = PADE13
    ident = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        more = s > k
        r[more] = r[more] @ r[more]
    return r.reshape(shape)


def ch_coefficients(spec_data, t):
    """Cayley-Hamilton coefficients (c0, c1, c2, c3) of exp(-i t M) = sum of c_k M^k.

    Sylvester's form regrouped over I, M, M^2 and M^3, from heisenberg's
    cos(theta t) and sin(theta t)/theta; shape (4,) + broadcast(spec_data,
    t).  The form divides by 4B, so a spectrum with 4B = 0 is refused.
    """
    sd = spec_data
    if (4.0 * sd.B == 0).any():
        raise ValueError(f"degenerate spectrum, no Cayley-Hamilton coefficients: "
                         f"B = {sd.B!r}, alpha = {sd.alpha!r}, gamma = {sd.gamma!r}")
    t = np.asarray(t, dtype=float)
    # complex theta^2, so that theta is spectral's alpha and gamma to the bit
    (ca, sa), (cg, sg) = (heisenberg._cos_sinc(sd.A + k * sd.B, t) for k in (-2.0, 2.0))
    al2, ga2 = sd.alpha ** 2, sd.gamma ** 2
    c = np.array([ga2 * ca - al2 * cg, -1j * (ga2 * sa - al2 * sg), cg - ca, 1j * (sa - sg)])
    return c / (4.0 * sd.B)


def printed_ch_coefficients(spec_data, t):
    """Coefficients with the published signs on the I and M terms (audit only)."""
    c = ch_coefficients(spec_data, t)
    c[:2] *= -1.0
    return c


def structure_functions(params, t, sign_omega=1, sign_lambda=1):
    """The six published polynomials in c0..c3, at signed arguments.

    The signs substitute omega -> sign_omega*omega, lambda -> sign_lambda*lambda
    as the published subscripts indicate; the coefficients themselves only
    depend on omega^2 and lambda^2 and are sign-invariant.
    """
    sd = heisenberg.spectral(params)
    c0, c1, c2, c3 = ch_coefficients(sd, t)
    w = sign_omega * params.omega
    l = sign_lambda * params.lam
    e = params.epsilon
    a_val = sd.A
    return StructureFunctions(
        u=c0 + w * c1 + (a_val - 2.0 * e * e) * c2 + w * (2.0 * l * l - 2.0 * e * e + a_val) * c3,
        v=l * c1 + 2.0 * l * w * c2 + l * (2.0 * w * w - 2.0 * e * e + a_val) * c3,
        w=2.0 * e * c1 + 2.0 * e * (l * l + a_val) * c3,
        x=c0 + w * c1 + (l * l + w * w) * c2 + w * (3.0 * l * l + w * w) * c3,
        y_coef=2.0 * e * (l * c2 + w * c3),
        z_coef=-2.0 * l * l * e * c3,
    )


def moments_closed_form(params, t):
    """The published moment formulas, evaluated verbatim.

    Same layout as heisenberg.transported_moment_arrays; any disagreement
    with it is data for the audit report, the transport path stays
    authoritative.
    """
    n = params.n_initial
    f_pp = structure_functions(params, t, +1, +1)
    f_mm = structure_functions(params, t, -1, -1)
    f_mp = structure_functions(params, t, -1, +1)
    cov_ab = (1 + n) * f_pp.x * f_pp.y_coef + n * f_pp.w * f_pp.v + f_pp.v * f_pp.z_coef
    cov_abd = (1 + n) * f_pp.u * f_mm.v + n * f_pp.w * f_mp.y_coef + f_pp.v * f_mm.x
    mean_na = (1 + n) * f_pp.u * f_mm.u - n * f_pp.w ** 2 + f_pp.v * f_mm.v - 1.0
    mean_nb = (1 + n) * f_pp.v * f_mm.v + n * f_pp.y_coef * f_mp.y_coef + f_pp.x * f_mm.x - 1.0
    return cov_ab, cov_abd, np.real(mean_na), np.real(mean_nb)


def closed_form_audit(params, times):
    """Deviation of the published moment formulas from the transport path.

    Returns per-quantity maximum absolute deviations over the grid; refused
    where either side is not finite (heisenberg._finite), naming omega as the
    remedy, since oracle_check fixes each row's epsilon and time grid.
    """
    times = np.asarray(times, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = heisenberg.transported_moment_arrays(params, times)
        audited = moments_closed_form(params, times)
        deviation = [np.abs(a - r) for a, r in zip(audited, reference)]
    advice = (f"this audit row's epsilon and time grid are fixed, and at omega = {params.omega:g} "
              "it is past the instability threshold; only a larger --omega helps")
    heisenberg._finite("the published moment formulas' deviation", deviation[0], deviation[1:],
                       params, times, advice)
    keys = ("cov_ab", "cov_ab_dagger", "mean_na", "mean_nb")
    return {k: float(d.max(initial=0.0)) for k, d in zip(keys, deviation)}


def ch_sign_audit(params, times):
    """Max error of exp(-itM), relative to max(1, |expm|): "corrected" is
    heisenberg.propagators, the S transport runs (gated in oracle_check);
    "printed" sums c_k M^k with the published signs (report-only)."""
    times = np.asarray(times, dtype=float)
    m = heisenberg.build_matrix(params)
    exact = expm(-1j * times[:, None, None] * m)
    scale = np.maximum(1.0, np.abs(exact).max(axis=(-2, -1)))
    powers = np.stack([np.eye(4), m, m @ m, m @ m @ m])
    printed = printed_ch_coefficients(heisenberg.spectral(params), times)
    err = {}
    for key, s in (
        ("corrected", heisenberg.propagators(params, times)),
        ("printed", np.einsum("k...,kij->...ij", printed, powers)),  # sum of c_k M^k
    ):
        deviation = np.abs(s - exact).max(axis=(-2, -1))
        err[key] = float((deviation / scale).max(initial=0.0))
    return err


def oracle_check(
    omega=1.0,
    n_initial=5,
    seed=2024,
    n_random_draws=25,
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
    params = ModelParams(omega, lam, 0.0, n_initial)
    t_grid = to_physical_time(np.linspace(0.0, 0.5, 101), params)
    try:  # pump-free: the exact N rung, run before the sector states overflow at a large N
        basis, ev = fock.check_convergence(params, t_grid[-1])
    except fock.ConvergenceError as exc:
        raise fock.ConvergenceError(f"{exc}; only a smaller --n-initial helps") from None
    y_closed = binomial.covariance_measure_closed(params, t_grid)
    y_state = binomial.covariance_measure_from_state(binomial.binomial_state(params, t_grid))
    y_transport = heisenberg.covariance_series(params, t_grid)
    states = ev.at_times(t_grid)
    y_oracle = fock.observables(states, basis)["Y"]
    # fig2's entropy column, from the oracle's states against the binomial spectrum
    s_oracle = fock.reduced_entropy(states, basis)
    s_closed = binomial.entropy(binomial.reduced_spectrum(params, t_grid))
    deviations = {
        "state_vs_closed": float(np.abs(y_state - y_closed).max()),
        "transport_vs_closed": float(np.abs(y_transport - y_closed).max()),
        "oracle_vs_closed": float(np.abs(y_oracle - y_closed).max()),
        "entropy_oracle_vs_closed": float(np.abs(s_oracle - s_closed).max()),
    }
    triple = {**deviations, "tolerance": 1e-8}
    triple["pass"] = max(deviations.values()) < triple["tolerance"]
    ok &= triple["pass"]
    report["sections"]["pump_free_triple_path"] = triple

    # propagator: Cayley-Hamilton vs dense exponential, sign audit included
    rng = default_rng(seed)
    ch_section = {"draws": n_random_draws, "tolerance": 1e-9,
                  "max_corrected": 0.0, "max_printed": 0.0}
    for _ in range(n_random_draws):
        p = ModelParams(omega, rng.uniform(1e-3, 0.2), rng.uniform(0.0, 0.5), n_initial)
        t = to_physical_time(rng.uniform(0.0, 2.0), p)
        errs = ch_sign_audit(p, [t])
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
        dev = closed_form_audit(p, times)
        audit_rows.append({"lambda": lam_a, "epsilon": eps_a, "max_deviation": dev})
    report["sections"]["published_moment_formulas_audit"] = {
        "note": "report-only: transport path is authoritative",
        "rows": audit_rows,
    }

    # pumped transport vs the Fock oracle, at the cutoff its leak bound
    # certifies (leak_bound at t_max, and the observable bound it implies)
    lam_p, eps_p = 0.1, 0.1
    p = ModelParams(omega, lam_p, eps_p, n_initial)
    t_max = to_physical_time(1.0, p)
    try:
        basis, ev = fock.check_convergence(p, t_max, tol=convergence_tol)
    except fock.ConvergenceError as exc:  # this audit row's epsilon and time grid are fixed
        raise fock.ConvergenceError(f"{exc}; at omega = {omega:g} only a larger "
                                    "--convergence-tol or --omega helps") from None
    probes = np.linspace(0.0, t_max, 17)[1:]
    moments = heisenberg.transported_moment_arrays(p, probes)
    transported = dict(zip(("cov_ab", "cov_ab_dagger", "mean_na", "mean_nb"), moments),
                       Y=covariance_measure(*moments))
    obs = fock.observables(ev.at_times(probes), basis)
    max_dev = max(np.abs(obs[k] - v).max() for k, v in transported.items())
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
