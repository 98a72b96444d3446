"""Brute-force simulator in a truncated two-mode Fock basis.

This is the independent oracle for every closed form in the package.  The
full Hamiltonian

    H = omega (n_a + n_b) + lambda (a^dag b + a b^dag)
        + epsilon (a^dag^2 + a^2) + drive (a^dag + a)

is assembled as a sparse real-symmetric matrix on a per-mode photon-number
cutoff, evolved by spectral decomposition, and interrogated for moments,
the covariance measure and the a-mode entanglement entropy.

Only the sector that the initial state reaches under H is diagonalised:
the photon-number parity sector when pumped (hopping keeps n_a + n_b and
the pump changes n_a by 2), the N-photon shell without pump or drive, and
the whole basis under a linear drive.  The sector is found from H's nonzero
values and checked, not assumed: H must have no entry between it and the
rest of the basis.  Cutoff adequacy is certified operationally by
check_convergence, never assumed either.
"""

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.special import xlogy

from .params import covariance_measure


class ConvergenceError(RuntimeError):
    """Cutoff ceiling reached before observables converged."""


class TruncatedBasis:
    """Two-mode Fock basis with per-mode cutoffs; flat index = n_a*(cb+1)+n_b."""

    def __init__(self, cutoff_a, cutoff_b):
        if cutoff_a < 0 or cutoff_b < 0:
            raise ValueError("cutoffs must be non-negative")
        self.cutoff_a = int(cutoff_a)
        self.cutoff_b = int(cutoff_b)

    @property
    def dim(self):
        return (self.cutoff_a + 1) * (self.cutoff_b + 1)

    def index(self, n_a, n_b):
        if not (0 <= n_a <= self.cutoff_a and 0 <= n_b <= self.cutoff_b):
            raise IndexError(f"({n_a}, {n_b}) outside basis")
        return n_a * (self.cutoff_b + 1) + n_b

    def occupation(self, flat):
        return divmod(int(flat), self.cutoff_b + 1)

    def __repr__(self):
        return f"TruncatedBasis({self.cutoff_a}, {self.cutoff_b})"


def fock_state(basis, n_a, n_b):
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index(n_a, n_b)] = 1.0
    return psi


def _destroy(cutoff):
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def build_hamiltonian(params, basis, linear_drive=0.0):
    """Sparse (CSR) real-symmetric Hamiltonian matrix in the truncated basis.

    Nothing here is densified: SpectralEvolver makes dense only the block
    of the sector it diagonalises.
    """
    a1 = sparse.csr_matrix(_destroy(basis.cutoff_a))
    b1 = sparse.csr_matrix(_destroy(basis.cutoff_b))
    ia = sparse.identity(basis.cutoff_a + 1, format="csr")
    ib = sparse.identity(basis.cutoff_b + 1, format="csr")
    a = sparse.kron(a1, ib, format="csr")
    b = sparse.kron(ia, b1, format="csr")
    num = sparse.kron(sparse.diags(np.arange(basis.cutoff_a + 1.0)), ib) + sparse.kron(
        ia, sparse.diags(np.arange(basis.cutoff_b + 1.0))
    )
    h = params.omega * num
    h = h + params.lam * (a.T @ b + a @ b.T)
    h = h + params.epsilon * (a.T @ a.T + a @ a)
    if linear_drive:
        h = h + linear_drive * (a.T + a)
    h = sparse.csr_matrix(h)
    if (h != h.T).nnz:
        raise AssertionError("Hamiltonian not symmetric")
    return h


def reachable_sector(h, state):
    """Boolean mask of the basis states that state's support reaches under h.

    Breadth-first search over the nonzero values of h, not its stored
    structure: a zero coupling (epsilon = 0, say) may still be stored and
    must not join two sectors.
    """
    h = sparse.csr_matrix(h)
    sector = np.asarray(state) != 0
    frontier = np.flatnonzero(sector)
    while frontier.size:
        rows = h[frontier]
        reached = rows.indices[rows.data != 0]
        frontier = np.unique(reached[~sector[reached]])
        sector[frontier] = True
    return sector


class SpectralEvolver:
    """Eigendecomposition of H on one H-invariant sector of the basis.

    The sector (a boolean mask, usually from reachable_sector) is checked,
    not assumed: any nonzero entry of H between the sector and the rest of
    the basis raises.  States are taken and returned in the full basis.
    """

    def __init__(self, h, sector):
        h = sparse.csr_matrix(h)
        self.sector = np.asarray(sector, dtype=bool)
        inside = np.flatnonzero(self.sector)
        outside = np.flatnonzero(~self.sector)
        if h[inside][:, outside].count_nonzero() or h[outside][:, inside].count_nonzero():
            raise ValueError("sector is not invariant under H: it couples to the rest of the basis")
        # the densified block is a temporary: LAPACK overwrites it in place,
        # without a copy because it is laid out in Fortran order
        block = h[inside][:, inside].toarray(order="F")
        self.energies, self.modes = scipy.linalg.eigh(block, overwrite_a=True, driver="evd")

    def at(self, psi0, t):
        return self.at_times(psi0, [t])[0]

    def at_times(self, psi0, times):
        psi0 = np.asarray(psi0, dtype=complex)
        if np.any(psi0[~self.sector]):
            raise ValueError("initial state has support outside the evolver's sector")
        coeff = _apply(self.modes.conj().T, psi0[self.sector])
        phases = np.exp(-1j * np.outer(np.asarray(times, float), self.energies))
        out = np.zeros((phases.shape[0], self.sector.size), dtype=complex)
        out[:, self.sector] = _apply(self.modes, (phases * coeff).T).T
        return out


def _apply(m, v):
    # m @ v for complex v without casting a real m to a complex copy
    return m @ v.real + 1j * (m @ v.imag)


def evolve(state, h, t):
    """exp(-iHt) applied to state; norm preserved to 1e-9."""
    out = SpectralEvolver(h, reachable_sector(h, state)).at(state, t)
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > 1e-9 and abs(np.linalg.norm(state) - 1.0) < 1e-9:
        raise AssertionError(f"norm drift during evolution: {norm!r}")
    return out


def _grid(state, basis):
    return np.asarray(state, dtype=complex).reshape(basis.cutoff_a + 1, basis.cutoff_b + 1)


def _ann_a(psi_grid):
    out = np.zeros_like(psi_grid)
    na = np.arange(1.0, psi_grid.shape[0])
    out[:-1, :] = np.sqrt(na)[:, None] * psi_grid[1:, :]
    return out


def _ann_b(psi_grid):
    out = np.zeros_like(psi_grid)
    nb = np.arange(1.0, psi_grid.shape[1])
    out[:, :-1] = np.sqrt(nb)[None, :] * psi_grid[:, 1:]
    return out


def _cre_b(psi_grid):
    out = np.zeros_like(psi_grid)
    nb = np.arange(1.0, psi_grid.shape[1])
    out[:, 1:] = np.sqrt(nb)[None, :] * psi_grid[:, :-1]
    return out


def observables(state, basis):
    """First/second moments, covariances and Y for a normalized state."""
    psi = _grid(state, basis)
    norm = np.vdot(psi, psi).real
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state not normalized: |psi|^2 = {norm!r}")
    a_psi = _ann_a(psi)
    b_psi = _ann_b(psi)
    mean_a = np.vdot(psi, a_psi)
    mean_b = np.vdot(psi, b_psi)
    exp_ab = np.vdot(psi, _ann_a(b_psi))
    exp_abdag = np.vdot(psi, _ann_a(_cre_b(psi)))
    mean_na = np.vdot(a_psi, a_psi).real
    mean_nb = np.vdot(b_psi, b_psi).real
    cov_ab = exp_ab - mean_a * mean_b
    cov_abdag = exp_abdag - mean_a * np.conj(mean_b)
    # photon numbers in the measure carry the bar too: n_bar = <n> - |<a>|^2,
    # which is what makes Y exactly insensitive to a linear drive
    nbar_a = mean_na - abs(mean_a) ** 2
    nbar_b = mean_nb - abs(mean_b) ** 2
    return {
        "mean_a": mean_a,
        "mean_b": mean_b,
        "exp_ab": exp_ab,
        "exp_abdag": exp_abdag,
        "cov_ab": cov_ab,
        "cov_ab_dagger": cov_abdag,
        "mean_na": mean_na,
        "mean_nb": mean_nb,
        "Y": float(covariance_measure(cov_ab, cov_abdag, nbar_a, nbar_b)),
    }


def reduced_entropy(state, basis):
    """Entanglement entropy (bits) of the a-mode reduced density matrix."""
    psi = _grid(state, basis)
    # rho_a = psi psi^dag traced over b; its eigenvalues are the squared
    # singular values of the amplitude grid
    s = np.linalg.svd(psi, compute_uv=False)
    p = np.clip(s ** 2, 0.0, None)
    return float(-np.sum(xlogy(p, p)) / np.log(2.0))


def check_convergence(
    params,
    t_max,
    tol=1e-6,
    linear_drive=0.0,
    start_cutoff=8,
    ceiling=120,
    n_probe=5,
):
    """Grow cutoffs geometrically until Y, n_a, n_b and S stabilize below tol.

    Returns (basis, evolver): an adequate TruncatedBasis and the
    SpectralEvolver for |N, 0> on it that the last rung already built.
    With epsilon = 0 and no drive the total photon number is conserved and
    cutoff N is exact.
    """
    n0 = params.n_initial

    def rung(cutoff):
        basis = TruncatedBasis(cutoff, cutoff)
        h = build_hamiltonian(params, basis, linear_drive)
        return basis, SpectralEvolver(h, reachable_sector(h, fock_state(basis, n0, 0)))

    if params.epsilon == 0.0 and linear_drive == 0.0:
        return rung(n0)
    probes = np.linspace(0.0, float(t_max), n_probe + 1)[1:]
    cutoff = max(int(start_cutoff), n0 + 2)
    prev = None
    while cutoff <= ceiling:
        basis, ev = rung(cutoff)
        rows = []
        for psi in ev.at_times(fock_state(basis, n0, 0), probes):
            obs = observables(psi, basis)
            rows.append([obs["Y"], obs["mean_na"], obs["mean_nb"], reduced_entropy(psi, basis)])
        current = np.array(rows)
        if prev is not None and np.abs(current - prev).max() < tol:
            return basis, ev
        prev = current
        cutoff = min(2 * cutoff, ceiling) if cutoff < ceiling else ceiling + 1
    raise ConvergenceError(
        f"cutoff ceiling {ceiling} reached without convergence; "
        "unstable or strong-pump regime, raise the ceiling or shorten t"
    )
