"""Brute-force simulator in a truncated two-mode Fock basis.

This is the independent oracle for every closed form in the package.  The
full Hamiltonian

    H = omega (n_a + n_b) + lambda (a^dag b + a b^dag)
        + epsilon (a^dag^2 + a^2) + drive (a^dag + a)

is assembled as a sparse real-symmetric matrix on a per-mode photon-number
box, evolved by spectral decomposition, and interrogated for moments, the
covariance measure and the a-mode entanglement entropy.

Only the sector that the initial state reaches under H is diagonalised:
the photon-number parity sector when pumped (hopping keeps n_a + n_b and
the pump changes n_a by 2), the N-photon shell without pump or drive, and
the whole basis under a linear drive.  The sector is found from H's nonzero
values and checked, not assumed: H must have no entry between it and the
rest of the basis.

check_convergence truncates on total photon number, n_a + n_b <= K, and
certifies K with a bound, never assumed: hopping keeps n_a + n_b, so only
the pump (and a drive) couples the truncation to the states beyond it, and
the Duhamel formula bounds the distance between the truncated and the
exact state by that coupling along the truncated evolution.
"""

import numpy as np
import scipy.linalg
from scipy import sparse

from .binomial import entropy
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

    def _coefficients(self, psi0):
        psi0 = np.asarray(psi0, dtype=complex)
        if np.any(psi0[~self.sector]):
            raise ValueError("initial state has support outside the evolver's sector")
        return _apply(self.modes.conj().T, psi0[self.sector])

    def at_times(self, psi0, times):
        coeff = self._coefficients(psi0)
        phases = np.exp(-1j * np.outer(np.asarray(times, float), self.energies))
        out = np.zeros((phases.shape[0], self.sector.size), dtype=complex)
        out[:, self.sector] = _apply(self.modes, (phases * coeff).T).T
        return out

    def leak_bound(self, leak, psi0, t):
        """B(t) = sqrt(t int_0^t |leak psi(s)|^2 ds) for psi(s) = exp(-iHs) psi0.

        leak has the basis as columns (see truncation).  With x the
        eigen-coefficients of psi0 and W = (leak V)^dag (leak V) on the
        sector's eigenvectors V, the integral is exact, with no quadrature:

            sum_jk conj(x_j) x_k W_jk (exp(i w_jk t) - 1) / (i w_jk),

        w_jk = E_j - E_k, a term that is t where w_jk = 0.  The factor is
        written t exp(i w t/2) sin(w t/2) / (w t/2), which loses no digits
        there.
        """
        coeff = self._coefficients(psi0)
        leak = sparse.csr_matrix(leak)[:, self.sector]
        z = (leak[np.diff(leak.indptr) > 0] @ self.modes) * coeff
        gap = self.energies[:, None] - self.energies[None, :]
        kernel = t * np.exp(0.5j * gap * t) * np.sinc(gap * t / (2.0 * np.pi))
        integral = np.sum((z.conj().T @ z) * kernel).real
        return float(np.sqrt(t * max(integral, 0.0)))


def _apply(m, v):
    # m @ v for complex v without casting a real m to a complex copy
    return m @ v.real + 1j * (m @ v.imag)


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
    """Covariances, mean photon numbers and Y for a normalized state."""
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
    return entropy(np.clip(s ** 2, 0.0, None))


def truncation(params, cutoff, linear_drive=0.0):
    """H truncated to T = {n_a + n_b <= cutoff}, and its coupling out of T.

    Returns (basis, h, leak) on the (cutoff, cutoff) box.  h is P H P, P the
    projector onto T: every entry of H that touches a state outside T is
    dropped.  leak is Q H P, Q = 1 - P: its columns are the box's states,
    its rows the states outside T of the (cutoff + 2, cutoff + 2) box,
    which holds every state H reaches from T.  Both are cut from one
    build_hamiltonian on that wider box.
    """
    wide = TruncatedBasis(cutoff + 2, cutoff + 2)
    n_a, n_b = np.divmod(np.arange(wide.dim), wide.cutoff_b + 1)
    h = build_hamiltonian(params, wide, linear_drive)
    # the (cutoff, cutoff) box, in its own flat order
    box = (n_a <= cutoff) & (n_b <= cutoff)
    p = sparse.diags((n_a + n_b <= cutoff)[box].astype(float))
    leak = h[n_a + n_b > cutoff][:, box]
    return TruncatedBasis(cutoff, cutoff), sparse.csr_matrix(p @ h[box][:, box] @ p), leak


def check_convergence(params, t_max, tol=1e-6, linear_drive=0.0, ceiling=120):
    """Smallest total-photon cutoff K whose error bound at t_max is below tol.

    Returns (basis, evolver) for |N, 0>, N = params.n_initial, truncated to
    T = {n_a + n_b <= K} on the (K, K) box (basis.cutoff_a == K).  The
    evolver carries its certificate: evolver.certificate holds the leak
    bound B(t_max) and the observable bound 28 max(K, 2) B(t_max).  K runs
    up the ladder N, then max(K + 2, ceil(1.25 K)), to ceiling; past it,
    ConvergenceError.

    State bound (rigorous).  Let psi be the exact state, phi the state
    evolved under P H P (it stays in T, with norm 1) and Q = 1 - P.  By the
    Duhamel formula and then Cauchy-Schwarz,

        |psi(t) - phi(t)| <= int_0^t |Q H phi(s)| ds
                          <= B(t) = sqrt(t int_0^t |Q H phi(s)|^2 ds).

    omega n and the hopping keep n_a + n_b, so Q H P holds only the pump's
    a^dag^2 (and a drive's a^dag) out of the top shells: `truncation`'s
    leak.  SpectralEvolver.leak_bound evaluates the integral exactly in
    the eigenbasis.  B is non-decreasing in t, so B(t_max) bounds every
    t <= t_max.  Without pump or drive Q H P is empty and B = 0: the N rung
    is exact and certifies itself.

    Observable bound (first order in B).  For delta = psi - phi,

        <psi|O|psi> - <phi|O|phi> = <delta|O phi> + <O^dag phi|delta>
                                    + <delta|O|delta>.

    For O in {n_a, n_b, ab, ab^dag}, |O P| and |O^dag P| are at most
    max(K, 2) (|a^dag b^dag P| <= (K + 2)/2), so the first two terms are
    below 2 max(K, 2) B.  A drive adds the means: |<a>_phi| <= sqrt(K) and
    <a> moves by at most (sqrt(K) + sqrt(K + 1)) B, so the products of
    means move by at most (4K + 1) B, and each covariance and barred photon
    number by at most eta = 7 max(K, 2) B.  (With no drive the means are 0
    by parity.)  Y = |c| / D, c = (cov(a, b^dag), cov(a, b)) and
    D = sqrt(2 (nbar_a + 1/2)(nbar_b + 1/2)).  Every state has Y < 1 and
    D >= 1/sqrt(2), and so does every point on the segment between two
    states' moments (|c| is convex, D concave), so along it
    |grad_c Y| <= sqrt(2) and |dY/dnbar| <= Y <= 1, and

        |Y(psi) - Y(phi)| <= sqrt(2) sqrt(2) eta + 2 eta = 4 eta
                           = 28 max(K, 2) B.

    What is not bounded: the <delta|O|delta> term, second order in B but
    with O unbounded off T; the tests check instead that the certified
    rung agrees with one twice as large.  The reduced entropy is not
    covered either.
    """
    n0 = params.n_initial
    cutoff = n0
    while cutoff <= ceiling:
        basis, h, leak = truncation(params, cutoff, linear_drive)
        psi0 = fock_state(basis, n0, 0)
        evolver = SpectralEvolver(h, reachable_sector(h, psi0))
        bound = evolver.leak_bound(leak, psi0, t_max)
        evolver.certificate = {"leak_bound": bound,
                               "observable_bound": 28.0 * max(cutoff, 2) * bound}
        if evolver.certificate["observable_bound"] < tol:
            return basis, evolver
        if cutoff == ceiling:
            break
        cutoff = min(max(cutoff + 2, (5 * cutoff + 3) // 4), ceiling)
    raise ConvergenceError(
        f"cutoff ceiling {ceiling} reached without convergence; "
        "unstable or strong-pump regime, raise the ceiling or shorten t"
    )
