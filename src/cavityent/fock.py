"""Brute-force simulator in a truncated two-mode Fock basis.

This is the independent oracle for every closed form in the package.  The
full Hamiltonian

    H = omega (n_a + n_b) + lambda (a^dag b + a b^dag)
        + epsilon (a^dag^2 + a^2) + drive (a^dag + a)

is written once as a table of its matrix elements (_terms) and assembled
from it as a list of nonzero entries (SparseMatrix) on the states
n_a + n_b <= K of the box; it is evolved by spectral decomposition, and
interrogated for moments, the covariance measure and the a-mode
entanglement entropy.

Only the sector that the initial state reaches under H is diagonalised:
the photon-number parity sector when pumped (hopping keeps n_a + n_b and
the pump changes n_a by 2), the N-photon shell without pump or drive, and
every state kept under a linear drive.  The sector is found from H's nonzero
values and checked, not assumed: H must have no entry between it and the
rest of the basis.  Only its block is made dense.

check_convergence truncates on total photon number, n_a + n_b <= K, and
certifies K with a bound, never assumed: hopping keeps n_a + n_b, so only
the pump (and a drive) couples the truncation to the states beyond it, and
the Duhamel formula bounds the distance between the truncated and the
exact state by that coupling along the truncated evolution.
"""

from dataclasses import dataclass

import numpy as np

from .binomial import entropy
from .params import covariance_measure


class ConvergenceError(RuntimeError):
    """Cutoff ceiling reached before observables converged."""


class TruncatedBasis:
    """Two-mode Fock box 0 <= n_a, n_b <= K, K = cutoff_a; flat index = n_a*(K+1)+n_b."""

    def __init__(self, cutoff):
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        self.cutoff_a = int(cutoff)  # the one cutoff; perfbench's cutoff counter reads this name

    @property
    def dim(self):
        return (self.cutoff_a + 1) ** 2

    def index(self, n_a, n_b):
        if not (0 <= n_a <= self.cutoff_a and 0 <= n_b <= self.cutoff_a):
            raise IndexError(f"({n_a}, {n_b}) outside basis")
        return n_a * (self.cutoff_a + 1) + n_b

    def __repr__(self):
        return f"TruncatedBasis({self.cutoff_a})"


def fock_state(basis, n_a, n_b):
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index(n_a, n_b)] = 1.0
    return psi


@dataclass(frozen=True)
class SparseMatrix:
    """A real matrix kept as its entries: values[k] at (rows[k], cols[k]), each place once.

    A stored 0.0 counts as no coupling (reachable_sector, SpectralEvolver).
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple

    @property
    def dtype(self):  # with shape, what perfbench's eigh counter reads of a matrix
        return self.values.dtype


def _terms(params, n_a, n_b, linear_drive):
    """H's matrix elements out of the states |n_a, n_b> (integer arrays).

    Yields (da, db, value), value = <n_a + da, n_b + db| H |n_a, n_b>, for
    the diagonal and for each term that raises n_a.  H is real symmetric:
    the terms that lower n_a are the transposes of these.
    """
    up_a = np.sqrt(n_a + 1.0)
    yield 0, 0, params.omega * (n_a + n_b)                      # omega (n_a + n_b)
    yield 1, -1, params.lam * (up_a * np.sqrt(n_b))             # lambda a^dag b
    yield 2, 0, params.epsilon * (up_a * np.sqrt(n_a + 2.0))    # epsilon a^dag^2
    yield 1, 0, linear_drive * up_a                             # drive a^dag


def _assemble(params, basis, linear_drive):
    """(h, leak) for H on the states of the basis with n_a + n_b <= K = basis.cutoff_a.

    h is H restricted to those states, in basis's flat index.  leak holds
    the elements from them to the states with n_a + n_b > K: its columns
    are basis's states, its rows n_a (K + 1) + n_b for the states reached.
    Zero elements are not stored.
    """
    total, width = basis.cutoff_a, basis.cutoff_a + 1
    n_a, n_b = np.divmod(np.arange(basis.dim), width)
    source = np.flatnonzero(n_a + n_b <= total)
    n_a, n_b = n_a[source], n_b[source]
    h, leak = [], []
    for da, db, value in _terms(params, n_a, n_b, linear_drive):
        to_a, to_b = n_a + da, n_b + db
        stored = (value != 0) & (to_b >= 0)
        kept = stored & (to_a + to_b <= total)
        target = to_a * width + to_b
        h.append((target[kept], source[kept], value[kept]))
        if da or db:  # and its transpose, the term that lowers n_a
            h.append((source[kept], target[kept], value[kept]))
        out = stored & (to_a + to_b > total)
        leak.append((target[out], source[out], value[out]))
    rows, cols, values = (np.concatenate(part) for part in zip(*h))
    h = SparseMatrix(rows, cols, values, (basis.dim, basis.dim))
    rows, cols, values = (np.concatenate(part) for part in zip(*leak))
    return h, SparseMatrix(rows, cols, values, ((total + 3) * width, basis.dim))


def reachable_sector(h, state):
    """Boolean mask of the basis states that state's support reaches under h.

    Breadth-first search over the nonzero values of h, not its stored
    entries: a zero coupling (epsilon = 0, say) may still be stored and
    must not join two sectors.
    """
    linked = h.values != 0
    rows, cols = h.rows[linked], h.cols[linked]
    sector = np.asarray(state) != 0
    while True:
        reached = rows[sector[cols] & ~sector[rows]]
        if not reached.size:
            return sector
        sector[reached] = True


class SpectralEvolver:
    """Eigendecomposition of H on one H-invariant sector of the basis.

    The sector (a boolean mask, usually from reachable_sector) is checked,
    not assumed: any nonzero entry of H (a SparseMatrix) between the sector
    and the rest of the basis raises.  The sector's block is made dense and
    diagonalised by numpy.linalg.eigh (LAPACK's divide-and-conquer syevd).
    States are taken and returned in the full basis.
    """

    def __init__(self, h, sector):
        self.sector = np.asarray(sector, dtype=bool)
        row_in, col_in = self.sector[h.rows], self.sector[h.cols]
        if np.any((row_in != col_in) & (h.values != 0)):
            raise ValueError("sector is not invariant under H: it couples to the rest of the basis")
        self._position = np.cumsum(self.sector) - 1  # flat index -> row of the block
        block = np.zeros((self._position[-1] + 1,) * 2)
        inside = row_in & col_in
        block[self._position[h.rows[inside]], self._position[h.cols[inside]]] = h.values[inside]
        self.energies, self.modes = np.linalg.eigh(block)

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

        leak is a SparseMatrix with the basis as columns (see truncation);
        psi0 must be real.  With x the eigen-coefficients of psi0, V the
        sector's eigenvectors and z = (leak V) diag(x), the integral is
        exact, with no quadrature:

            sum_jk W_jk (exp(i w_jk t) - 1) / (i w_jk),  W = z^dag z,

        w_jk = E_j - E_k, a term that is t where w_jk = 0.  H's block is
        real symmetric, so V, x (psi0 real), z and W = z^T z are real, and
        W is symmetric.  The kernel's imaginary part (1 - cos(w t)) / w is
        odd in w and cancels between W_jk and W_kj; its real part,
        sin(w t) / w = t sinc(w t / pi), loses no digits at w = 0.
        """
        if np.any(np.imag(psi0)):
            raise ValueError("leak_bound needs a real psi0: it has a nonzero imaginary part")
        inside = self.sector[leak.cols]
        reached, row = np.unique(leak.rows[inside], return_inverse=True)
        block = np.zeros((reached.size, self.energies.size))
        block[row, self._position[leak.cols[inside]]] = leak.values[inside]
        z = (block @ self.modes) * self._coefficients(psi0).real
        gap = self.energies[:, None] - self.energies[None, :]
        integral = t * np.sum((z.T @ z) * np.sinc(gap * (t / np.pi)))
        return float(np.sqrt(t * max(integral, 0.0)))


def _apply(m, v):
    # m @ v for complex v without casting a real m to a complex copy
    return m @ v.real + 1j * (m @ v.imag)


def _grid(state, basis):
    state = np.asarray(state, dtype=complex)
    return state.reshape(state.shape[:-1] + (basis.cutoff_a + 1,) * 2)


def _lower(psi_grid, axis):
    """The annihilator of one mode on each grid of a stack: axis -2 is mode a, -1 mode b."""
    psi = np.moveaxis(psi_grid, axis, -1)
    out = np.zeros_like(psi)
    out[..., :-1] = np.sqrt(np.arange(1.0, psi.shape[-1])) * psi[..., 1:]
    return np.moveaxis(out, -1, axis)


def _vdot(x, y):
    """np.vdot of each pair of grids in two stacks, to np.vdot's bits (np.sum has others)."""
    size = x.shape[-2] * x.shape[-1]
    row = x.conj().reshape(x.shape[:-2] + (1, size))
    return (row @ y.reshape(y.shape[:-2] + (size, 1)))[..., 0, 0]


def observables(state, basis):
    """Covariances, mean photon numbers and Y for normalized states (basis on the last axis).

    Each value has the shape of state's leading axes.
    """
    psi = _grid(state, basis)
    norm = _vdot(psi, psi).real
    off = np.abs(norm - 1.0) > 1e-6
    if np.any(off):
        raise ValueError(f"state not normalized: |psi|^2 = {float(np.extract(off, norm)[0])}")
    a_psi, b_psi = _lower(psi, -2), _lower(psi, -1)
    mean_a = _vdot(psi, a_psi)
    mean_b = _vdot(psi, b_psi)
    exp_ab = _vdot(psi, _lower(b_psi, -2))
    exp_abdag = _vdot(b_psi, a_psi)  # <a b^dag> = <b psi|a psi>: the two modes commute
    mean_na = _vdot(a_psi, a_psi).real
    mean_nb = _vdot(b_psi, b_psi).real
    cov_ab = exp_ab - mean_a * mean_b
    cov_abdag = exp_abdag - mean_a * np.conj(mean_b)
    # photon numbers in the measure carry the bar too: n_bar = <n> - |<a>|^2,
    # which is what makes Y exactly insensitive to a linear drive
    nbar_a = mean_na - np.square(np.abs(mean_a))
    nbar_b = mean_nb - np.square(np.abs(mean_b))
    return {
        "cov_ab": cov_ab,
        "cov_ab_dagger": cov_abdag,
        "mean_na": mean_na,
        "mean_nb": mean_nb,
        "Y": covariance_measure(cov_ab, cov_abdag, nbar_a, nbar_b),
    }


def reduced_entropy(state, basis):
    """Entanglement entropy (bits) of the a-mode reduced density matrix of each state."""
    psi = _grid(state, basis)
    # rho_a = psi psi^dag traced over b; its eigenvalues are the squared
    # singular values of the amplitude grid
    s = np.linalg.svd(psi, compute_uv=False)
    return entropy(np.clip(s ** 2, 0.0, None))


def truncation(params, cutoff, linear_drive=0.0):
    """H truncated to T = {n_a + n_b <= cutoff}, and its coupling out of T.

    Returns (basis, h, leak) on the (cutoff, cutoff) box.  h is P H P, P the
    projector onto T: it holds only the elements between states of T.
    leak is Q H P, Q = 1 - P: its columns are the box's states, its rows
    the states outside T that H reaches from T (see _assemble).  Both are
    built directly on T, from one table of H's elements.  Nothing here is
    dense: SpectralEvolver makes dense only the block of the sector it
    diagonalises.
    """
    basis = TruncatedBasis(cutoff)
    return (basis, *_assemble(params, basis, linear_drive))


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
