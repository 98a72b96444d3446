import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityent import binomial as bi
from cavityent import fock
from cavityent import heisenberg as hb
from cavityent.params import ModelParams, to_physical_time


class TestBasis:
    def test_index_occupation_bijection(self):
        basis = fock.TruncatedBasis(5)
        seen = set()
        for n_a in range(6):
            for n_b in range(6):
                flat = basis.index(n_a, n_b)
                assert divmod(flat, basis.cutoff_a + 1) == (n_a, n_b)
                seen.add(flat)
        assert seen == set(range(basis.dim))

    def test_fock_state_is_unit_vector(self):
        basis = fock.TruncatedBasis(3)
        psi = fock.fock_state(basis, 2, 1)
        assert np.linalg.norm(psi) == 1.0
        assert psi[basis.index(2, 1)] == 1.0


def _dense(h):
    out = np.zeros(h.shape)
    out[h.rows, h.cols] = h.values
    return out


class TestHamiltonian:
    def test_diagonal_counts_photons(self):
        p = ModelParams(1.3, 0.0, 0.0, 0)
        basis, h, _ = fock.truncation(p, 6)
        h = _dense(h)
        for n_a in range(4):
            for n_b in range(4):
                i = basis.index(n_a, n_b)
                assert h[i, i] == pytest.approx(1.3 * (n_a + n_b))

    def test_hopping_element(self):
        # <n_a - 1, n_b + 1| H |n_a, n_b> = lam sqrt(n_a (n_b + 1))
        p = ModelParams(1.0, 0.1, 0.0, 0)
        basis, h, _ = fock.truncation(p, 4)
        h = _dense(h)
        i = basis.index(3, 1)
        j = basis.index(2, 2)
        assert h[j, i] == pytest.approx(0.1 * math.sqrt(3 * 2))

    def test_pump_element(self):
        # <n_a + 2, n_b| H |n_a, n_b> = eps sqrt((n_a + 1)(n_a + 2))
        p = ModelParams(1.0, 0.0, 0.2, 0)
        basis, h, _ = fock.truncation(p, 4)
        h = _dense(h)
        i = basis.index(1, 1)
        j = basis.index(3, 1)
        assert h[j, i] == pytest.approx(0.2 * math.sqrt(2 * 3))

    def test_drive_element(self):
        p = ModelParams(1.0, 0.0, 0.0, 0)
        basis, h, _ = fock.truncation(p, 2, linear_drive=0.05)
        h = _dense(h)
        i = basis.index(1, 0)
        j = basis.index(2, 0)
        assert h[j, i] == pytest.approx(0.05 * math.sqrt(2))

    def test_symmetric(self):
        p = ModelParams(1.0, 0.1, 0.1, 0)
        _, h, _ = fock.truncation(p, 8, linear_drive=0.02)
        dense = _dense(h)
        assert np.count_nonzero(dense) == h.values.size  # every stored entry is a nonzero
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("cutoff", [3, 8])
    def test_truncation_splits_an_independent_dense_h(self, cutoff):
        # h is P H P and leak is Q H P, P onto T = {n_a + n_b <= K}: together
        # every nonzero element of H out of T, none lost and none stored twice
        p = ModelParams(1.3, 0.1, 0.2, 0)
        drive = 0.05
        states, dense = _analytic_hamiltonian(p, drive, cutoff + 2)  # holds all of Q H P
        in_t = [sum(s) <= cutoff for s in states]
        expected = {"h": {}, "leak": {}}
        for (i, to), (j, source) in itertools.product(enumerate(states), repeat=2):
            if in_t[j] and dense[i, j] != 0.0:
                expected["h" if in_t[i] else "leak"][to, source] = dense[i, j]
        _, h, leak = fock.truncation(p, cutoff, linear_drive=drive)
        for name, m in (("h", h), ("leak", leak)):
            keys = [(divmod(int(r), cutoff + 1), divmod(int(c), cutoff + 1))
                    for r, c in zip(m.rows, m.cols)]
            assert len(set(keys)) == len(keys), f"{name} stores an element twice"
            assert dict(zip(keys, m.values.tolist())) == pytest.approx(expected[name], rel=1e-15)


def _analytic_hamiltonian(p, drive, box):
    """(states, H): H dense on the box n_a, n_b <= box, one written element at a time.

    H[i, j] = <states[i]| H |states[j]>, every term and its transpose
    written out; an element that leaves the box is dropped.
    """
    states = list(itertools.product(range(box + 1), repeat=2))
    where = {s: k for k, s in enumerate(states)}
    dense = np.zeros((len(states), len(states)))
    for (n_a, n_b), j in where.items():
        elements = {
            (n_a, n_b): p.omega * (n_a + n_b),
            (n_a + 1, n_b - 1): p.lam * math.sqrt((n_a + 1) * n_b),    # a^dag b
            (n_a - 1, n_b + 1): p.lam * math.sqrt(n_a * (n_b + 1)),    # a b^dag
            (n_a + 2, n_b): p.epsilon * math.sqrt((n_a + 1) * (n_a + 2)),  # a^dag^2
            (n_a - 2, n_b): p.epsilon * math.sqrt(n_a * (n_a - 1)),    # a^2
            (n_a + 1, n_b): drive * math.sqrt(n_a + 1),                # a^dag
            (n_a - 1, n_b): drive * math.sqrt(n_a),                    # a
        }
        for to, value in elements.items():
            if to in where:
                dense[where[to], j] = value
    return states, dense


def _evolve(psi0, h, t):
    out = fock.SpectralEvolver(h, fock.reachable_sector(h, psi0)).at_times(psi0, [t])[0]
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-9, "norm drift during evolution"
    return out


class TestEvolution:
    def test_identity_at_t0(self):
        p = ModelParams(1.0, 0.1, 0.1, 2)
        basis, h, _ = fock.truncation(p, 10)
        psi0 = fock.fock_state(basis, 2, 0)
        np.testing.assert_allclose(_evolve(psi0, h, 0.0), psi0, atol=1e-14)

    def test_norm_preserved(self):
        p = ModelParams(1.0, 0.08, 0.06, 3)
        basis, h, _ = fock.truncation(p, 24)
        psi = _evolve(fock.fock_state(basis, 3, 0), h, 40.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_pump_free_matches_binomial_magnitudes(self):
        # with the pump off the exact state lives on the N-photon shell
        # |N - n, n>; amplitudes agree with the closed form up to a
        # mode-local phase convention, so magnitudes are compared
        N, lam = 5, 0.1
        p = ModelParams(1.0, lam, 0.0, N)
        basis, h, _ = fock.truncation(p, N)
        psi0 = fock.fock_state(basis, N, 0)
        for s in (0.1, 0.25, 0.4, 0.75):
            t = to_physical_time(s, p)
            grid = _evolve(psi0, h, t).reshape(N + 1, N + 1)
            closed = bi.binomial_state(p, t)
            for n in range(N + 1):
                assert abs(grid[N - n, n]) == pytest.approx(abs(closed[n]), abs=1e-9)
            off_shell = sum(
                abs(grid[i, j]) for i in range(N + 1) for j in range(N + 1) if i + j != N
            )
            assert off_shell < 1e-9

    def test_spectral_evolver_batch_matches_single(self):
        p = ModelParams(1.0, 0.1, 0.05, 2)
        basis, h, _ = fock.truncation(p, 16)
        psi0 = fock.fock_state(basis, 2, 0)
        ev = fock.SpectralEvolver(h, fock.reachable_sector(h, psi0))
        times = np.array([0.0, 3.0, 17.0])
        batch = ev.at_times(psi0, times)
        for t, row in zip(times, batch):
            np.testing.assert_allclose(row, ev.at_times(psi0, [t])[0], atol=1e-12)


def _shell(basis):
    return np.array([sum(divmod(i, basis.cutoff_a + 1)) for i in range(basis.dim)])


def _full_basis_states(h, psi0, times):
    # reference: dense eigh of the whole matrix, no sector reduction
    energies, modes = np.linalg.eigh(_dense(h))
    coeff = modes.T @ psi0
    return np.array([modes @ (np.exp(-1j * energies * t) * coeff) for t in times])


class TestSectorEvolver:
    @pytest.mark.parametrize(
        "eps, drive, cutoff, in_sector",
        [
            (0.1, 0.0, 16, lambda shell: shell % 2 == 1),
            (0.1, 0.0, 24, lambda shell: shell % 2 == 1),
            (0.0, 0.0, 12, lambda shell: shell == 5),
            (0.0, 0.05, 16, lambda shell: shell >= 0),
        ],
        ids=["pumped-16", "pumped-24", "pump-free", "linear-drive"],
    )
    def test_matches_full_basis_eigh(self, eps, drive, cutoff, in_sector):
        p = ModelParams(1.0, 0.1, eps, 5)
        basis, h, _ = fock.truncation(p, cutoff, linear_drive=drive)
        psi0 = fock.fock_state(basis, 5, 0)
        ev = fock.SpectralEvolver(h, fock.reachable_sector(h, psi0))
        shell = _shell(basis)  # the sector lies in T = {shell <= cutoff}: a drive reaches all of T
        np.testing.assert_array_equal(ev.sector, in_sector(shell) & (shell <= cutoff))
        times = to_physical_time(np.array([0.1, 0.37, 1.0]), p)
        np.testing.assert_allclose(
            ev.at_times(psi0, times), _full_basis_states(h, psi0, times), rtol=0, atol=1e-12
        )

    def test_stored_zero_couplings_do_not_join_sectors(self):
        basis, h, _ = fock.truncation(ModelParams(1.0, 0.1, 0.1, 5), 10)
        shell = _shell(basis)
        h.values[shell[h.rows] != shell[h.cols]] = 0.0
        assert 0 < np.count_nonzero(h.values) < h.values.size
        sector = fock.reachable_sector(h, fock.fock_state(basis, 5, 0))
        np.testing.assert_array_equal(sector, shell == 5)

    def test_state_outside_sector_rejected(self):
        basis, h, _ = fock.truncation(ModelParams(1.0, 0.1, 0.1, 5), 10)
        ev = fock.SpectralEvolver(h, fock.reachable_sector(h, fock.fock_state(basis, 5, 0)))
        mixed = (fock.fock_state(basis, 5, 0) + fock.fock_state(basis, 4, 0)) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="outside"):
            ev.at_times(fock.fock_state(basis, 4, 0), [1.0])
        with pytest.raises(ValueError, match="outside"):
            ev.at_times(mixed, [0.0, 1.0])

    def test_non_invariant_sector_raises(self):
        # the pump couples neighbouring photon-number shells
        basis, h, _ = fock.truncation(ModelParams(1.0, 0.1, 0.1, 5), 10)
        with pytest.raises(ValueError, match="not invariant"):
            fock.SpectralEvolver(h, _shell(basis) == 5)


class TestObservables:
    def test_fock_state_moments(self):
        basis = fock.TruncatedBasis(6)
        obs = fock.observables(fock.fock_state(basis, 4, 0), basis)
        assert obs["mean_na"] == pytest.approx(4.0)
        assert obs["mean_nb"] == pytest.approx(0.0)
        assert obs["cov_ab"] == pytest.approx(0.0)
        assert obs["Y"] == 0.0

    def test_peak_measure_pump_free(self):
        N, lam = 5, 0.1
        p = ModelParams(1.0, lam, 0.0, N)
        basis, h, _ = fock.truncation(p, N)
        t = to_physical_time(0.25, p)
        obs = fock.observables(_evolve(fock.fock_state(basis, N, 0), h, t), basis)
        assert obs["Y"] == pytest.approx(N / (math.sqrt(2.0) * (N + 1)), abs=1e-10)

    def test_unnormalized_state_rejected(self):
        basis = fock.TruncatedBasis(3)
        psi = fock.fock_state(basis, 1, 0)
        with pytest.raises(ValueError):
            fock.observables(2.0 * psi, basis)
        # in a stack, the first state off norm is named
        with pytest.raises(ValueError, match=r"not normalized: \|psi\|\^2 = 4\.0$"):
            fock.observables(np.stack([psi, 2.0 * psi, 3.0 * psi]), basis)

    def test_linear_drive_leaves_measure_invariant(self):
        # the barred second moments subtract the coherent displacement, so a
        # classical drive term must not move Y
        N, lam = 3, 0.1
        p = ModelParams(1.0, lam, 0.0, N)
        basis, h0, _ = fock.truncation(p, 40)
        _, h1, _ = fock.truncation(p, 40, linear_drive=0.3)
        psi0 = fock.fock_state(basis, N, 0)
        for s in (0.1, 0.25, 0.6):
            t = to_physical_time(s, p)
            y0 = fock.observables(_evolve(psi0, h0, t), basis)["Y"]
            y1 = fock.observables(_evolve(psi0, h1, t), basis)["Y"]
            assert abs(y1 - y0) < 1e-8


class TestEntropy:
    def test_product_state_has_zero_entropy(self):
        basis = fock.TruncatedBasis(4)
        s = fock.reduced_entropy(fock.fock_state(basis, 2, 2), basis)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0  # +0.0, never -0.0

    def test_peak_entropy_matches_binomial_spectrum(self):
        N, lam = 5, 0.1
        p = ModelParams(1.0, lam, 0.0, N)
        basis, h, _ = fock.truncation(p, N)
        t = to_physical_time(0.25, p)
        psi = _evolve(fock.fock_state(basis, N, 0), h, t)
        s = fock.reduced_entropy(psi, basis)
        assert s == pytest.approx(bi.entropy(bi.reduced_spectrum(p, t)), abs=1e-10)
        assert s == pytest.approx(2.198, abs=1e-3)
        assert s <= math.log2(N + 1) + 1e-12


# each batched function of a stack of states; "entropy" is reduced_entropy
_STATE_FUNCTIONS = {
    **{key: lambda states, basis, key=key: fock.observables(states, basis)[key]
       for key in ("cov_ab", "cov_ab_dagger", "mean_na", "mean_nb", "Y")},
    "entropy": fock.reduced_entropy,
}
# leading axes of the stack: one state, an empty stack, a line and a 2-D block
_STACKS = {"single": (), "empty": (0,), "line": (6,), "block": (2, 3)}


@pytest.fixture(scope="module")
def driven_states():
    # pump and drive: every moment, the means included, is nonzero
    p = ModelParams(1.0, 0.1, 0.05, 2)
    t_max = to_physical_time(0.5, p)
    basis, ev = fock.check_convergence(p, t_max, linear_drive=0.05)
    return basis, ev.at_times(fock.fock_state(basis, 2, 0), np.linspace(0.0, t_max, 6))


class TestBatched:
    @pytest.mark.parametrize("shape", _STACKS.values(), ids=_STACKS)
    @pytest.mark.parametrize("name", _STATE_FUNCTIONS)
    def test_stack_equals_stacked_calls(self, name, shape, driven_states):
        basis, states = driven_states
        f = _STATE_FUNCTIONS[name]
        stack = states[:math.prod(shape)].reshape(shape + (basis.dim,))
        expected = np.array([f(psi, basis) for psi in stack.reshape(-1, basis.dim)])
        batched = f(stack, basis)
        assert np.shape(batched) == shape
        assert np.array_equal(batched, expected.reshape(shape))


class TestConvergence:
    def test_pump_free_cutoff_is_exact(self):
        p = ModelParams(1.0, 0.1, 0.0, 7)
        basis, ev = fock.check_convergence(p, 10.0)
        assert basis.cutoff_a == 7
        assert ev.sector.sum() == 8
        assert ev.certificate == {"leak_bound": 0.0, "observable_bound": 0.0}

    def test_ceiling_raises(self):
        # deep in the unstable regime no finite cutoff settles
        p = ModelParams(1.0, 0.1, 0.6, 5)
        with pytest.raises(fock.ConvergenceError):
            fock.check_convergence(p, to_physical_time(0.5, p), ceiling=24)

    def test_weak_pump_converges_quickly(self):
        p = ModelParams(1.0, 0.1, 0.02, 2)
        basis, _ = fock.check_convergence(p, to_physical_time(0.5, p))
        assert basis.cutoff_a <= 32

    def test_returned_evolver_matches_fresh_build(self):
        p = ModelParams(1.0, 0.1, 0.02, 2)
        times = to_physical_time(np.linspace(0.0, 0.5, 4), p)
        basis, ev = fock.check_convergence(p, times[-1])
        _, h, _ = fock.truncation(p, basis.cutoff_a)
        psi0 = fock.fock_state(basis, 2, 0)
        fresh = fock.SpectralEvolver(h, fock.reachable_sector(h, psi0))
        np.testing.assert_array_equal(ev.sector, fresh.sector)
        np.testing.assert_allclose(
            ev.at_times(psi0, times), fresh.at_times(psi0, times), rtol=0, atol=1e-13
        )


def _rung(p, cutoff, drive=0.0):
    """(basis, evolver, leak, |N, 0>) on n_a + n_b <= cutoff."""
    basis, h, leak = fock.truncation(p, cutoff, drive)
    psi0 = fock.fock_state(basis, p.n_initial, 0)
    return basis, fock.SpectralEvolver(h, fock.reachable_sector(h, psi0)), leak, psi0


def _on_box(psi, cutoff):
    """psi from a smaller square box, zero-padded onto the (cutoff, cutoff) box."""
    side = math.isqrt(psi.size)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    grid[:side, :side] = psi.reshape(side, side)
    return grid.ravel()


def _distances_and_bounds(p, cutoffs, reference, times, drive=0.0):
    """(K, t, |psi_K(t) - psi_R(t)|, B_K(t) + B_R(t)) for each K in cutoffs, R = reference."""
    _, ev_r, leak_r, psi_r = _rung(p, reference, drive)
    states_r = ev_r.at_times(psi_r, times)
    bounds_r = [ev_r.leak_bound(leak_r, psi_r, t) for t in times]
    rows = []
    for cutoff in cutoffs:
        _, ev_k, leak_k, psi_k = _rung(p, cutoff, drive)
        for t, state_k, state_r, b_r in zip(times, ev_k.at_times(psi_k, times), states_r, bounds_r):
            gap = np.linalg.norm(_on_box(state_k, reference) - state_r)
            rows.append((cutoff, t, gap, ev_k.leak_bound(leak_k, psi_k, t) + b_r))
    return rows


# eigensolver rounding in the two states compared; far below every bound
# that matters, and the leak bound itself carries no slack
ROUNDING = 1e-12

BOUND_CASES = [(0.1, 0.1, 5), (0.05, 0.2, 3), (0.15, 0.05, 2)]

# rungs of oracle-check's pumped case (0.1, 0.1, 5): two of its ladder, the
# certified K = 48, and one under a linear drive (both parities, no sector cut)
LEAK_RUNGS = [(17, 0.0), (30, 0.0), (48, 0.0), (24, 0.05)]
LEAK_IDS = ["K17", "K30", "K48", "K24-drive"]


def _dense_leak(leak):
    """leak as a dense matrix on the states it reaches (rows) and the basis (columns)."""
    reached, row = np.unique(leak.rows, return_inverse=True)
    out = np.zeros((reached.size, leak.shape[1]))
    out[row, leak.cols] = leak.values
    return out


def _simpson_leak_bound(ev, leak, psi0, t, points=4001):
    """B(t) from composite Simpson on |leak psi(s)|^2, the states taken from at_times."""
    dense = _dense_leak(leak)
    s = np.linspace(0.0, t, points)
    squares = np.concatenate([np.sum(np.abs(ev.at_times(psi0, part) @ dense.T) ** 2, axis=-1)
                              for part in np.array_split(s, 16)])  # 16 parts bound the memory
    weights = np.ones(points)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return math.sqrt(t * (s[1] - s[0]) / 3.0 * (weights @ squares))


def _complex_leak_bound(ev, leak, psi0, t):
    """B(t) by the complex kernel sum: sum_jk conj(x_j) x_k W_jk t exp(i w t/2) sinc(w t/2 pi)."""
    coeff = ev.modes.T @ psi0[ev.sector]
    z = (_dense_leak(leak)[:, ev.sector] @ ev.modes).astype(complex) * coeff
    gap = ev.energies[:, None] - ev.energies[None, :]
    kernel = t * np.exp(0.5j * gap * t) * np.sinc(gap * t / (2.0 * np.pi))
    return math.sqrt(t * max(np.sum((z.conj().T @ z) * kernel).real, 0.0))


class TestCertificate:
    @pytest.mark.parametrize("lam, eps, n0", BOUND_CASES)
    def test_leak_bound_covers_distance_to_large_rung(self, lam, eps, n0):
        # |psi_K - psi_R| <= |psi_K - psi| + |psi - psi_R| <= B_K + B_R
        p = ModelParams(1.0, lam, eps, n0)
        times = to_physical_time(np.array([0.25, 0.5, 1.0]), p)
        for cutoff, t, gap, bound in _distances_and_bounds(p, (17, 22, 28, 35), 70, times):
            assert gap <= bound + ROUNDING, (cutoff, t, gap, bound)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        lam=st.floats(0.02, 0.2),
        eps=st.floats(0.0, 0.3),
        drive=st.sampled_from([0.0, 0.0, 0.05]),
        n0=st.integers(0, 5),
        extra=st.integers(0, 12),
        scaled=st.floats(0.05, 1.0),
    )
    def test_leak_bound_holds_over_stable_draws(self, lam, eps, drive, n0, extra, scaled):
        p = ModelParams(1.0, lam, eps, n0)
        t = to_physical_time(scaled, p)
        ((_, _, gap, bound),) = _distances_and_bounds(p, [n0 + extra], 32, [t], drive)
        assert gap <= bound + ROUNDING

    def test_leak_bound_grows_with_time(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        _, ev, leak, psi0 = _rung(p, 17)
        bounds = [ev.leak_bound(leak, psi0, t) for t in np.linspace(0.0, 40.0, 9)]
        assert bounds[0] == 0.0
        assert np.all(np.diff(bounds) > 0.0)

    @pytest.mark.parametrize("cutoff, drive", LEAK_RUNGS, ids=LEAK_IDS)
    def test_leak_bound_matches_a_time_domain_quadrature(self, cutoff, drive):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        _, ev, leak, psi0 = _rung(p, cutoff, drive)
        t = to_physical_time(1.0, p)
        np.testing.assert_allclose(ev.leak_bound(leak, psi0, t),
                                   _simpson_leak_bound(ev, leak, psi0, t), rtol=1e-8)

    @pytest.mark.parametrize("cutoff, drive", LEAK_RUNGS, ids=LEAK_IDS)
    def test_leak_bound_equals_the_complex_kernel_sum(self, cutoff, drive):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        _, ev, leak, psi0 = _rung(p, cutoff, drive)
        for scaled in (0.1, 0.5, 1.0):
            t = to_physical_time(scaled, p)
            np.testing.assert_allclose(ev.leak_bound(leak, psi0, t),
                                       _complex_leak_bound(ev, leak, psi0, t), rtol=1e-12)

    def test_leak_bound_refuses_a_complex_initial_state(self):
        p = ModelParams(1.0, 0.1, 0.1, 5)
        _, ev, leak, psi0 = _rung(p, 17)
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            ev.leak_bound(leak, psi0 * np.exp(0.25j), 10.0)

    @pytest.mark.parametrize(
        "lam, eps, n0, scaled, drive",
        [(0.1, 0.1, 5, 1.0, 0.0), (0.15, 0.05, 2, 1.0, 0.0), (0.1, 0.02, 2, 0.5, 0.0),
         (0.1, 0.0, 3, 1.0, 0.05), (0.1, 0.05, 3, 1.0, 0.05)],
        ids=["oracle-check", "weak-pump", "weak-pump-short", "drive", "drive-and-pump"],
    )
    def test_certified_rung_agrees_with_doubled_rung(self, lam, eps, n0, scaled, drive):
        # the rule the bound replaced, kept as a cross-check: it also covers
        # the second-order term the observable bound leaves out
        tol = 1e-6
        p = ModelParams(1.0, lam, eps, n0)
        t_max = to_physical_time(scaled, p)
        basis, ev = fock.check_convergence(p, t_max, tol=tol, linear_drive=drive)
        assert ev.certificate["observable_bound"] < tol
        doubled, ev2, _, psi2 = _rung(p, 2 * basis.cutoff_a, drive)
        psi0 = fock.fock_state(basis, n0, 0)
        times = np.linspace(0.0, t_max, 9)
        for psi, psi_2 in zip(ev.at_times(psi0, times), ev2.at_times(psi2, times)):
            obs, ref = fock.observables(psi, basis), fock.observables(psi_2, doubled)
            for key in ("Y", "mean_na", "mean_nb"):
                assert abs(obs[key] - ref[key]) < tol, key

    def test_pump_free_rung_certifies_itself(self):
        p = ModelParams(1.0, 0.1, 0.0, 5)
        basis, ev = fock.check_convergence(p, to_physical_time(1.0, p), tol=1e-14)
        assert basis.cutoff_a == 5
        assert ev.certificate["leak_bound"] == 0.0

    def test_linear_drive_certifies(self):
        p = ModelParams(1.0, 0.1, 0.0, 3)
        basis, ev = fock.check_convergence(p, to_physical_time(1.0, p), linear_drive=0.05)
        assert 3 < basis.cutoff_a < 24
        assert 0.0 < ev.certificate["observable_bound"] < 1e-6
        # a drive reaches both parities
        assert ev.sector.sum() == (basis.cutoff_a + 1) * (basis.cutoff_a + 2) // 2


class TestAgreementWithTransport:
    def test_random_draws_match_moment_transport(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(6):
            lam = rng.uniform(0.02, 0.15)
            eps = rng.uniform(0.0, 0.12)
            n0 = int(rng.integers(1, 6))
            p = ModelParams(1.0, lam, eps, n0)
            t_max = to_physical_time(0.5, p)
            basis, ev = fock.check_convergence(p, t_max, tol=1e-6, ceiling=64)
            psi0 = fock.fock_state(basis, n0, 0)
            times = np.linspace(0.0, t_max, 5)
            obs = fock.observables(ev.at_times(psi0, times), basis)
            y_ref = hb.covariance_series(p, times)
            worst = max(worst, np.abs(obs["Y"] - y_ref).max())
        assert worst < 1e-5
