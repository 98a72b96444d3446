import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cavityent
from cavityent import figures, heisenberg
from cavityent.params import ModelParams, to_physical_time

SRC = str(Path(cavityent.__file__).resolve().parent.parent)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WINDOWS = [1.0, 2.0, 5.0]
# 1001 = 7 * 11 * 13: no piece count from 2 to 6 divides it
T_SCALED = np.linspace(0.0, 5.0, 1001)
CELLS = [
    ModelParams(2.0, 0.001, 0.3, 5),
    ModelParams(2.0, 0.1, 0.3, 5),
    ModelParams(1.0, 0.1, 0.5, 5),   # the unstable side of the omega = 1 threshold
    ModelParams(1.0, 1.0, 0.0, 5),   # alpha = omega - lambda = 0: the dense-expm fallback
]


def _serial_maxima(params, t_scaled, windows):
    y = heisenberg.covariance_series(params, to_physical_time(t_scaled, params))
    return [y[t_scaled <= w].max() for w in windows]


class TestScanPool:
    def test_last_cell_takes_the_dense_fallback(self):
        with pytest.raises(heisenberg.DegenerateSpectrumError):
            heisenberg.ch_coefficients(heisenberg.spectral(CELLS[-1]), 1.0)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 6])
    def test_pieced_maxima_equal_whole_grid_maxima(self, workers):
        got = figures._window_maxima(CELLS, T_SCALED, WINDOWS, workers)
        assert got.shape == (len(CELLS), len(WINDOWS))
        for row, params in zip(got, CELLS):
            assert row.tolist() == _serial_maxima(params, T_SCALED, WINDOWS)

    def test_more_workers_than_grid_points(self):
        t_scaled = np.linspace(0.0, 2.0, 3)
        got = figures._window_maxima(CELLS[:2], t_scaled, [1.0, 2.0], 4)
        for row, params in zip(got, CELLS[:2]):
            assert row.tolist() == _serial_maxima(params, t_scaled, [1.0, 2.0])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_cell_is_reported_and_threads_are_joined(self, workers, monkeypatch):
        # at omega = 1 every epsilon from 0.6 up overflows within one scaled unit
        # at these lambdas; the later cells fail too, and some of them first in time
        monkeypatch.setattr(figures, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(figures, "MIN_PIECE_POINTS", 1)
        before = threading.active_count()
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                figures.fig5(lambdas=(0.001, 0.01), omega=1.0, eps_max=0.9, eps_points=10,
                             points=403)
            messages.add(str(exc.value))
        assert messages == {
            "Y is not finite at lambda = 0.001, epsilon = 0.6 within the sensitivity window "
            "(scaled time 1): the second moments overflow; lower eps_max"
        }
        assert threading.active_count() == before

    def test_overflow_in_the_scan_window_names_window_scaled(self):
        # lambda = 0.01, epsilon = 0.52 first overflows near scaled time 1.98
        with pytest.raises(ValueError) as exc:
            figures.fig5(lambdas=(0.01,), omega=1.0, eps_max=0.52, eps_points=2, points=201)
        assert str(exc.value) == (
            "Y is not finite at lambda = 0.01, epsilon = 0.52 within the scan window "
            "(scaled time 2): the second moments overflow; lower eps_max or window_scaled"
        )

    def test_overflow_only_past_the_scan_window_names_the_sensitivity_window(self):
        # lambda = 0.1 first overflows near scaled time 4.5 at epsilon = 0.8 and
        # 3.8 at 0.9: the window_scaled = 2 column is finite, the window 5 one not
        scan = dict(lambdas=(0.1,), omega=1.0, eps_max=0.9, eps_points=10, points=201)
        with pytest.raises(ValueError) as exc:
            figures.fig5(**scan)
        assert str(exc.value) == (
            "Y is not finite at lambda = 0.1, epsilon = 0.8 within the sensitivity window "
            "(scaled time 5): the second moments overflow; lower eps_max"
        )
        columns, _ = figures.fig5(**scan, sensitivity_windows=(1.0,))
        assert np.isfinite(columns["max_Y_lam0.1"]).all()

    def test_pool_size_is_capped_by_piece_length(self, monkeypatch):
        seen = []

        def record(cells, t_scaled, windows, workers):
            seen.append((len(t_scaled), workers))
            return np.zeros((len(cells), len(windows)))

        monkeypatch.setattr(figures, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(figures, "_window_maxima", record)
        figures.fig5(lambdas=(0.1,), eps_points=2)  # 20002 points: two 10001-point pieces
        figures.sweep(0.1, eps_points=2)             # 8001 points: one piece
        assert seen == [(20002, 2), (8001, 1)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_a_repeated_scan_faults_in_no_fresh_memory(self):
        import resource  # glibc implies a Unix

        # glibc used to hand each cell's freed temporaries back to the kernel
        # and fault them in again: over 1000 page faults per 20002-point cell
        scan = dict(lambdas=(0.001, 0.1), omega=2.0, eps_points=4)
        figures.fig5(**scan)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        figures.fig5(**scan)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
def test_fig5_json_is_identical_on_one_cpu_and_on_all(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": SRC}
    outputs = []
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        out = tmp_path / f"{name}.json"
        subprocess.run([sys.executable, "-m", "cavityent.cli", "fig5", "--config",
                        str(CONFIGS / "fig5.cfg"), "--format", "json", "--out", str(out)],
                       env=env, preexec_fn=pin, check=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
