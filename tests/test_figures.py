import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cavityent
from cavityent import figures, fluctuations, heisenberg
from cavityent.params import ModelParams, to_physical_time

SRC = str(Path(cavityent.__file__).resolve().parent.parent)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TASKS = "/proc/self/task"  # one entry per OS thread of this process

WINDOWS = [1.0, 2.0, 5.0]
T_SCALED = np.linspace(0.0, 5.0, 1001)
CELLS = [
    ModelParams(2.0, 0.001, 0.3, 5),
    ModelParams(2.0, 0.1, 0.3, 5),
    ModelParams(1.0, 0.1, 0.5, 5),   # the unstable side of the omega = 1 threshold
    ModelParams(1.0, 1.0, 0.0, 5),   # alpha = omega - lambda = 0: sin(alpha t)/alpha is t
]


def _serial_maxima(params, t_scaled, windows):
    y = heisenberg.covariance_series(params, to_physical_time(t_scaled, params))
    return [y[t_scaled <= w].max() for w in windows]


def _window_maxima(t_scaled, windows):
    """The per-cell function fig5 hands to _scan: Y reduced to its window maxima."""
    ends = np.searchsorted(t_scaled, windows, side="right")

    def series(params, t):
        y = heisenberg.covariance_series(params, t)
        return [y[:end].max() for end in ends]

    return series


class TestScanPool:
    def test_last_cell_has_alpha_zero(self):
        assert heisenberg.spectral(CELLS[-1]).alpha == 0

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6])
    def test_pieced_maxima_equal_whole_grid_maxima(self, workers, monkeypatch):
        monkeypatch.setattr(figures, "_usable_cpus", lambda: workers)
        got = figures._scan(_window_maxima(T_SCALED, WINDOWS), CELLS, T_SCALED)
        assert len(got) == len(CELLS)
        for row, params in zip(got, CELLS):
            assert row == _serial_maxima(params, T_SCALED, WINDOWS)

    def test_more_workers_than_grid_points(self, monkeypatch):
        monkeypatch.setattr(figures, "_usable_cpus", lambda: 4)
        t_scaled = np.linspace(0.0, 2.0, 3)
        got = figures._scan(_window_maxima(t_scaled, [1.0, 2.0]), CELLS[:2], t_scaled)
        for row, params in zip(got, CELLS[:2]):
            assert row == _serial_maxima(params, t_scaled, [1.0, 2.0])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_cell_is_reported_and_threads_are_joined(self, workers, monkeypatch):
        # at omega = 1 every epsilon from 0.6 up overflows within one scaled unit
        # at these lambdas; the later cells fail too, and some of them first in time
        monkeypatch.setattr(figures, "_usable_cpus", lambda: workers)
        cells = [ModelParams(1.0, lam, float(eps), 5)
                 for lam in (0.001, 0.01) for eps in np.linspace(0.0, 0.9, 10)]
        t_scaled = np.linspace(0.0, 5.0, 1007)
        before = threading.active_count()
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                figures._scan(heisenberg.covariance_series, cells, t_scaled)
            messages.add(str(exc.value))
        assert messages == {
            "Y is not finite at lambda = 0.001, epsilon = 0.6, first at scaled time 0.173956: "
            "the second moments overflow; lower epsilon or end the time grid earlier"
        }
        assert threading.active_count() == before

    @pytest.mark.parametrize("setting, message", [
        ({"eps_points": 0}, r"^eps_points and points must be at least 1, got 0, 8001$"),
        ({"points": 0}, r"^eps_points and points must be at least 1, got 2, 0$"),
        ({"window_scaled": 0.0}, r"^window_scaled must be finite and positive, got 0\.0$"),
        ({"window_scaled": float("nan")}, r"^window_scaled must be finite and positive, got nan$"),
        ({"window_scaled": 1e-300}, r"^window_scaled = 1e-300 needs 4e\+304 time points up to "
                                    r"scaled time 5, more than numpy can allocate$"),
        ({"window_scaled": 1e-306}, r"^window_scaled = 1e-306 needs inf time points up to "),
    ], ids=["eps_points", "points", "window-zero", "window-nan", "window-tiny", "window-overflow"])
    def test_a_bad_scan_setting_is_refused_by_name(self, setting, message):
        with pytest.raises(ValueError, match=message):
            figures.fig5(**{"lambdas": (0.1,), "eps_points": 2, **setting})

    def test_overflow_names_the_cell_and_its_first_scaled_time(self):
        # lambda = 0.01, epsilon = 0.52 first overflows near scaled time 3.93
        with pytest.raises(ValueError, match=r"^Y is not finite at lambda = 0\.01, "
                                             r"epsilon = 0\.52, first at scaled time 3\.93214:"):
            figures.fig5(lambdas=(0.01,), omega=1.0, eps_max=0.52, eps_points=2, points=201)

    def test_overflow_only_past_the_scan_window_is_refused(self):
        # lambda = 0.1 first overflows near scaled time 4.7 at epsilon = 1.3 and
        # 4.3 at 1.4: the window_scaled = 2 column is finite, the window 5 one not
        scan = dict(lambdas=(0.1,), omega=1.0, eps_max=1.4, eps_points=15, points=201)
        with pytest.raises(ValueError, match=r"lambda = 0\.1, epsilon = 1\.3, first at "
                                             r"scaled time 4\.71058:"):
            figures.fig5(**scan)
        columns, _ = figures.fig5(**scan, sensitivity=False)
        assert np.isfinite(columns["max_Y_lam0.1"]).all()

    def test_scan_without_sensitivity_keeps_its_columns_bit_for_bit(self):
        scan = dict(lambdas=(0.001, 0.1), omega=2.0, eps_points=3, points=201)
        columns, meta = figures.fig5(**scan)
        prefix_columns, prefix_meta = figures.fig5(**scan, sensitivity=False)
        assert set(meta["sensitivity"]) == {"lam0.001", "lam0.1"}
        assert prefix_meta == {k: v for k, v in meta.items() if k != "sensitivity"}
        assert list(prefix_columns) == list(columns)
        for name, values in columns.items():
            assert prefix_columns[name].tobytes() == values.tobytes()

    @pytest.mark.parametrize("cpus, lambdas, threads", [
        (64, (0.1,), 2),
        (3, (0.1, 0.01), 3),
        (1, (0.1, 0.01), 1),
    ], ids=["capped-by-blocks", "capped-by-cpus", "one-cpu"])
    def test_pool_has_one_thread_per_cpu_up_to_the_block_count(
            self, cpus, lambdas, threads, monkeypatch):
        seen, blocks = [], []

        class Recording(figures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        series = heisenberg.covariance_series
        monkeypatch.setattr(heisenberg, "covariance_series", lambda params, t: (
            blocks.append(np.broadcast_shapes(np.shape(params.epsilon), t.shape)) or
            series(params, t)))
        monkeypatch.setattr(figures, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(figures, "ThreadPoolExecutor", Recording)
        # a window prefix of BLOCK / 2 points: two cells of an epsilon column per block
        points = figures.BLOCK // 2
        figures.fig5(lambdas=lambdas, omega=2.0, eps_points=4, points=points, sensitivity=False)
        assert blocks == [(2, points)] * 2 * len(lambdas)
        assert seen == [threads]

    def test_a_block_mixing_propagator_paths_keeps_each_cells_bits(self, monkeypatch):
        # at omega = 1, lambda = 2, epsilon = 1.41421356 is 2e-8 from B = 0 and takes
        # Newton's form, the other three Sylvester's; all four share one block, and
        # each still gets the bits of its own form
        blocks = []
        series = heisenberg.covariance_series
        monkeypatch.setattr(heisenberg, "covariance_series", lambda params, t: (
            blocks.append(np.shape(params.epsilon)) or series(params, t)))
        scan = dict(lambdas=(2.0,), omega=1.0, eps_max=1.41421356, eps_points=4)
        columns, meta = figures.fig5(**scan, sensitivity=False)
        assert blocks == [(4, 1)]
        eps_grid = columns["epsilon"]
        sd = heisenberg.spectral(ModelParams(1.0, 2.0, eps_grid))
        ratio = np.abs(4.0 * sd.B) / np.maximum(np.abs(sd.alpha), np.abs(sd.gamma)) ** 2
        assert (ratio <= heisenberg.KAPPA).tolist() == [False] * 3 + [True]
        t_scaled = np.linspace(0.0, 5.0, meta["points"])
        alone = [_serial_maxima(ModelParams(1.0, 2.0, float(eps), 5), t_scaled, [2.0])[0]
                 for eps in eps_grid]
        assert columns["max_Y_lam2"].tobytes() == np.array(alone).tobytes()

    def test_a_block_is_refused_at_its_first_failing_epsilon(self, monkeypatch):
        # at omega = 1, lambda = 0.01 both epsilon = 0.6 and 0.9 overflow, 0.9 first
        # in time; both sit in one block, which names 0.6 at its own first time
        blocks = []
        series = heisenberg.covariance_series
        monkeypatch.setattr(heisenberg, "covariance_series", lambda params, t: (
            blocks.append(np.shape(params.epsilon)) or series(params, t)))
        t_scaled = np.linspace(0.0, 5.0, 502)  # fig5's grid: int(201 * 5 / 2) points up to 5
        alone = {}
        for eps in (0.6, 0.9):
            params = ModelParams(1.0, 0.01, eps, 5)
            with pytest.raises(ValueError) as exc:
                series(params, to_physical_time(t_scaled, params))
            alone[eps] = str(exc.value)
        first_time = {eps: float(message.split("first at scaled time ")[1].split(":")[0])
                      for eps, message in alone.items()}
        assert first_time[0.9] < first_time[0.6]
        with pytest.raises(ValueError) as exc:
            figures.fig5(lambdas=(0.01,), omega=1.0, eps_max=0.9, eps_points=4, points=201)
        assert blocks == [(4, 1)]
        assert str(exc.value) == alone[0.6]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.isdir(TASKS),
                        reason="glibc malloc on Linux only")
    def test_a_repeated_scan_faults_in_no_fresh_memory(self):
        import resource  # glibc implies a Unix

        # glibc used to hand each cell's freed temporaries back to the kernel
        # and fault them in again: over 1000 page faults per 20002-point cell
        scan = dict(lambdas=(0.001, 0.1), omega=2.0, eps_points=4)
        threads = len(os.listdir(TASKS))
        figures.fig5(**scan)
        # a pool thread puts its malloc arena up for reuse only as its OS thread
        # ends, after join has returned; a thread of the next pool that starts
        # first takes a fresh arena (about 1340 faults), so wait for the ends
        deadline = time.monotonic() + 10.0
        while len(os.listdir(TASKS)) > threads and time.monotonic() < deadline:
            time.sleep(0.001)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        figures.fig5(**scan)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
@pytest.mark.parametrize("name, fmt", [
    ("fig3", "json"), ("fig4", "json"), ("fig5", "json"), ("sweep", "json"),
    ("oracle-check", None),  # its report is JSON
    # a CSV fig5 run evaluates the 8001-point window prefix, several cells per block
    ("fig5", "csv"), ("sweep", "csv"),
], ids=["fig3", "fig4", "fig5", "sweep", "oracle-check", "fig5-csv", "sweep-csv"])
def test_pooled_json_is_identical_on_one_cpu_and_on_all(name, fmt, tmp_path):
    cpu = min(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": SRC}
    flags = ["--format", fmt] if fmt else []
    outputs = []
    for run, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        out = tmp_path / f"{run}.out"
        subprocess.run([sys.executable, "-m", "cavityent.cli", name, "--config",
                        str(CONFIGS / f"{name}.cfg"), *flags, "--out", str(out)],
                       env=env, preexec_fn=pin, check=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("table, setting", [
    (figures.fig1, "n_values"),
    (figures.fig3, "pairs"),
    (figures.fig4, "pairs"),
    (figures.fig5, "lambdas"),
    (figures.fig6, "lambdas"),
], ids=["fig1", "fig3", "fig4", "fig5", "fig6"])
def test_an_empty_list_setting_is_refused_by_name(table, setting):
    with pytest.raises(ValueError, match=f"^{setting} must list at least one value$"):
        table(**{setting: ()})


@pytest.mark.parametrize("table, settings, problem", [
    (figures.fig1, {"omega": -1.0, "n_values": (-3, 2.5)}, "omega must be positive"),
    (figures.fig1, {"n_values": (5, 2.5, -3)}, "n_initial must be an integer"),
    (figures.fig5, {"eps_max": math.nan, "eps_points": 3, "points": 5},
     "epsilon must be a finite real number"),
], ids=["fig1-grid-before-any-n", "fig1-first-invalid-n", "fig5-epsilon-grid"])
def test_invalid_constants_are_refused_by_name(table, settings, problem):
    with pytest.raises(ValueError, match=f"^invalid parameters: {problem}$"):
        table(**settings)


def test_fig6_draws_each_trial_schedule_once_for_every_lambda(monkeypatch):
    draws = []
    seed = fluctuations.trial_seed
    monkeypatch.setattr(fluctuations, "trial_seed",
                        lambda *args: draws.append(args) or seed(*args))
    lambdas = (0.001, 0.02, 0.05)
    columns, _ = figures.fig6(lambdas=lambdas, n_trials=3, n_segments=12, total_scaled_time=1.0,
                              master_seed=7)
    assert draws == [(7, 0), (7, 1), (7, 2)]
    # the shared draw is the one each lambda's ensemble makes on its own
    batch = fluctuations.draw_schedules(0.3, n_trials=3, master_seed=7, n_segments=12)
    for lam in lambdas:
        ens = fluctuations.ensemble_of(ModelParams(1.0, lam, batch, 5), 1.0)
        for k in range(3):
            assert np.array_equal(columns[f"Y_lam{lam:g}_trial{k + 1}"], ens.trials[k])
