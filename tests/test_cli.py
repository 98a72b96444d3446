import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityent import audit, cli, figures, fock, heisenberg, serialize
from cavityent.params import ModelParams, to_physical_time
from test_transport_reference import BOUNDS, _reference


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_usage(argv, capsys):
    """Exit code and stderr of a run that argparse itself may end."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


# every (subcommand, key) pair the table does not accept; `epsilon` is no
# key at all and so is rejected everywhere
_UNTAKEN = [
    (name, key)
    for name, (_, keys) in cli.COMMANDS.items()
    for key in [*cli.KEYS, "epsilon"]
    if key not in keys
]

# (subcommand, key, value) for every key that must be a count >= 1 or finite and positive
_NON_POSITIVE = [
    ("fig1", "points", "0"),
    ("fig1", "t_max_scaled", "-1"),
    ("fig3", "points", "0"),
    ("fig3", "t_max_scaled", "nan"),
    ("fig3", "t_max_scaled", "inf"),
    ("fig5", "points", "0"),
    ("fig5", "eps_points", "0"),
    ("fig5", "window_scaled", "0"),
    ("fig6", "trials", "0"),
    ("fig6", "segments", "0"),
    ("fig6", "t_max_scaled", "0"),
    ("oracle-check", "draws", "0"),
    ("oracle-check", "draws", "-3"),
    ("oracle-check", "convergence_tol", "0"),
    ("oracle-check", "convergence_tol", "-1e-6"),
]

# (subcommand, key, text) for every subcommand that takes a list: an empty list is refused
_EMPTY_LISTS = [
    ("fig1", "n_values", ","),
    ("fig3", "pairs", ";"),
    ("fig4", "pairs", " ; "),
    ("fig5", "lambdas", ","),
    ("fig6", "lambdas", ","),
]

# settings whose second moments overflow past the parametric instability
_OVERFLOWING_SCAN = ["--omega", "1", "--eps-max", "0.9", "--eps-points", "10", "--points", "201"]
_OVERFLOWING_PAIR = ["--omega", "1", "--pairs", "0.01,0.9", "--points", "201"]
# a small fig5 scan: 2 lambdas x 4 epsilons on a 502-point grid
_SCAN = ["--lambdas", "0.01,0.1", "--omega", "2", "--eps-points", "4", "--points", "201"]

# (subcommand, key, text, the two values named, their shared label): each
# would have written one column for two values
_CLASHING_LISTS = [
    ("fig1", "n_values", "1,5,1", "1 and 1", "N1"),
    ("fig3", "pairs", "0.1,0.1;0.1,0.1", "(0.1, 0.1) and (0.1, 0.1)", "lam0.1_eps0.1"),
    ("fig4", "pairs", "0.1,0.1;0.1,0.1000001", "(0.1, 0.1) and (0.1, 0.1000001)",
     "lam0.1_eps0.1"),
    ("fig5", "lambdas", "0.1,0.1000001", "0.1 and 0.1000001", "lam0.1"),
    ("fig6", "lambdas", "0.05,0.05", "0.05 and 0.05", "lam0.05"),
]


class TestParsing:
    def test_pairs(self):
        assert cli.parse_pairs("0.001,0.1; 0.1,0.1") == ((0.001, 0.1), (0.1, 0.1))

    @pytest.mark.parametrize("text, chunk", [
        ("0.1", "0.1"), ("0.1,0.2,0.3", "0.1,0.2,0.3"), ("0.1,0.1; 0.2", "0.2"),
    ], ids=["one", "three", "second"])
    def test_malformed_pair_is_named(self, text, chunk, tmp_path, capsys):
        message = f"pair {chunk!r} is not of the form lambda,epsilon"
        code, err = run_cli_usage(["fig3", "--pairs", text], capsys)
        assert code == 1
        assert f"--pairs: {message}" in err
        cfg = tmp_path / "pairs.cfg"
        cfg.write_text(f"pairs = {text}\n")
        code, err = run_cli_usage(["fig3", "--config", str(cfg)], capsys)
        assert code == 1
        assert f"config key 'pairs': {message}" in err
        assert "unpack" not in err

    def test_floats_and_ints(self):
        assert cli.parse_floats("0.001, 0.05") == (0.001, 0.05)
        assert cli.parse_ints("1,5;10") == (1, 5, 10)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("lambda = 0.05  # hopping\n\nt_max_scaled = 2.0\n")
        assert cli.parse_config_file(cfg) == {"lambda": "0.05", "t_max_scaled": "2.0"}

    def test_config_file_rejects_a_repeated_key(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("lambda = 0.1\npoints = 3\nlambda = 0.05\n")
        with pytest.raises(ValueError, match=r"twice.cfg:3: config key 'lambda' is already "
                                             r"set on line 1$"):
            cli.parse_config_file(cfg)
        code, out, err = run_cli(["fig1", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert "'lambda'" in err and ":3:" in err and "line 1" in err

    def test_config_file_rejects_bare_lines(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError):
            cli.parse_config_file(cfg)


class TestFigureSchemas:
    def test_fig1_columns(self):
        columns, meta = figures.fig1()
        assert list(columns) == ["t_scaled", "Y_N1", "Y_N5", "Y_N10", "Y_N50"]
        assert len(columns["t_scaled"]) == 1001
        assert meta["n_values"] == [1, 5, 10, 50]

    def test_fig2_columns(self):
        columns, _ = figures.fig2(points=11)
        assert list(columns) == ["scaled_time", "Y", "S"]

    def test_fig3_columns(self):
        columns, _ = figures.fig3(points=5)
        assert list(columns) == [
            "scaled_time", "Y_lam0.001_eps0.1", "Y_lam0.001_eps0.001",
            "Y_lam0.1_eps0.1", "Y_lam0.1_eps0.001",
        ]

    def test_fig4_columns(self):
        columns, _ = figures.fig4(points=5)
        assert list(columns) == [
            "scaled_time", "ratio_lam0.001_eps0.1",
            "ratio_lam0.001_eps0.001", "ratio_lam0.1_eps0.005",
        ]

    def test_fig5_columns_and_sensitivity(self):
        columns, meta = figures.fig5(lambdas=(0.05,), eps_points=4, points=201)
        assert list(columns) == ["epsilon", "max_Y_lam0.05"]
        assert meta["sensitivity_windows"] == [1.0, 5.0]
        assert set(meta["sensitivity"]["lam0.05"]) == {"window1", "window5"}

    def test_sweep_columns(self):
        columns, _ = figures.sweep(0.05, eps_points=3, points=101)
        assert list(columns) == ["epsilon", "max_Y"]

    def test_sweep_is_fig5s_column(self):
        # same settings, same grid: the prefix of fig5's grid up to the window
        columns, _ = figures.sweep(0.05, eps_points=3, points=101)
        scan, _ = figures.fig5((0.05,), eps_points=3, points=101)
        assert columns["max_Y"].tobytes() == scan["max_Y_lam0.05"].tobytes()

    def test_fig6_columns(self):
        columns, meta = figures.fig6(lambdas=(0.05,), n_trials=2, n_segments=10,
                                     total_scaled_time=1.0)
        assert list(columns) == [
            "scaled_time", "Y_lam0.05_trial1", "Y_lam0.05_trial2",
            "Y_lam0.05_mean", "Y_lam0.05_std", "Y_lam0.05_cv",
        ]
        assert "lam0.05" in meta["spread_statistics"]


_CSV_SPECIALS = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e-300,
                 1.7976931348623157e308, 1 / 3]


def _csv_column(rows):  # a float column of finite doubles and the specials, or integers
    floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                       st.sampled_from(_CSV_SPECIALS))
    return st.one_of(st.lists(floats, min_size=rows, max_size=rows).map(np.array),
                     st.lists(st.integers(-2**62, 2**62), min_size=rows, max_size=rows)
                     .map(lambda xs: np.array(xs, dtype=np.int64)))


def _per_cell_csv(columns):
    # csv_text as it was: one format call per cell
    names = list(columns)
    lines = [",".join(names)]
    for i in range(len(columns[names[0]])):
        lines.append(",".join(f"{float(columns[name][i]):.12g}" for name in names))
    return "\n".join(lines) + "\n"


class TestSerialization:
    def test_csv_header_and_precision(self):
        text = serialize.csv_text({"x": np.array([0.0, 0.5]), "y": np.array([1.0, 1 / 3])})
        lines = text.splitlines()
        assert lines[0] == "x,y"
        assert lines[2] == "0.5,0.333333333333"

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda rows: st.lists(_csv_column(rows), min_size=1,
                                                            max_size=4)))
    @example([np.array(_CSV_SPECIALS), np.arange(-3, len(_CSV_SPECIALS) - 3)])
    def test_csv_rows_equal_per_cell_formatting(self, arrays):
        columns = {f"c{k}": a for k, a in enumerate(arrays)}
        assert serialize.csv_text(columns) == _per_cell_csv(columns)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_csv_is_refused_by_column(self, value, capsys):
        columns = {"x": np.array([0.0, 1.0, 2.0]), "Y": np.array([0.5, value, value])}
        with pytest.raises(ValueError, match=rf"^column 'Y' holds {value} at row 1; CSV output "
                                             r"refuses NaN and infinite values$"):
            serialize.csv_text(columns)
        with pytest.raises(ValueError, match="column 'Y'"):
            serialize.write_table(columns, {}, None, "csv")
        assert capsys.readouterr().out == ""

    def test_json_echoes_config(self):
        text = serialize.json_text({"x": np.array([1.0])}, {"lambda": 0.1})
        payload = json.loads(text)
        assert payload["config"] == {"lambda": 0.1}
        assert payload["columns"] == {"x": [1.0]}

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize.write_table({"x": [1.0]}, {}, None, "yaml")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_json_is_refused(self, value, capsys):
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize.write_report({"max_deviation": value})
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize.write_table({"x": [value]}, {}, None, "json")
        assert capsys.readouterr().out == ""


class TestCliEndToEnd:
    def test_fig1_stdout_csv(self, capsys):
        code, out, _ = run_cli(["fig1", "--points", "5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t_scaled,Y_N1,Y_N5,Y_N10,Y_N50"
        assert len(lines) == 6

    def test_fig1_at_the_largest_hopping_is_finite(self, capsys):
        # 2 lambda t is formed as 2 (lambda t), so lambda = 1e308 overflows nowhere
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(["fig1", "--lambda", "1e308", "--points", "11"], capsys)
        assert code == 0
        rows = np.loadtxt(out.splitlines()[1:], delimiter=",")
        assert rows.shape == (11, 5) and np.isfinite(rows).all()
        _, reference, _ = run_cli(["fig1", "--lambda", "0.1", "--points", "11"], capsys)
        np.testing.assert_allclose(rows, np.loadtxt(reference.splitlines()[1:], delimiter=","),
                                   rtol=0.0, atol=1e-12)

    def test_fig2_at_twenty_thousand_photons_is_finite(self, capsys):
        # the binomials are one running exact product, not one math.comb each
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(["fig2", "--n-initial", "20000", "--points", "11"], capsys)
        assert code == 0
        rows = np.loadtxt(out.splitlines()[1:], delimiter=",")
        assert rows.shape == (11, 3) and np.isfinite(rows).all()

    def test_fig3_near_a_root_of_b_matches_the_40_digit_reference(self, capsys):
        # at lambda = 2 omega, epsilon = 1.41421356 leaves B = 2.1e-8, where a form that
        # divides by 4B was off by 4.8e-9; the CSV rounds to 12 digits, so read the JSON
        argv = ["fig3", "--omega", "1", "--pairs", "2,1.41421356", "--n-initial", "3",
                "--t-max-scaled", "0.2", "--points", "9"]
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        columns = json.loads(out)["columns"]
        p = ModelParams(1.0, 2.0, 1.41421356, 3)
        times = to_physical_time(np.array(columns["scaled_time"]), p)
        want = np.array([_reference(p, t)[2] for t in times])
        err = np.abs(np.array(columns["Y_lam2_eps1.41421"]) - want).max()
        assert err <= BOUNDS["elsewhere"]["Y"], err

    def test_overflowing_physical_time_is_refused(self, tmp_path, capsys):
        # pi / lambda overflows at a subnormal lambda: fig2 used to write nan in Y and S
        out = tmp_path / "fig2.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run_cli(["fig2", "--lambda", "1e-320", "--points", "3",
                                         "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: physical time is not finite at lambda = 9.99989e-321, "
                              "scaled time 0.5:")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_a_window_too_small_for_any_grid_is_refused(self, tmp_path, capsys):
        # the grid spans the longest sensitivity window, 5, at 8001 points per 1e-300
        out = tmp_path / "fig5.csv"
        code, stdout, err = run_cli(["fig5", "--window-scaled", "1e-300", "--lambdas", "0.1",
                                     "--eps-points", "2", "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert err == ("error: window_scaled = 1e-300 needs 4e+304 time points up to "
                       "scaled time 5, more than numpy can allocate\n")
        assert not out.exists()

    def test_byte_identical_reruns(self, capsys):
        argv = ["fig6", "--trials", "2", "--segments", "10", "--t-max-scaled", "1.0",
                "--lambdas", "0.05", "--seed", "7"]
        _, out_a, _ = run_cli(argv, capsys)
        _, out_b, _ = run_cli(argv, capsys)
        assert out_a == out_b

    def test_json_format_echoes_settings(self, capsys):
        code, out, _ = run_cli(
            ["fig2", "--points", "3", "--lambda", "0.05", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["lambda"] == 0.05
        assert list(payload["columns"]) == ["scaled_time", "Y", "S"]

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(["fig2", "--points", "3", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "scaled_time,Y,S"

    def test_config_file_then_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "fig2.cfg"
        cfg.write_text("points = 3\nlambda = 0.05\n")
        _, out_cfg, _ = run_cli(
            ["fig2", "--config", str(cfg), "--format", "json"], capsys)
        assert json.loads(out_cfg)["config"]["points"] == 3
        _, out_flag, _ = run_cli(
            ["fig2", "--config", str(cfg), "--points", "4", "--format", "json"], capsys)
        assert json.loads(out_flag)["config"]["points"] == 4

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength = 3\n")
        code, _, err = run_cli(["fig1", "--config", str(cfg)], capsys)
        assert code == 1
        assert "wavelength" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_sweep_requires_lambda(self, capsys):
        code, _, err = run_cli(["sweep"], capsys)
        assert code == 1
        assert "lambda" in err

    def test_invalid_params_are_usage_error(self, capsys):
        # lambda = 0 leaves the scaled-time axis undefined
        code, _, err = run_cli(["fig2", "--lambda", "0", "--points", "3"], capsys)
        assert code == 1
        assert "uncoupled" in err

    def test_negative_photon_number_in_fig1_is_usage_error(self, capsys):
        code, out, err = run_cli(["fig1", "--points", "3", "--n-values", "5,-3"], capsys)
        assert code == 1 and out == ""
        assert "n_initial must be non-negative" in err

    @pytest.mark.parametrize("argv", [["fig5", "--points", "3"], ["fig6", "--segments", "3"]],
                             ids=lambda argv: argv[0])
    def test_uncoupled_lambdas_flag_is_usage_error(self, argv, capsys):
        code, _, err = run_cli([*argv, "--lambdas", "0"], capsys)
        assert code == 1
        assert "scaled time undefined for uncoupled cavities" in err

    def test_uncoupled_lambdas_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "fig6.cfg"
        cfg.write_text("lambdas = 0.05, 0\ntrials = 2\nsegments = 3\n")
        code, _, err = run_cli(["fig6", "--config", str(cfg)], capsys)
        assert code == 1
        assert "scaled time undefined for uncoupled cavities" in err

    def test_overflowing_noise_run_is_refused(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        code, _, err = run_cli(["fig6", "--lambdas", "0.001", "--mean-epsilon", "0.6",
                                "--t-max-scaled", "20", "--trials", "5", "--seed", "3",
                                "--out", str(out)], capsys)
        assert code == 1
        assert "second moments overflow within pump segment 10 of 100" in err
        assert "use more segments" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fig5", "--lambdas", "0.001", *_OVERFLOWING_SCAN],
         "Y is not finite at lambda = 0.001, epsilon = 0.6, first at scaled time 0.179641"),
        (["sweep", "--lambda", "0.001", *_OVERFLOWING_SCAN],
         "Y is not finite at lambda = 0.001, epsilon = 0.6, first at scaled time 0.179641:"),
        (["fig3", *_OVERFLOWING_PAIR],
         "Y is not finite at lambda = 0.01, epsilon = 0.9, first at scaled time 0.755:"),
        (["fig4", *_OVERFLOWING_PAIR],
         "the photon ratio is not finite at lambda = 0.01, epsilon = 0.9, first at "
         "scaled time 0.755:"),
    ], ids=["fig5", "sweep", "fig3", "fig4"])
    def test_overflowing_scan_is_refused(self, argv, message, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, err = run_cli([*argv, "--out", str(out)], capsys)
        assert code == 1
        assert message in err
        assert not out.exists()

    def test_csv_scan_evaluates_only_the_window_prefix(self, monkeypatch, capsys):
        lengths = []  # (epsilon, t) points per cell: a call evaluates a block of cells
        series = heisenberg.covariance_series
        monkeypatch.setattr(heisenberg, "covariance_series", lambda params, t: (
            lengths.extend([len(t)] * np.size(params.epsilon)) or series(params, t)))
        assert run_cli(["fig5", *_SCAN], capsys)[0] == 0
        csv_lengths = lengths[:]
        lengths.clear()
        code, out, _ = run_cli(["fig5", *_SCAN, "--format", "json"], capsys)
        assert code == 0
        # the grid spans the longest sensitivity window, 5, with int(201 * 5 / 2) points
        t_scaled = np.linspace(0.0, 5.0, 502)
        assert json.loads(out)["config"]["points"] == len(t_scaled)
        assert csv_lengths == [np.count_nonzero(t_scaled <= 2.0)] * 8 == [201] * 8
        assert lengths == [len(t_scaled)] * 8

    def test_csv_and_json_scans_share_their_columns_bit_for_bit(self, monkeypatch, capsys):
        written = []
        write_table = serialize.write_table
        monkeypatch.setattr(serialize, "write_table", lambda columns, meta, out, fmt: (
            written.append(columns) or write_table(columns, meta, out, fmt)))
        _, csv_out, _ = run_cli(["fig5", *_SCAN], capsys)
        _, json_out, _ = run_cli(["fig5", *_SCAN, "--format", "json"], capsys)
        csv_columns, json_columns = written
        assert list(csv_columns) == list(json_columns)
        for name, values in csv_columns.items():
            assert values.tobytes() == json_columns[name].tobytes()
        assert serialize.csv_text(json.loads(json_out)["columns"]) == csv_out

    def test_overflow_past_the_window_refuses_only_json(self, tmp_path, capsys):
        # lambda = 0.1 overflows from scaled time 4.3 on at these epsilons: past the
        # CSV's window 2, inside the window 5 that JSON's sensitivity scan reaches
        argv = ["fig5", "--lambdas", "0.1", "--omega", "1", "--eps-max", "1.4",
                "--eps-points", "15", "--points", "201"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = np.loadtxt(out.splitlines()[1:], delimiter=",")
        assert rows.shape == (15, 2) and np.isfinite(rows).all()
        target = tmp_path / "scan.json"
        code, _, err = run_cli([*argv, "--format", "json", "--out", str(target)], capsys)
        assert code == 1
        assert ("error: Y is not finite at lambda = 0.1, epsilon = 1.3, first at scaled "
                "time 4.71058:") in err
        assert not target.exists()

    @pytest.mark.parametrize("name, key, text, values, label", _CLASHING_LISTS,
                             ids=[row[0] for row in _CLASHING_LISTS])
    def test_values_sharing_a_column_label_are_refused(self, name, key, text, values, label,
                                                       tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _, err = run_cli([name, "--" + key.replace("_", "-"), text, "--out", str(out)],
                               capsys)
        assert code == 1
        assert f"error: {key} {values} give the same column label {label!r}" in err
        assert not out.exists()

    def test_cutoff_ceiling_is_exit_3(self, monkeypatch, capsys):
        from cavityent.fock import ConvergenceError

        def boom(**kwargs):
            raise ConvergenceError("cutoff ceiling reached")

        monkeypatch.setattr(audit, "oracle_check", boom)
        code, _, err = run_cli(["oracle-check"], capsys)
        assert code == 3
        assert "ceiling" in err

    def test_cutoff_ceiling_names_the_oracle_check_settings(self, monkeypatch, capsys):
        # a ceiling of N = 5 certifies the pump-free row and refuses the pumped one
        check = fock.check_convergence
        monkeypatch.setattr(fock, "check_convergence",
                            lambda *args, **kwargs: check(*args, **kwargs, ceiling=5))
        code, out, err = run_cli(["oracle-check", "--draws", "1"], capsys)
        assert (code, out) == (3, "")
        assert "error: cutoff ceiling 5 reached with observable bound " in err
        assert "not below tol = 1e-06" in err
        assert "only a larger --convergence-tol or --omega helps" in err

    @pytest.mark.parametrize("n", [121, 3000])
    def test_n_initial_above_the_cutoff_ceiling_names_n_initial(self, n, tmp_path, capsys):
        # the pump-free rung runs first and builds no rung: the sector states
        # would overflow from N = 2100 on, a warning that is an error here
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(["oracle-check", "--n-initial", str(n), "--draws", "1",
                                    "--out", str(out)], capsys)
        assert code == 3
        assert (f"error: |N, 0> needs a cutoff of at least N = {n}, above the cutoff "
                "ceiling 120; only a smaller --n-initial helps") in err
        assert not out.exists()

    def test_oracle_check_failure_is_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(audit, "oracle_check",
                            lambda **kw: ({"pass": False, "sections": {}}, False))
        code, out, _ = run_cli(["oracle-check"], capsys)
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_oracle_check_success_json(self, capsys):
        code, out, _ = run_cli(
            ["oracle-check", "--draws", "3", "--convergence-tol", "1e-5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert set(report["sections"]) == {
            "pump_free_triple_path", "ch_vs_dense_exponential",
            "published_moment_formulas_audit", "pumped_transport_vs_oracle",
        }
        triple = report["sections"]["pump_free_triple_path"]
        assert triple["entropy_oracle_vs_closed"] < triple["tolerance"]

    def test_oracle_check_refuses_an_overflowing_formula_audit(self, tmp_path, capsys):
        # at omega = 0.08 the audited epsilon = 0.1 is past the instability (2 epsilon > omega):
        # its moments overflow, and the run stops instead of writing NaN (a RuntimeWarning
        # is an error under the suite's filterwarnings)
        out = tmp_path / "report.json"
        code, _, err = run_cli(["oracle-check", "--omega", "0.08", "--draws", "3",
                                "--convergence-tol", "1e30", "--out", str(out)], capsys)
        assert code == 1
        assert ("error: the published moment formulas' deviation is not finite at "
                "lambda = 0.001, epsilon = 0.1, first at scaled time 0.65:") in err
        assert not out.exists()

    def test_overflowing_formula_audit_names_omega_as_the_remedy(self, capsys):
        # oracle-check fixes the audit rows' epsilon and time grid, so the
        # general advice to lower epsilon or end the grid earlier cannot be followed
        code, _, err = run_cli(["oracle-check", "--omega", "0.08", "--draws", "3",
                                "--convergence-tol", "1e30"], capsys)
        assert code == 1
        assert ("the second moments overflow; this audit row's epsilon and time grid are "
                "fixed, and at omega = 0.08 it is past the instability threshold; only a "
                "larger --omega helps") in err
        assert "lower epsilon" not in err

    def test_oracle_check_gates_the_propagators_the_figures_run(self, monkeypatch, capsys):
        propagators = heisenberg.propagators
        monkeypatch.setattr(heisenberg, "propagators",
                            lambda params, t: propagators(params, t) * (1.0 + 1e-6))
        p = ModelParams(1.0, 0.1, 0.1, 5)
        assert audit.ch_sign_audit(p, [0.0, 3.7, 31.4])["corrected"] > 1e-9
        code, out, _ = run_cli(["oracle-check", "--draws", "3"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["pass"] is False
        assert report["sections"]["ch_vs_dense_exponential"]["pass"] is False


class TestCommandTable:
    def test_every_key_has_a_parser(self):
        for _, keys in cli.COMMANDS.values():
            assert set(keys) <= set(cli.KEYS)

    def test_every_key_maps_to_a_keyword_of_its_function(self):
        for (module, function), keys in cli.COMMANDS.values():
            params = inspect.signature(getattr(module, function)).parameters
            for kwarg in keys.values():
                assert kwarg is None or kwarg in params

    def test_every_meta_only_keyword_is_a_keyword_of_its_function(self):
        for name, kwarg in cli.META_ONLY.items():
            (module, function), _ = cli.COMMANDS[name]
            assert kwarg in inspect.signature(getattr(module, function)).parameters

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_shipped_config_keys_are_accepted(self, path):
        keys = cli.COMMANDS[path.stem][1]
        assert set(cli.parse_config_file(path)) <= set(keys)

    @pytest.mark.parametrize("name,key", _UNTAKEN, ids=lambda v: v)
    def test_untaken_flag_is_usage_error(self, name, key, capsys):
        flag = "--" + key.replace("_", "-")
        code, err = run_cli_usage([name, flag, "1"], capsys)
        assert code == 1
        assert flag in err

    @pytest.mark.parametrize("name,key", _UNTAKEN, ids=lambda v: v)
    def test_untaken_config_key_is_usage_error(self, name, key, tmp_path, capsys):
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, err = run_cli_usage([name, "--config", str(cfg)], capsys)
        assert code == 1
        assert repr(key) in err

    def test_fig3_epsilon_is_rejected(self, capsys):
        code, err = run_cli_usage(["fig3", "--points", "5", "--epsilon", "0.3"], capsys)
        assert code == 1
        assert "--epsilon" in err

    @pytest.mark.parametrize("name,key,value", _NON_POSITIVE, ids=lambda v: v)
    def test_non_positive_flag_is_usage_error(self, name, key, value, capsys):
        flag = "--" + key.replace("_", "-")
        code, err = run_cli_usage([name, flag, value], capsys)
        assert code == 1
        assert flag in err

    @pytest.mark.parametrize("name,key,value", _NON_POSITIVE, ids=lambda v: v)
    def test_non_positive_config_value_is_usage_error(self, name, key, value, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, err = run_cli_usage([name, "--config", str(cfg)], capsys)
        assert code == 1
        assert repr(key) in err

    @pytest.mark.parametrize("name,key,text", _EMPTY_LISTS, ids=lambda v: v)
    def test_empty_list_is_usage_error(self, name, key, text, tmp_path, capsys):
        flag = "--" + key.replace("_", "-")
        code, err = run_cli_usage([name, flag, text], capsys)
        assert code == 1
        assert f"{flag}: must list at least one value" in err
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"{key} = {text}\n")
        code, err = run_cli_usage([name, "--config", str(cfg)], capsys)
        assert code == 1
        assert f"config key {key!r}: must list at least one value" in err
