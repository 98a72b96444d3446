import os
import subprocess
import sys
from pathlib import Path

import cavityent

SRC = str(Path(cavityent.__file__).resolve().parent.parent)


def test_transport_and_tables_do_not_load_the_audits():
    # the figures trust only the transport path: building them must not
    # load the Fock oracle or the audits of the published formulas
    code = ("import sys, cavityent.figures, cavityent.heisenberg; "
            "print(sorted({'cavityent.fock', 'cavityent.audit'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_every_shipped_config_runs_without_scipy(tmp_path):
    configs = sorted(CONFIGS.glob("*.cfg"))
    assert len(configs) == 8
    code = ("import sys; sys.modules['scipy'] = None\n"  # every `import scipy...` now fails
            "from cavityent import cli\n"
            "for sub, cfg, out in zip(*[iter(sys.argv[1:])] * 3):\n"
            "    print(sub, cli.main([sub, '--config', cfg, '--out', out]))\n")
    args = [str(a) for cfg in configs for a in (cfg.stem, cfg, tmp_path / f"{cfg.stem}.out")]
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [w for cfg in configs for w in (cfg.stem, "0")], run.stderr
    for cfg in configs:
        assert (tmp_path / f"{cfg.stem}.out").stat().st_size > 0


def test_cli_import_loads_no_scipy():
    code = ("import sys, cavityent.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads_after_import(**set_vars):
    code = "import os, cavityent; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(PYTHONPATH=SRC, **set_vars)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_import_gives_openblas_one_thread_by_default():
    assert _blas_threads_after_import() == "1"


def test_import_keeps_a_thread_count_the_environment_names():
    assert _blas_threads_after_import(OPENBLAS_NUM_THREADS="2") == "2"
    assert _blas_threads_after_import(OMP_NUM_THREADS="2") == "None"
