"""Benchmark of the cavityent command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload transport_scan --seed 0 --seconds 20 --trace 0

--workload is one of the names in WORKLOADS, or `all` to run each in turn.
Each run writes a config file generated from --seed, then calls
`cavityent.cli.main` on it once per sample, each sample in a fresh
interpreter, one after another (a closed loop with one client).  Samples
are taken until --seconds have passed.  Every output is checked against a
reference computed here without importing cavityent.  With --trace 1 the
first sample runs under tracing.Tracer and the per-layer metrics are
reported instead of the end-to-end ones.

The metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.  A fuller report (environment stamp, every sample, output SHA-256,
absent layer functions) is written under .perfbench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import expm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SPAWNS = 5        # import-only interpreters per run, after one warm-up
RUN_DEADLINE_S = 170.0  # no sample is started that would end after this
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SAMPLE_FIELDS = ("setup_s", "wall_s", "peak_rss_mb", "exit_code", "sha256", "bytes_out",
                 "errors")


# -- reference physics, written independently of the package --------------
#
# Heisenberg equations i dv/dt = M v for v = (a, b, a^dag, b^dag) under
# H = omega (n_a + n_b) + lam (a^dag b + a b^dag) + eps (a^dag^2 + a^2).
# Second moments G_ij = <v_i v_j> of |N, 0> evolve as G -> S G S^T with
# S = exp(-i t M), and Y = sqrt((|<a b^dag>|^2 + |<a b>|^2)
#                               / (2 (n_a + 1/2) (n_b + 1/2))).

def generator(omega, lam, eps):
    return np.array([[omega, lam, 2 * eps, 0],
                     [lam, omega, 0, 0],
                     [-2 * eps, 0, -omega, -lam],
                     [0, 0, -lam, -omega]], dtype=complex)


def start_moments(n):
    g = np.zeros((4, 4), dtype=complex)
    g[0, 2] = n + 1.0  # <a a^dag>
    g[1, 3] = 1.0      # <b b^dag>
    g[2, 0] = n        # <a^dag a>
    return g


def measure(g):
    num = np.abs(g[..., 0, 3]) ** 2 + np.abs(g[..., 0, 1]) ** 2
    return np.sqrt(num / (2 * (g[..., 2, 0].real + 0.5) * (g[..., 3, 1].real + 0.5)))


def transport_y(omega, lam, eps, n, times):
    """Y over a time grid from the eigendecomposition of the generator."""
    theta, v = np.linalg.eig(generator(omega, lam, eps))
    s = np.einsum("ik,tk,kj->tij", v, np.exp(-1j * np.outer(times, theta)), np.linalg.inv(v))
    return measure(s @ start_moments(n) @ s.transpose(0, 2, 1))


def piecewise_y(omega, lam, n, eps_values, dt):
    """Y at segment boundaries, one dense matrix exponential per segment."""
    g = start_moments(n)
    y = [measure(g)]
    for eps in eps_values:
        s = expm(-1j * dt * generator(omega, lam, eps))
        g = s @ g @ s.T
        y.append(measure(g))
    return np.array(y)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def close(actual, expected, tol):
    return np.abs(actual - expected) <= tol * np.maximum(1.0, np.abs(expected))


# -- workloads ---------------------------------------------------------------

class TransportScan:
    """fig5 on the configs/fig5.cfg settings with five seeded hopping strengths."""

    name = "transport_scan"
    subcommand = "fig5"
    suffix = ".csv"
    omega, n_initial, eps_max, eps_points, window = 2.0, 5, 0.5, 26, 2.0
    # fig5's time grid spans the longest window (5) with int(8001 * 5 / 2) points
    grid_points, grid_end = 20002, 5.0
    checked_cells = 16

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 0])
        lambdas = []
        while len(lambdas) < 5:
            lam = float(f"{10 ** rng.uniform(-3, -1):.4g}")  # exact under %g column naming
            if lam not in lambdas:
                lambdas.append(lam)
        self.lambdas = lambdas
        self.seed = seed
        self.items = len(lambdas) * self.eps_points * self.grid_points

    def config(self):
        return (f"omega = {self.omega!r}\n"
                f"lambdas = {', '.join(map(repr, self.lambdas))}\n"
                f"n_initial = {self.n_initial}\neps_max = {self.eps_max!r}\n"
                f"eps_points = {self.eps_points}\nwindow_scaled = {self.window!r}\n")

    def reference(self):
        eps_grid = np.linspace(0.0, self.eps_max, self.eps_points)
        s = np.linspace(0.0, self.grid_end, self.grid_points)
        s = s[s <= self.window]
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(len(self.lambdas) * self.eps_points, self.checked_cells, replace=False)
        cells = {}
        for flat in sorted(picks.tolist()):
            j, i = divmod(flat, self.eps_points)
            lam = self.lambdas[j]
            y = transport_y(self.omega, lam, eps_grid[i], self.n_initial, s * math.pi / lam)
            cells[(i, j)] = y.max()
        self.eps_grid, self.cells = eps_grid, cells

    def check(self, path):
        header, data = read_csv(path)
        expected = ["epsilon"] + [f"max_Y_lam{lam:g}" for lam in self.lambdas]
        if header != expected:
            return [f"header {header} != {expected}"]
        if data.shape != (self.eps_points, len(expected)):
            return [f"table shape {data.shape}"]
        errors = []
        if not close(data[:, 0], self.eps_grid, 1e-12).all():
            errors.append("epsilon column differs from the scan grid")
        for (i, j), ref in self.cells.items():
            if not close(data[i, j + 1], ref, 1e-10):
                errors.append(f"max Y at lambda={self.lambdas[j]} eps={self.eps_grid[i]:g}: "
                              f"{data[i, j + 1]:.12g} != reference {ref:.12g}")
        return errors


class NoiseEnsemble:
    """fig6 on the configs/fig6.cfg settings with 300 trials and the seed as --seed."""

    name = "noise_ensemble"
    subcommand = "fig6"
    suffix = ".csv"
    lambdas, omega, n_initial, mean_eps = (0.001, 0.05), 1.0, 5, 0.3
    trials, segments, t_scaled = 300, 100, 5.0
    checked_trials = 4

    def __init__(self, seed):
        self.seed = seed
        self.items = len(self.lambdas) * self.trials * self.segments

    def config(self):
        return (f"lambdas = {', '.join(map(repr, self.lambdas))}\n"
                f"n_initial = {self.n_initial}\nmean_epsilon = {self.mean_eps!r}\n"
                f"trials = {self.trials}\nsegments = {self.segments}\n"
                f"t_max_scaled = {self.t_scaled!r}\nseed = {self.seed}\nspread = std\n")

    def reference(self):
        """Re-propagate a few trials from the documented seed schedule.

        Trial k draws its segment pump values from
        default_rng(SeedSequence([seed, k])).normal(mean, mean / 10, segments).
        """
        rng = np.random.default_rng([self.seed, 2])
        picks = sorted(rng.choice(self.trials, self.checked_trials, replace=False).tolist())
        self.refs = {}
        for lam in self.lambdas:
            dt = self.t_scaled * math.pi / lam / self.segments
            for k in picks:
                sched = np.random.default_rng(np.random.SeedSequence([self.seed, k]))
                eps = sched.normal(self.mean_eps, self.mean_eps / 10.0, self.segments)
                self.refs[(lam, k)] = piecewise_y(self.omega, lam, self.n_initial, eps, dt)

    def check(self, path):
        header, data = read_csv(path)
        expected = ["scaled_time"]
        for lam in self.lambdas:
            tag = f"Y_lam{lam:g}"
            expected += [f"{tag}_trial{k + 1}" for k in range(self.trials)]
            expected += [f"{tag}_mean", f"{tag}_std", f"{tag}_cv"]
        if header != expected:
            return ["header differs from the fig6 column layout"]
        if data.shape != (self.segments + 1, len(expected)):
            return [f"table shape {data.shape}"]
        errors = []
        if not close(data[:, 0], np.linspace(0.0, self.t_scaled, self.segments + 1), 1e-12).all():
            errors.append("scaled_time column differs from the segment grid")
        stride = self.trials + 3
        for j, lam in enumerate(self.lambdas):
            block = data[:, 1 + j * stride: 1 + (j + 1) * stride]
            trials = block[:, :self.trials]
            if not close(block[:, self.trials], trials.mean(axis=1), 1e-10).all():
                errors.append(f"lambda={lam}: mean column is not the trial mean")
            if not close(block[:, self.trials + 1], trials.std(axis=1), 1e-10).all():
                errors.append(f"lambda={lam}: std column is not the trial std")
            for (ref_lam, k), ref in self.refs.items():
                if ref_lam == lam and not close(trials[:, k], ref, 1e-10).all():
                    errors.append(f"lambda={lam} trial {k + 1} differs from the reference "
                                  f"by {np.abs(trials[:, k] - ref).max():.3g}")
        return errors


class FockOracle:
    """oracle-check on the configs/oracle-check.cfg settings with the seed as audit seed."""

    name = "fock_oracle"
    subcommand = "oracle-check"
    suffix = ".json"
    certified = ("pump_free_triple_path", "ch_vs_dense_exponential",
                 "pumped_transport_vs_oracle")
    items = 1

    def __init__(self, seed):
        self.seed = seed

    def config(self):
        return f"n_initial = 5\nseed = {self.seed}\ndraws = 25\nconvergence_tol = 1e-6\n"

    def reference(self):
        pass

    def check(self, path):
        with open(path) as fh:
            report = json.load(fh)
        errors = []
        if report.get("pass") is not True:
            errors.append("report pass is not true")
        if report.get("seed") != self.seed:
            errors.append(f"report seed {report.get('seed')!r} != {self.seed}")
        sections = report.get("sections", {})
        for name in self.certified:
            if name not in sections:
                errors.append(f"certified section {name} missing")
        for name, section in sections.items():
            if isinstance(section, dict) and section.get("pass", True) is not True:
                errors.append(f"section {name} failed")
        return errors


WORKLOADS = {w.name: w for w in (TransportScan, NoiseEnsemble, FockOracle)}


# -- samples -----------------------------------------------------------------

def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock child.py stamps with


def spawn(argv, deadline, trace=False, spans=None):
    """Run child.py once; return its JSON result with setup_s, or an error string."""
    request = json.dumps({"src": str(SRC), "argv": argv, "trace": trace,
                          "spans": str(spans) if spans else None})
    started = monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), request],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"interpreter exited {proc.returncode}: {' | '.join(tail)}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    return result, None


def run_sample(workload, argv, out_path, deadline, trace=False, spans=None):
    if out_path.exists():
        out_path.unlink()
    result, error = spawn(argv, deadline, trace, spans)
    sample = {"traced": trace, "errors": [error] if error else []}
    if result is None:
        return sample
    sample.update(setup_s=result["setup_s"], wall_s=result["wall_s"],
                  peak_rss_mb=result["maxrss_kb"] / 1024.0, exit_code=result["exit_code"],
                  trace=result.get("trace"))
    if result["exit_code"] != 0:
        sample["errors"].append(f"cavityent exited {result['exit_code']}")
    if not out_path.is_file():
        sample["errors"].append("no output file written")
        return sample
    output = out_path.read_bytes()
    sample.update(sha256=hashlib.sha256(output).hexdigest(), bytes_out=len(output))
    try:
        sample["errors"] += workload.check(out_path)
    except (OSError, ValueError, KeyError) as exc:
        sample["errors"].append(f"output unreadable: {exc!r}")
    return sample


def invocation(workload, work):
    """Write the workload's config file; return the CLI argv and its output path."""
    config = work / f"{workload.name}.cfg"
    config.write_text(workload.config())
    out_path = work / f"output{workload.suffix}"
    return [workload.subcommand, "--config", str(config), "--out", str(out_path)], out_path


def collect(workload, seconds, trace, work):
    """All samples of one run: set-up probes, then timed CLI invocations."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    argv, out_path = invocation(workload, work)

    spawn(None, deadline)  # warm-up: bytecode compilation and page cache
    setups = []
    for _ in range(SETUP_SPAWNS):
        result, error = spawn(None, deadline)
        if error:
            raise RuntimeError(f"set-up probe failed: {error}")
        setups.append(result["setup_s"])
    workload.reference()

    samples = []
    loop_start = time.monotonic()
    if trace:
        spans = OUT_DIR / f"{workload.name}-seed{workload.seed}.spans.json"
        samples.append(run_sample(workload, argv, out_path, deadline, True, spans))
    while True:
        began = time.monotonic()
        samples.append(run_sample(workload, argv, out_path, deadline))
        now = time.monotonic()
        if now - loop_start >= seconds or now + (now - began) > deadline:
            break
    setups += [s["setup_s"] for s in samples if "setup_s" in s]
    return setups, samples


# -- metrics -----------------------------------------------------------------

def end_to_end(workload, setups, samples):
    untraced = [s for s in samples if not s["traced"] and "wall_s" in s]
    timed = [s for s in untraced if not s["errors"]] or untraced
    if not timed:
        return None
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "items_per_s": statistics.median(workload.items / s["wall_s"] for s in timed),
    }


def per_layer(names, traced, untraced_wall):
    """Values for the per-layer metric names from one traced sample.

    Returns (values, absent): a function the tracer could not find, or a
    counter whose hook failed, reads 0 and is listed in absent.
    """
    info = traced["trace"]
    stats, counters = info["stats"], info["counters"]
    installed, unavailable = set(info["installed"]), set(info["unavailable"])
    values, absent = {}, []
    for name in names:
        span, _, stat = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = traced["wall_s"] - untraced_wall
        elif name == "serialize.bytes_out":  # serialize writes the one output file
            values[name] = traced.get("bytes_out", 0)
        elif name == "fock.eigh_useful_ratio":
            done = counters["fock.eigh_performed"]
            values[name] = counters["fock.eigh_distinct"] / done if done else 0.0
            if "fock.eigh_performed" in unavailable:
                absent.append(name)
        elif stat in ("calls", "self_s", "raised"):
            values[name] = stats.get(span, {}).get(stat, 0)
            if span not in installed:
                absent.append(name)
        elif name in counters:
            values[name] = counters[name]
            if name in unavailable:
                absent.append(name)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values, absent


def layer_shares(traced):
    """Self time per package module as a share of the traced wall time."""
    shares = {}
    for name, stat in traced["trace"]["stats"].items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + stat["self_s"]
    return {k: v / traced["wall_s"] for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


# -- environment ---------------------------------------------------------------

def first_line(path, prefix=""):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def environment():
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    l3 = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        if first_line(index / "level") == "3":
            l3 = first_line(index / "size")
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "load": "one cavityent process at a time; BLAS threads as configured above",
    }


# -- driver ------------------------------------------------------------------------

def run_workload(cls, seed, seconds, trace, spec, work):
    workload = cls(seed)
    setups, samples = collect(workload, seconds, trace, work)
    attempted = len(samples)
    failed = sum(1 for s in samples if s["errors"])
    e2e = end_to_end(workload, setups, samples)
    if e2e is None:
        raise RuntimeError("no sample produced a measurement: "
                           + "; ".join(e for s in samples for e in s["errors"]))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"workload": workload.name, "why": why.get(workload.name), "seed": seed,
              "seconds": seconds, "trace": trace, "items_per_sample": workload.items,
              "environment": environment(), "setup_samples": setups,
              "samples": [{k: s.get(k) for k in ("traced",) + SAMPLE_FIELDS} for s in samples],
              "end_to_end": e2e, "fail_frac": failed / attempted}
    if trace:
        traced = samples[0]
        if traced.get("trace") is None:
            raise RuntimeError("traced sample failed: " + "; ".join(traced["errors"]))
        names = [m["name"] for m in spec["per_layer"]]
        values, absent = per_layer(names, traced, e2e["wall_s"])
        report.update(per_layer=values, absent=absent, layer_shares=layer_shares(traced),
                      hook_errors=traced["trace"]["hook_errors"],
                      stats=traced["trace"]["stats"])
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report["metrics"] = metrics
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return report, attempted, failed


def print_report(report, attempted, failed):
    untraced = sum(1 for s in report["samples"] if not s["traced"])
    print(f"{report['workload']} seed={report['seed']} trace={int(report['trace'])}: "
          f"{attempted} samples ({untraced} untraced), {len(report['setup_samples'])} set-up "
          f"samples, {report['items_per_sample']} items per sample")
    for name, m in report["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {report['fail_frac']:>14.6g} ({failed}/{attempted})")
    for layer, share in report.get("layer_shares", {}).items():
        print(f"  self-time share {layer:<28} {share:>14.1%}")
    if report.get("absent"):
        print(f"  absent: {', '.join(report['absent'])}")
    for i, s in enumerate(report["samples"]):
        for error in s["errors"] or ():
            print(f"  sample {i} FAILED: {error}")
    print(f"  sha256 {sorted({s['sha256'] for s in report['samples'] if s['sha256']})}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavityent" / "cli.py").is_file():
        sys.stderr.write(f"error: no cavityent sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            report, attempted, failed = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec, work)
            print_report(report, attempted, failed)
            results.append((report, attempted, failed))
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"environment: {json.dumps(results[0][0]['environment'])}")
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + k: v
               for r, _, _ in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(f == 0 for _, _, f in results),
                      "attempted": sum(a for _, a, _ in results),
                      "failed": sum(f for _, _, f in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
