"""Command-line front end: figure reproduction, sweeps and oracle audits.

Usage:
    cavityent SUBCOMMAND [--config PATH] [--KEY VALUE ...]

One table, COMMANDS, says which settings each subcommand takes and which
keyword argument of its function (in `figures`, or `audit` for
oracle-check) each one fills; KEYS says how each setting's text is
parsed.  Both the flags (`--t-max-scaled`) and the config keys
(`t_max_scaled = 2.0`) of a subcommand are built from that table, so a
flag or config key the subcommand does not take is a usage error that
names it, never silently dropped.  `cavityent SUBCOMMAND -h` lists the
accepted flags.

Settings resolve as: built-in defaults < config file (key = value lines)
< command-line flags.  Config keys are the long flag names with
underscores, e.g. `lambda = 0.05`, `pairs = 0.001,0.1;0.1,0.1`.
Exit codes: 0 success, 1 usage error, 2 numerical tolerance breach,
3 Fock cutoff ceiling.
"""

import argparse
import math
import sys

from . import audit, figures, serialize
from .fock import ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_CUTOFF = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def parse_config_file(path):
    """Flat key = value settings; '#' starts a comment, blank lines ignored, keys unique."""
    settings, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is already set "
                                 f"on line {lines[key]}")
            settings[key], lines[key] = value, lineno
    return settings


def parse_pairs(text):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        values = chunk.split(",")
        if len(values) != 2:
            raise argparse.ArgumentTypeError(f"pair {chunk!r} is not of the form lambda,epsilon")
        pairs.append((float(values[0]), float(values[1])))
    return _nonempty(tuple(pairs))


def parse_floats(text):
    return _nonempty(tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip()))


def parse_ints(text):
    return _nonempty(tuple(int(v) for v in text.replace(";", ",").split(",") if v.strip()))


def _nonempty(values):
    """A list setting must name at least one value: an empty one would give no data columns."""
    if not values:
        raise argparse.ArgumentTypeError("must list at least one value")
    return values


def count(text):
    """An integer >= 1 (grid points, trials, segments, draws)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive(text):
    """A finite real number > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


def one_of(*choices):
    def parse(text):
        if text not in choices:
            raise argparse.ArgumentTypeError(f"must be one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


# setting key -> (parser of its text, help)
KEYS = {
    "out": (str, "output path (default stdout)"),
    "format": (one_of("csv", "json"), "output format (default csv)"),
    "omega": (float, "mode frequency"),
    "lambda": (float, "cavity-cavity hopping strength"),
    "n_initial": (int, "photon number N of the initial |N,0>"),
    "t_max_scaled": (positive, "end time in units of pi/lambda"),
    "points": (count, "time grid points"),
    "pairs": (parse_pairs, "semicolon-separated lambda,epsilon pairs"),
    "lambdas": (parse_floats, "comma-separated hopping strengths"),
    "n_values": (parse_ints, "comma-separated initial photon numbers"),
    "eps_max": (float, "largest pump strength of the scan"),
    "eps_points": (count, "pump strengths in the scan"),
    "window_scaled": (positive, "maximisation window in units of pi/lambda"),
    "mean_epsilon": (float, "mean pump amplitude"),
    "trials": (count, "ensemble trials"),
    "segments": (count, "piecewise-constant pump segments per trial"),
    "seed": (int, "master seed"),
    "spread": (one_of("variance", "std"), "pump noise reading of 'one tenth of the mean'"),
    "draws": (count, "random propagator draws"),
    "convergence_tol": (positive, "Fock cutoff convergence tolerance"),
}

# subcommand -> ((module, name) of its function, looked up when called,
# {setting key: its keyword argument}).  `out` and `format` map to None:
# the CLI itself uses them to write the result.
_OUTPUT = {"out": None, "format": None}
_MODEL = {"omega": "omega", "n_initial": "n_initial"}
_TRACE = {"t_max_scaled": "t_max_scaled", "points": "points"}
_SCAN = {"eps_max": "eps_max", "eps_points": "eps_points", "points": "points",
         "window_scaled": "window_scaled"}
COMMANDS = {
    "fig1": ((figures, "fig1"), {**_OUTPUT, "omega": "omega", "lambda": "lam", **_TRACE,
                                 "n_values": "n_values"}),
    "fig2": ((figures, "fig2"), {**_OUTPUT, **_MODEL, "lambda": "lam", **_TRACE}),
    "fig3": ((figures, "fig3"), {**_OUTPUT, **_MODEL, "pairs": "pairs", **_TRACE}),
    "fig4": ((figures, "fig4"), {**_OUTPUT, **_MODEL, "pairs": "pairs", **_TRACE}),
    "fig5": ((figures, "fig5"), {**_OUTPUT, **_MODEL, "lambdas": "lambdas", **_SCAN}),
    "sweep": ((figures, "sweep"), {**_OUTPUT, **_MODEL, "lambda": "lam", **_SCAN}),
    "fig6": ((figures, "fig6"), {**_OUTPUT, **_MODEL, "lambdas": "lambdas",
                                 "mean_epsilon": "mean_epsilon", "trials": "n_trials",
                                 "segments": "n_segments", "t_max_scaled": "total_scaled_time",
                                 "seed": "master_seed", "spread": "spread"}),
    "oracle-check": ((audit, "oracle_check"), {"out": None, **_MODEL, "seed": "seed",
                                               "draws": "n_random_draws",
                                               "convergence_tol": "convergence_tol"}),
}
REQUIRED = {"sweep": ("lambda",)}


def build_parser():
    parser = _Parser(prog="cavityent",
                     description="coupled-cavity entanglement dynamics toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, keys) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # --lambda must not abbreviate --lambdas
        p.add_argument("--config", help="key = value settings file")
        for key in keys:
            parse, help_text = KEYS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=help_text)
    return parser


def _resolve(args):
    """Merge config file and flags into one settings dict for args.subcommand."""
    keys = COMMANDS[args.subcommand][1]
    settings = {}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in keys:
                raise ValueError(f"{args.subcommand} does not take config key {key!r}")
            try:
                settings[key] = KEYS[key][0](raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    flags = vars(args)
    settings.update({key: flags[key] for key in keys if flags[key] is not None})
    for key in REQUIRED.get(args.subcommand, ()):
        if key not in settings:
            raise ValueError(f"{args.subcommand} requires --{key.replace('_', '-')}")
    return settings


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        settings = _resolve(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    (module, function), keys = COMMANDS[args.subcommand]
    kwargs = {keys[key]: value for key, value in settings.items() if keys[key]}
    out = settings.get("out")
    try:
        result = getattr(module, function)(**kwargs)
        if args.subcommand == "oracle-check":
            report, ok = result
            serialize.write_report(report, out)
            return EXIT_OK if ok else EXIT_TOLERANCE
        columns, meta = result
        serialize.write_table(columns, meta, out, settings.get("format", "csv"))
        return EXIT_OK
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CUTOFF
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
