"""CSV/JSON output for figure tables and audit reports."""

import json
import sys


def format_value(x):
    return f"{float(x):.12g}"


def csv_text(columns):
    names = list(columns)
    length = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(length):
        lines.append(",".join(format_value(columns[name][i]) for name in names))
    return "\n".join(lines) + "\n"


def json_text(columns, meta):
    payload = {
        "config": meta,
        "columns": {name: [float(v) for v in values] for name, values in columns.items()},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_table(columns, meta, out=None, fmt="csv"):
    if fmt == "csv":
        text = csv_text(columns)
    elif fmt == "json":
        text = json_text(columns, meta)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    _write(text, out)


def write_report(report, out=None):
    _write(json.dumps(report, indent=2, allow_nan=False) + "\n", out)


def _write(text, out):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
