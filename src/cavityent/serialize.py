"""CSV/JSON output for figure tables and audit reports."""

import json
import sys

import numpy as np


def csv_text(columns):
    """Header and one row per index, every cell as %.12g (format(float(x), ".12g")).

    A NaN or infinite cell is refused with a ValueError naming its column,
    as json_text refuses one.
    """
    table = np.column_stack([np.asarray(v, dtype=float) for v in columns.values()])
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"column {list(columns)[col]!r} holds {table[row, col]} at row {row}; "
                         "CSV output refuses NaN and infinite values")
    rows = table.tolist()
    template = ",".join(["%.12g"] * len(columns))
    return "\n".join([",".join(columns), *(template % tuple(row) for row in rows)]) + "\n"


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
