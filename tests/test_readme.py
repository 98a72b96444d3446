"""README.md's ```python blocks, run in order in one namespace.

Run as a script, `python -W error::RuntimeWarning tests/test_readme.py`, it
needs only the package's runtime dependency, numpy.
"""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """Each ```python block of text, after newlines that keep its README line numbers."""
    return ["\n" * text.count("\n", 0, m.start(1)) + m.group(1)
            for m in re.finditer(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)]


def run_blocks():
    namespace = {"__name__": "readme"}
    for block in python_blocks(README.read_text(encoding="utf-8")):
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_python_blocks_run_in_order():
    assert len(python_blocks(README.read_text(encoding="utf-8"))) >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_blocks()


if __name__ == "__main__":
    run_blocks()
