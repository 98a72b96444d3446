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
