"""Start-up cost: importing the package loads only what its call path uses.

Each check runs in a fresh interpreter and compares ``sys.modules`` with
the modules loaded by ``import numpy`` alone, so a site hook that loads one
of these modules on its own does not fail the check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# loaded by xml.sax.saxutils (urllib.request, http.client, email, ssl,
# socket), by concurrent.futures (logging), and by the process pool of a
# sweep with jobs above 1 (multiprocessing); neither the import nor a
# serial sweep needs them
UNWANTED = (
    "xml.sax",
    "urllib.request",
    "http.client",
    "email",
    "ssl",
    "socket",
    "concurrent.futures",
    "logging",
    "multiprocessing",
)

CHILD = """
import json, sys
import numpy
before = set(sys.modules)
import hetero_spectra, hetero_spectra.cli
{body}
unwanted = {unwanted!r}
added = set(sys.modules) - before
print(json.dumps(sorted(
    m for m in added if any(m == u or m.startswith(u + ".") for u in unwanted)
)))
"""

SERIAL_SWEEP = """
from hetero_spectra import ExperimentConfig, run_experiment
config = ExperimentConfig(
    n=20, p=8, r=2, vary_param="omega", vary_values=(1.0,), methods=("svd", "rmtfa"),
    replicates=2, seed=5,
)
assert len(run_experiment(config, jobs=1)) == 4
"""


def _unwanted_loaded(body):
    code = CHILD.format(body=body, unwanted=UNWANTED)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("body", ["", SERIAL_SWEEP], ids=["import", "serial-sweep"])
def test_package_loads_no_unused_stdlib_modules(body):
    assert _unwanted_loaded(body) == []
