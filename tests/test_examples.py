"""The example scripts run to completion.

Each example is a user-facing entry point into the package, so each one
runs in a fresh interpreter, as a user would run it, and must exit with
status 0.  ``paper_figures.py`` regenerates every figure and takes
minutes, so it is left out.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name", ["quickstart", "causal_analysis",
                                  "data_integration", "synthetic_audit"])
def test_example_exits_cleanly(name, tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(EXAMPLES / f"{name}.py")],
                         capture_output=True, text=True, env=env,
                         cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
