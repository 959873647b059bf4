"""The package imports and runs on numpy and scipy alone.

A child interpreter in which ``import networkx`` fails imports every
module of the package and runs an oracle SeqSel, so no module may reach
for networkx, even lazily on the oracle path.
"""

import os
import subprocess
import sys

import repro

CHILD = """
import sys
sys.modules["networkx"] = None  # every later `import networkx` fails

import importlib
import pkgutil

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)

from repro.ci.oracle import OracleCI
from repro.core.seqsel import SeqSel
from repro.data.synthetic import planted_bias_problem

planted = planted_bias_problem(40, 4, seed=0)
result = SeqSel(tester=OracleCI(planted.scm.dag)).select(planted.problem)
assert not set(result.selected) & set(planted.ground.biased)
print(result.n_ci_tests)
"""


def test_package_imports_and_runs_without_networkx():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0
