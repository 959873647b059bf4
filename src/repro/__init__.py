"""repro — Causal Feature Selection for Algorithmic Fairness.

Reproduction of Galhotra, Shanmugam, Sattigeri & Varshney, SIGMOD 2022
(arXiv:2006.06053).  The package implements the paper's two selection
algorithms (SeqSel, GrpSel), all evaluation baselines, and every substrate
they need — conditional-independence testing, structural causal models,
classifiers, fairness metrics, and dataset generators — from scratch on
numpy/scipy.

Quickstart::

    from repro import FairFeatureSelectionProblem, GrpSel
    from repro.data.loaders import load_german

    dataset = load_german(seed=0)
    problem = FairFeatureSelectionProblem.from_table(dataset.train)
    result = GrpSel().select(problem)
    print(result.selected)
"""

from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import SelectionResult
from repro.core.seqsel import SeqSel
from repro.core.grpsel import GrpSel
from repro.core.online import OnlineSelector

__version__ = "1.0.0"

__all__ = [
    "FairFeatureSelectionProblem",
    "SelectionResult",
    "SeqSel",
    "GrpSel",
    "OnlineSelector",
    "__version__",
]
