"""Fairness metrics: group (associational) and causal."""

from repro.fairness.causal_metrics import (
    conditional_mutual_information,
    interventional_unfairness,
    is_causally_fair,
)
from repro.fairness.group_metrics import (
    absolute_odds_difference,
    demographic_parity_difference,
    equal_opportunity_difference,
)
from repro.fairness.counterfactual import (
    counterfactual_table,
    counterfactual_unfairness,
)
from repro.fairness.report import FairnessReport, evaluate_classifier

__all__ = [
    "conditional_mutual_information",
    "interventional_unfairness",
    "is_causally_fair",
    "absolute_odds_difference",
    "demographic_parity_difference",
    "equal_opportunity_difference",
    "counterfactual_table",
    "counterfactual_unfairness",
    "FairnessReport",
    "evaluate_classifier",
]
