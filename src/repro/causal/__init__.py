"""Causal substrate: DAGs, d-separation, SCMs, graph discovery."""

from repro.causal.dag import CausalDAG
from repro.causal.dsep import active_reachable, d_connected, d_separated
from repro.causal.scm import InterventionedSCM, StructuralCausalModel
from repro.causal.identification import find_backdoor_set, is_backdoor_set
from repro.causal.random_graphs import (
    FairnessGraphSpec,
    FairnessGround,
    fairness_scm,
    random_dag,
    random_linear_scm,
)

__all__ = [
    "CausalDAG",
    "active_reachable",
    "d_connected",
    "d_separated",
    "InterventionedSCM",
    "StructuralCausalModel",
    "find_backdoor_set",
    "is_backdoor_set",
    "FairnessGraphSpec",
    "FairnessGround",
    "fairness_scm",
    "random_dag",
    "random_linear_scm",
]
