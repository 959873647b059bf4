"""Random causal-graph and fairness-graph generators.

The paper's synthetic experiments (§5.3, Figures 4-5) use datasets generated
from causal graphs of 1000-5000 nodes where a controlled fraction ``p`` of
candidate features is *biased* (descendants of the sensitive attribute whose
paths are not blocked by the admissible set).  :func:`fairness_scm` builds
exactly that: a layered SCM with one sensitive root, a configurable
admissible layer, planted biased proxies, planted fair features, and a target
driven by admissible + fair features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.causal.mechanisms import (
    BernoulliRoot,
    GaussianRoot,
    LinearGaussian,
    LogisticBinary,
    Mechanism,
    NoisyCopy,
)
from repro.causal.scm import StructuralCausalModel
from repro.data.schema import Role
from repro.exceptions import GraphError
from repro.rng import SeedLike, as_generator


@dataclass
class FairnessGraphSpec:
    """Configuration for :func:`fairness_scm`.

    ``n_features`` candidate features split into ``n_biased`` biased proxies
    (unblocked descendants of S), ``n_null`` pure-noise features (independent
    of everything: the C1 features found by phase 1's marginal test), and the
    remainder "mediated" features whose S-dependence flows only through the
    admissible set (C1 features needing the conditional test).  A fraction
    ``redundant_fraction`` of the biased features is made conditionally
    irrelevant to Y (the C2 features of phase 2).
    """

    n_features: int = 20
    n_biased: int = 5
    n_null: int | None = None
    n_admissible: int = 1
    redundant_fraction: float = 0.0
    signal: float = 2.0
    noise_std: float = 1.0
    proxy_flip: float = 0.05
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.n_biased > self.n_features:
            raise GraphError("n_biased cannot exceed n_features")
        if self.n_null is None:
            self.n_null = max(0, (self.n_features - self.n_biased) // 2)
        if self.n_biased + self.n_null > self.n_features:
            raise GraphError("n_biased + n_null cannot exceed n_features")
        if not 0.0 <= self.redundant_fraction <= 1.0:
            raise GraphError("redundant_fraction must be in [0, 1]")
        if self.n_admissible < 1:
            raise GraphError("need at least one admissible variable")


@dataclass
class FairnessGround:
    """Ground truth labels for a generated fairness SCM."""

    biased: list[str] = field(default_factory=list)       # unsafe features
    mediated: list[str] = field(default_factory=list)     # safe via X ⊥ S | A
    null: list[str] = field(default_factory=list)         # safe via X ⊥ S
    redundant: list[str] = field(default_factory=list)    # safe via X ⊥ Y | A,C1

    @property
    def safe(self) -> set[str]:
        """All features a sound selector should admit."""
        return set(self.mediated) | set(self.null) | set(self.redundant)


def fairness_scm(spec: FairnessGraphSpec) -> tuple[StructuralCausalModel, FairnessGround]:
    """Build a layered fairness SCM with planted ground truth.

    Structure (for one sensitive root ``S`` and admissibles ``A_j``):

    * ``S -> A_j`` for every admissible,
    * biased feature ``B_i``: noisy copy of ``S`` (unblocked path, unsafe),
    * mediated feature ``M_i``: linear child of admissibles only
      (``S -> A -> M``: blocked given A, safe),
    * null feature ``N_i``: independent Gaussian root (safe),
    * redundant biased feature ``R_i``: noisy copy of S that does **not**
      feed ``Y`` (safe via phase 2),
    * ``Y``: logistic in admissibles + mediated + (non-redundant) biased —
      biased features do feed Y, so dropping them is a real fairness/accuracy
      trade-off, as in the paper's motivation.
    """
    rng = as_generator(spec.seed)
    mechanisms: dict[str, Mechanism] = {"S": BernoulliRoot(0.5)}
    roles: dict[str, Role] = {"S": Role.SENSITIVE}
    ground = FairnessGround()

    admissibles = [f"A{j}" for j in range(spec.n_admissible)]
    for name in admissibles:
        mechanisms[name] = LogisticBinary(["S"], [spec.signal], intercept=-spec.signal / 2)
        roles[name] = Role.ADMISSIBLE

    n_redundant = int(round(spec.redundant_fraction * spec.n_biased))
    n_hard_biased = spec.n_biased - n_redundant
    n_mediated = spec.n_features - spec.n_biased - spec.n_null

    for i in range(n_hard_biased):
        name = f"B{i}"
        mechanisms[name] = NoisyCopy("S", flip=spec.proxy_flip)
        roles[name] = Role.CANDIDATE
        ground.biased.append(name)

    if n_redundant:
        # C2 (phase-2) features need *all* their paths to Y blocked by the
        # admissible set: a proxy of the primary S cannot qualify whenever a
        # hard-biased sibling feeds Y (the path R <- S -> B -> Y stays
        # open).  We therefore plant them on a second sensitive root whose
        # only influence on Y is mediated by its own admissible child.
        mechanisms["S2"] = BernoulliRoot(0.5)
        roles["S2"] = Role.SENSITIVE
        mechanisms["A_r"] = LogisticBinary(["S2"], [spec.signal],
                                           intercept=-spec.signal / 2)
        roles["A_r"] = Role.ADMISSIBLE
        admissibles.append("A_r")
    for i in range(n_redundant):
        name = f"R{i}"
        mechanisms[name] = NoisyCopy("S2", flip=spec.proxy_flip)
        roles[name] = Role.CANDIDATE
        ground.redundant.append(name)

    for i in range(n_mediated):
        name = f"M{i}"
        weights = rng.normal(spec.signal, 0.25, size=len(admissibles))
        mechanisms[name] = LinearGaussian(admissibles, weights.tolist(),
                                          noise_std=spec.noise_std)
        roles[name] = Role.CANDIDATE
        ground.mediated.append(name)

    for i in range(spec.n_null):
        name = f"N{i}"
        mechanisms[name] = GaussianRoot(0.0, 1.0)
        roles[name] = Role.CANDIDATE
        ground.null.append(name)

    y_parents = admissibles + ground.mediated + ground.biased + ground.null
    null, biased = set(ground.null), set(ground.biased)
    y_weights = []
    for parent in y_parents:
        if parent in null:
            y_weights.append(float(rng.normal(spec.signal / 2, 0.1)))
        elif parent in biased:
            y_weights.append(float(rng.normal(spec.signal, 0.1)))
        else:
            y_weights.append(float(rng.normal(spec.signal / 2, 0.1)))
    mechanisms["Y"] = LogisticBinary(y_parents, y_weights,
                                     intercept=-float(np.sum(y_weights)) / 2)
    roles["Y"] = Role.TARGET

    return StructuralCausalModel(mechanisms, roles=roles), ground


def random_dag(n_nodes: int, edge_probability: float = 0.2,
               seed: SeedLike = None) -> list[tuple[str, str]]:
    """Erdős–Rényi style random DAG edge list over ``v0..v{n-1}``.

    Edges only go from lower to higher index, guaranteeing acyclicity.
    """
    if n_nodes < 1:
        raise GraphError(f"need at least one node, got {n_nodes}")
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError("edge_probability must be in [0, 1]")
    rng = as_generator(seed)
    names = [f"v{i}" for i in range(n_nodes)]
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < edge_probability
    ]
    return edges


def random_linear_scm(n_nodes: int, edge_probability: float = 0.2,
                      noise_std: float = 1.0, weight_scale: float = 1.0,
                      seed: SeedLike = None) -> StructuralCausalModel:
    """Random linear-Gaussian SCM on a random DAG (for PC-algorithm tests)."""
    rng = as_generator(seed)
    edges = random_dag(n_nodes, edge_probability, seed=rng)
    parents: dict[str, list[str]] = {f"v{i}": [] for i in range(n_nodes)}
    for u, v in edges:
        parents[v].append(u)
    mechanisms: dict[str, Mechanism] = {}
    for node, pars in parents.items():
        if not pars:
            mechanisms[node] = GaussianRoot(0.0, noise_std)
        else:
            weights = rng.uniform(0.5, 1.5, size=len(pars)) * weight_scale
            signs = rng.choice([-1.0, 1.0], size=len(pars))
            mechanisms[node] = LinearGaussian(pars, (weights * signs).tolist(),
                                              noise_std=noise_std)
    return StructuralCausalModel(mechanisms)
