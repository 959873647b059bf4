"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Subset-search strategy** (phase 1's ``∃A' ⊆ A``): exhaustive search is
   exact but 2^|A|; the greedy and marginal+full strategies trade recall on
   collider cases (Figure 1(c)) for test count.
2. **GrpSel shuffling**: the random partition protects against adversarial
   orderings where biased features spread across groups.
3. **Ledger caching**: memoising repeated CI queries trims SeqSel's phase-1
   cost when many features share a separating set.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.causal.dag import CausalDAG
from repro.ci.base import CITestLedger
from repro.ci.oracle import OracleCI
from repro.core.grpsel import GrpSel
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.seqsel import SeqSel
from repro.core.subset_search import (
    ExhaustiveSubsets,
    FullSetOnly,
    GreedySubsets,
    MarginalThenFull,
)
from repro.data.schema import Role
from repro.data.table import Table
from repro.experiments.figures import render_table


def collider_heavy_problem(n_colliders: int = 6):
    """Many Figure-1(c) patterns: X_i ⊥ S | A_i for *strict* subsets only.

    Conditioning on the full admissible set opens S -> A_other <- ...
    collider paths... here simply: each X_i is a child of A_i alone, and
    each A_i is S's child, so X_i ⊥ S | {A_i} but X_i ̸⊥ S | {} — and the
    full-set test also works.  To defeat the full set we add a collider
    C_i: X_i -> C_i <- S with C_i inside the admissible set, so
    conditioning on ALL admissibles (including C_i) unblocks X_i -- S.
    """
    edges = []
    nodes = ["S", "Y"]
    candidates = []
    admissible = []
    for i in range(n_colliders):
        a, c, x = f"A{i}", f"C{i}", f"X{i}"
        nodes += [a, c, x]
        admissible += [a, c]
        candidates.append(x)
        edges += [("S", a), (a, x), (x, c), ("S", c), (a, "Y")]
    dag = CausalDAG(nodes=nodes, edges=edges)
    table = Table(
        {n: np.zeros(2) for n in nodes},
        roles={"S": Role.SENSITIVE, "Y": Role.TARGET,
               **{a: Role.ADMISSIBLE for a in admissible},
               **{x: Role.CANDIDATE for x in candidates}},
    )
    return dag, FairFeatureSelectionProblem.from_table(table), candidates


def test_subset_strategy_ablation(benchmark):
    """Exhaustive finds collider-blocked features; cheap strategies miss them."""
    dag, problem, candidates = collider_heavy_problem(4)

    def run():
        rows = []
        for strategy in (ExhaustiveSubsets(), GreedySubsets(),
                         MarginalThenFull(), FullSetOnly()):
            result = SeqSel(tester=OracleCI(dag), subset_strategy=strategy
                            ).select(problem)
            rows.append({
                "strategy": strategy.name,
                "phase1 recall": f"{len(result.c1)}/{len(candidates)}",
                "ci tests": result.n_ci_tests,
            })
        return rows

    rows = run_once(benchmark, run)
    print()
    print(render_table(rows, title="Subset-search strategy ablation"))
    by_name = {r["strategy"]: r for r in rows}
    # Exhaustive and greedy find every collider-blocked feature.
    assert by_name["exhaustive"]["phase1 recall"] == "4/4"
    assert by_name["greedy"]["phase1 recall"] == "4/4"
    # Full-set-only is blind to them (conditioning on C_i opens the path).
    assert by_name["full-set"]["phase1 recall"] == "0/4"
    # Worst-case bounds: greedy is linear in |A| where exhaustive is 2^|A|.
    # (Observed counts can favour exhaustive here because its smallest-first
    # order hits the singleton separating sets immediately.)
    n_admissible = 8
    assert GreedySubsets().max_tests(n_admissible) == 18
    assert ExhaustiveSubsets().max_tests(n_admissible) == 256


def test_grpsel_shuffle_ablation(benchmark):
    """Shuffling bounds the damage of adversarially clustered biased features."""
    from repro.causal.random_graphs import FairnessGraphSpec, fairness_scm

    spec = FairnessGraphSpec(n_features=256, n_biased=8, seed=0)
    scm, _ = fairness_scm(spec)
    table = scm.sample(4, seed=0)
    problem = FairFeatureSelectionProblem.from_table(table)
    strategy = MarginalThenFull()

    def run():
        counts = {}
        for shuffle in (True, False):
            result = GrpSel(tester=OracleCI(scm.dag),
                            subset_strategy=strategy, shuffle=shuffle,
                            seed=1).select(problem)
            counts["shuffled" if shuffle else "ordered"] = result.n_ci_tests
        return counts

    counts = run_once(benchmark, run)
    print(f"\nGrpSel CI tests: {counts}")
    # Both shuffle settings stay far below SeqSel's ~2n = 512 tests.
    assert counts["shuffled"] < 300
    assert counts["ordered"] < 300


def test_ledger_cache_ablation(benchmark):
    """Query memoisation removes duplicate work across repeated queries."""
    dag, problem, _ = collider_heavy_problem(4)

    def run():
        uncached = CITestLedger(OracleCI(dag))
        selector = SeqSel(tester=uncached, subset_strategy=ExhaustiveSubsets())
        selector.select(problem)
        selector.select(problem)  # run twice: duplicate queries
        cached = CITestLedger(OracleCI(dag), cache=True)
        selector = SeqSel(tester=cached, subset_strategy=ExhaustiveSubsets())
        selector.select(problem)
        selector.select(problem)
        return uncached.n_tests, cached.n_tests

    uncached, cached = run_once(benchmark, run)
    print(f"\nuncached tests: {uncached}, cached tests: {cached}")
    assert cached == uncached // 2
