"""CI-test-count experiments (Table 2 right, Figures 4 and 5).

Counts are each selector's ``n_ci_tests`` on the d-separation oracle, so
they reflect pure algorithmic cost — exactly the quantity the paper's
complexity analysis predicts:
``O(2^|A| n)`` for SeqSel vs ``O(2^|A| k log n)`` for GrpSel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ci.executor import BatchExecutor
from repro.ci.oracle import OracleCI
from repro.core.grpsel import GrpSel
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.synthetic import planted_bias_problem
from repro.rng import SeedLike


@dataclass
class CountPoint:
    """Test counts for one synthetic configuration."""

    n_features: int
    n_biased: int
    seqsel_tests: int
    grpsel_tests: int

    @property
    def p_percent(self) -> float:
        """Biased fraction as a percentage (Figure 4's x-axis)."""
        return 100.0 * self.n_biased / self.n_features


def count_tests(n_features: int, n_biased: int, seed: SeedLike = 0,
                executor: BatchExecutor | None = None) -> CountPoint:
    """Run SeqSel and GrpSel with an oracle tester and count CI tests.

    ``executor`` runs the selectors' oracle queries (counts are
    executor-invariant by the engine's contract).
    """
    planted = planted_bias_problem(n_features, n_biased, n_samples=0, seed=seed)
    oracle = OracleCI(planted.scm.dag)
    strategy = MarginalThenFull()

    seq = SeqSel(tester=oracle, subset_strategy=strategy,
                 executor=executor).select(planted.problem)
    grp = GrpSel(tester=oracle, subset_strategy=strategy,
                 seed=seed, executor=executor).select(planted.problem)

    return CountPoint(
        n_features=n_features,
        n_biased=n_biased,
        seqsel_tests=seq.n_ci_tests,
        grpsel_tests=grp.n_ci_tests,
    )


@dataclass
class CountSweep:
    """A parameter sweep of :class:`CountPoint` rows."""

    label: str
    points: list[CountPoint] = field(default_factory=list)

    def series(self, x_attr: str) -> tuple[list[float], list[int], list[int]]:
        """``(x, seqsel, grpsel)`` aligned series for plotting/printing."""
        xs = [getattr(p, x_attr) for p in self.points]
        return (xs, [p.seqsel_tests for p in self.points],
                [p.grpsel_tests for p in self.points])


def sweep_bias_fraction(n_features: int, percentages: list[int],
                        seed: SeedLike = 0,
                        executor: BatchExecutor | None = None) -> CountSweep:
    """Figure 4: tests vs % biased features at fixed n."""
    sweep = CountSweep(label=f"n={n_features}")
    for pct in percentages:
        n_biased = max(1, int(round(pct / 100.0 * n_features)))
        sweep.points.append(count_tests(n_features, n_biased, seed=seed,
                                        executor=executor))
    return sweep


def sweep_feature_count(n_features_list: list[int], n_biased: int,
                        seed: SeedLike = 0,
                        executor: BatchExecutor | None = None) -> CountSweep:
    """Figure 5: tests vs n at fixed number of biased features."""
    sweep = CountSweep(label=f"k={n_biased}")
    for n_features in n_features_list:
        sweep.points.append(count_tests(n_features, n_biased, seed=seed,
                                        executor=executor))
    return sweep
