"""Experiment harnesses regenerating every table and figure of the paper."""

from repro.experiments.alpha_sweep import AlphaPoint, AlphaSweep, sweep_alpha
from repro.experiments.driver import (
    ExperimentLeg,
    LegOutcome,
    SuiteResult,
    expand_legs,
    map_parallel,
    run_suite,
)
from repro.experiments.harness import (
    CLASSIFIERS,
    MethodRun,
    classifier_by_name,
    default_classifier,
    run_method,
)
from repro.experiments.recovery import (
    RecoveryScore,
    recovery_at_size,
    recovery_sweep,
)
from repro.experiments.robustness import RobustnessResult, run_robustness, shift_scm
from repro.experiments.spuriousness import (
    SpuriousPoint,
    SpuriousSweep,
    spurious_counts,
    sweep_spuriousness,
)
from repro.experiments.table2 import Table2Row, expand_dataset, table2_row
from repro.experiments.test_counts import (
    CountPoint,
    CountSweep,
    count_tests,
    sweep_bias_fraction,
    sweep_feature_count,
)
from repro.experiments.timing import TimingSeries, figure3b, time_rcit
from repro.experiments.tradeoff import (
    TradeoffResult,
    default_method_suite,
    run_tradeoff,
)

__all__ = [
    "AlphaPoint",
    "AlphaSweep",
    "sweep_alpha",
    "ExperimentLeg",
    "LegOutcome",
    "SuiteResult",
    "expand_legs",
    "map_parallel",
    "run_suite",
    "CLASSIFIERS",
    "MethodRun",
    "classifier_by_name",
    "default_classifier",
    "run_method",
    "RecoveryScore",
    "recovery_at_size",
    "recovery_sweep",
    "RobustnessResult",
    "run_robustness",
    "shift_scm",
    "SpuriousPoint",
    "SpuriousSweep",
    "spurious_counts",
    "sweep_spuriousness",
    "Table2Row",
    "expand_dataset",
    "table2_row",
    "CountPoint",
    "CountSweep",
    "count_tests",
    "sweep_bias_fraction",
    "sweep_feature_count",
    "TimingSeries",
    "figure3b",
    "time_rcit",
    "TradeoffResult",
    "default_method_suite",
    "run_tradeoff",
]
