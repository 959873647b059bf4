"""The process-parallel experiment driver.

Contracts under test: leg results are identical whether legs run inline
or in worker processes; a shared store makes warm reruns replay recorded
cold-run counts; failures surface as attributed ``ExperimentError``s;
malformed suites fail in the parent before any worker spawns.
"""

import functools
import pathlib
import time

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.driver import (ExperimentLeg, expand_legs,
                                      map_parallel, run_suite)

SMALL = dict(tester="gtest", n_train=150, n_test=60)


def small_legs():
    return expand_legs(["german", "compas"],
                       algorithms=["grpsel", "seqsel"], **SMALL)


def outcome_key(outcome):
    return (outcome.leg.label, outcome.selection.n_ci_tests,
            sorted(outcome.selection.selected_set),
            outcome.report.accuracy)


class TestRunSuite:
    def test_parallel_matches_inline(self, tmp_path):
        legs = small_legs()
        inline = run_suite(legs, jobs=1)
        parallel = run_suite(legs, jobs=2)
        assert [outcome_key(o) for o in inline.outcomes] == \
               [outcome_key(o) for o in parallel.outcomes]
        assert parallel.jobs == 2

    def test_warm_store_replays_cold_counts(self, tmp_path):
        legs = small_legs()
        cold = run_suite(legs, store=tmp_path / "suite", jobs=2)
        warm = run_suite(legs, store=tmp_path / "suite", jobs=1)
        assert [outcome_key(o) for o in warm.outcomes] == \
               [outcome_key(o) for o in cold.outcomes]
        # The recorded cold-run counts are non-trivial — the warm rerun
        # *reported* them without executing (selection memo hits).
        assert all(o.selection.n_ci_tests > 0 for o in warm.outcomes)

    def test_default_runs_inline_without_a_pool(self, monkeypatch):
        """Leg workers are never guessed: without ``jobs`` the suite runs
        every leg in the caller's process, whatever the CPU count."""
        def no_pool(*args, **kwargs):
            raise AssertionError("run_suite built a process pool")

        monkeypatch.setattr("repro.experiments.driver.ProcessPoolExecutor",
                            no_pool)
        result = run_suite(small_legs()[:2])
        assert result.jobs == 1
        assert len(result.outcomes) == 2

    def test_jobs_records_the_workers_that_ran(self):
        """Regression: ``jobs`` echoed the request, so one leg at
        ``jobs=4`` reported 4 workers although it ran inline."""
        assert run_suite(small_legs()[:1], jobs=4).jobs == 1
        assert run_suite(small_legs()[:2], jobs=8).jobs == 2

    def test_table_rows_align_with_legs(self):
        result = run_suite(small_legs()[:2], jobs=1)
        rows = result.table()
        assert [row["dataset"] for row in rows] == ["german", "german"]
        assert {row["algorithm"] for row in rows} == {"GrpSel", "SeqSel"}
        assert all(row["n_ci_tests"] > 0 for row in rows)

    def test_classifier_sweep(self):
        legs = expand_legs(["german"], algorithms=["grpsel"],
                           classifiers=["logistic", "tree"], **SMALL)
        result = run_suite(legs, jobs=1)
        # Same selection (classifier is downstream of it), distinct models.
        first, second = result.outcomes
        assert first.selection.selected_set == second.selection.selected_set
        assert first.leg.classifier != second.leg.classifier

    def test_empty_suite_rejected(self):
        with pytest.raises(ExperimentError, match="at least one leg"):
            run_suite([])

    def test_duplicate_legs_rejected(self):
        leg = ExperimentLeg(dataset="german", **SMALL)
        with pytest.raises(ExperimentError, match="duplicate"):
            run_suite([leg, leg])

    def test_seed_sweep_is_not_a_duplicate(self):
        """Legs differing only in seed (or any other spec field) are
        distinct work — a seed sweep must run, not be rejected."""
        legs = [ExperimentLeg(dataset="german", seed=seed, **SMALL)
                for seed in (0, 1)]
        result = run_suite(legs, jobs=1)
        assert [o.leg.seed for o in result.outcomes] == [0, 1]

    def test_unknown_names_fail_in_the_parent(self):
        with pytest.raises(ExperimentError, match="unknown dataset"):
            run_suite([ExperimentLeg(dataset="nope")])
        with pytest.raises(ExperimentError, match="unknown algorithm"):
            run_suite([ExperimentLeg(dataset="german", algorithm="nope")])
        with pytest.raises(ValueError, match="unknown classifier"):
            run_suite([ExperimentLeg(dataset="german", classifier="nope")])
        with pytest.raises(ValueError, match="unknown tester"):
            run_suite([ExperimentLeg(dataset="german", tester="nope")])
        with pytest.raises(ValueError, match="unknown subset strategy"):
            run_suite([ExperimentLeg(dataset="german", subsets="nope")])

    def test_worker_failure_names_the_leg(self, tmp_path):
        # n_train=3 survives validation but dies inside the leg (too few
        # samples for a CI test) — the error must name the leg, even
        # across a process boundary.
        legs = [ExperimentLeg(dataset="german", tester="gtest", n_train=3,
                              n_test=4)]
        with pytest.raises(ExperimentError, match="german/grpsel/logistic"):
            run_suite(legs, jobs=1)
        with pytest.raises(ExperimentError, match="german/grpsel/logistic"):
            run_suite(legs + [ExperimentLeg(dataset="compas",
                                            tester="gtest", n_train=3,
                                            n_test=4)],
                      jobs=2)


def _mark_and_maybe_fail(item, marker_dir):
    """Worker-side probe: record execution, blow up on item 0."""
    (pathlib.Path(marker_dir) / f"{item}.ran").write_text("")
    if item == 0:
        raise RuntimeError("item zero exploded")
    time.sleep(0.4)
    return item


class TestMapParallel:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ExperimentError, match="jobs must be >= 1"):
            map_parallel(str, [1, 2], jobs=0)

    def test_inline_for_single_item(self):
        assert map_parallel(str, [7], jobs=4) == ["7"]

    def test_first_failure_cancels_queued_items(self, tmp_path):
        """The first worker failure must not grind through every later
        item: still-queued futures are cancelled, only in-flight ones
        finish.  Item 0 fails immediately, so of 8 items at most the
        few already dispatched to the 2 workers ever execute."""
        fn = functools.partial(_mark_and_maybe_fail,
                               marker_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="item zero exploded"):
            map_parallel(fn, list(range(8)), jobs=2)
        ran = {int(p.stem) for p in tmp_path.glob("*.ran")}
        assert 0 in ran
        assert len(ran) <= 4, f"queued items ran after the failure: {ran}"

