"""Tests for the persistent cross-run CI cache and its ledger wiring."""

import json

import numpy as np
import pytest

from repro.ci.base import CIQuery, CITestLedger
from repro.ci.gtest import GTestCI
from repro.ci.store import FORMAT_TAG, FORMAT_VERSION, PersistentCICache
from repro.data.table import Table


def make_table(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return Table({
        "s": rng.integers(0, 2, n),
        "y": rng.integers(0, 2, n),
        "a": rng.integers(0, 3, n),
        "f1": rng.integers(0, 3, n),
        "f2": rng.integers(0, 2, n),
    })


QUERIES = [CIQuery.make("f1", "y", ("a", "s")), CIQuery.make("f2", "y", ("a", "s")),
           CIQuery.make("f1", "s", ())]


class TestStoreRoundtrip:
    def test_save_and_reload(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PersistentCICache(path)
        store.put("fp", (("x",), ("y",), ()), "g-test", 0.01,
                  {"independent": True, "p_value": 0.5, "statistic": 1.25,
                   "method": "g-test"})
        store.save()
        reloaded = PersistentCICache(path)
        assert len(reloaded) == 1
        record = reloaded.get("fp", (("x",), ("y",), ()), "g-test", 0.01)
        assert record == {"independent": True, "p_value": 0.5,
                          "statistic": 1.25, "method": "g-test"}

    def test_get_returns_a_copy_not_the_live_record(self, tmp_path):
        """Mutating what ``get`` hands back must never rewrite the
        committed entry — harness code decorates returned records (run
        tags, labels), and an aliased dict would persist the decoration
        the next time a save writes that record."""
        path = tmp_path / "cache.json"
        original = {"independent": True, "p_value": 0.5,
                    "statistic": 1.25, "method": "g-test"}
        store = PersistentCICache(path)
        store.put("fp", (("x",), ("y",), ()), "g-test", 0.01, original)
        store.save()
        record = store.get("fp", (("x",), ("y",), ()), "g-test", 0.01)
        record["p_value"] = 999.0       # caller scribbles on its copy
        record["run_tag"] = "decorated"
        fresh = store.get("fp", (("x",), ("y",), ()), "g-test", 0.01)
        assert fresh == original
        store.save()  # even a later save persists the committed record
        reloaded = PersistentCICache(path)
        assert reloaded.get("fp", (("x",), ("y",), ()), "g-test",
                            0.01) == original

    def test_nan_statistic_roundtrips(self, tmp_path):
        path = tmp_path / "cache.json"
        with PersistentCICache(path) as store:
            store.put("fp", (("x",), ("y",), ()), "oracle", 0.01,
                      {"independent": False, "p_value": 0.0,
                       "statistic": float("nan"), "method": "oracle"})
        record = PersistentCICache(path).get("fp", (("x",), ("y",), ()),
                                             "oracle", 0.01)
        assert np.isnan(record["statistic"])

    def test_missing_file_starts_empty(self, tmp_path):
        store = PersistentCICache(tmp_path / "absent.json")
        assert len(store) == 0

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        assert len(PersistentCICache(path)) == 0

    def test_future_version_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": FORMAT_TAG,
                                    "version": FORMAT_VERSION + 1,
                                    "entries": {"k": {}}}))
        assert len(PersistentCICache(path)) == 0

    def test_save_noop_when_clean(self, tmp_path):
        path = tmp_path / "cache.json"
        PersistentCICache(path).save()
        assert not path.exists()

    def test_autosave_every(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PersistentCICache(path, autosave_every=2)
        record = {"independent": True, "p_value": 1.0, "statistic": 0.0,
                  "method": "m"}
        store.put("fp", (("a",), ("b",), ()), "m", 0.01, record)
        assert not path.exists()
        store.put("fp", (("a",), ("c",), ()), "m", 0.01, record)
        assert len(PersistentCICache(path)) == 2

    def test_keys_distinguish_method_and_alpha(self, tmp_path):
        store = PersistentCICache(tmp_path / "cache.json")
        record = {"independent": True, "p_value": 1.0, "statistic": 0.0,
                  "method": "m"}
        store.put("fp", (("a",), ("b",), ()), "g-test", 0.01, record)
        assert store.get("fp", (("a",), ("b",), ()), "chi2", 0.01) is None
        assert store.get("fp", (("a",), ("b",), ()), "g-test", 0.05) is None
        assert store.get("fp", (("a",), ("b",), ()), "g-test", 0.01) == record

    def test_keys_distinguish_cache_tokens(self, tmp_path):
        store = PersistentCICache(tmp_path / "cache.json")
        record = {"independent": True, "p_value": 1.0, "statistic": 0.0,
                  "method": "m"}
        token = (("min_expected", 0.0),)
        store.put("fp", (("a",), ("b",), ()), "g-test", 0.01, record,
                  token=token)
        other = (("min_expected", 5.0),)
        assert store.get("fp", (("a",), ("b",), ()), "g-test", 0.01,
                         token=other) is None
        assert store.get("fp", (("a",), ("b",), ()), "g-test", 0.01,
                         token=token) == record


class TestLedgerPersistence:
    def test_warm_rerun_executes_zero_tests(self, tmp_path):
        """The headline contract: a second run over identical data finds
        every verdict in the store — 0 executed tests, same results."""
        path = tmp_path / "cache.json"
        cold = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        first = cold.test_batch(make_table(), QUERIES)
        cold.flush_cache()
        assert cold.n_tests == len(QUERIES)

        warm = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        second = warm.test_batch(make_table(), QUERIES)
        assert warm.n_tests == 0
        assert warm.cache_hits == len(QUERIES)
        assert [r.p_value for r in first] == [r.p_value for r in second]
        assert [r.independent for r in first] == [r.independent for r in second]
        # Hits carry the live query and the stored method.
        assert [r.query for r in second] == QUERIES
        assert all(r.method == "g-test" for r in second)

    def test_early_exit_stream_hits_store_without_speculation(self, tmp_path):
        path = tmp_path / "cache.json"
        table = make_table()
        queries = [CIQuery.make("f1", "y", ("a",)), CIQuery.make("f2", "y", ("a",))]
        cold = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        cold_results = cold.test_batch(table, queries,
                                       stop_on_independent=True)
        cold.flush_cache()

        built = []

        def stream():
            for q in queries:
                built.append(q)
                yield q

        warm = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        warm_results = warm.test_batch(table, stream(),
                                       stop_on_independent=True)
        assert warm.n_tests == 0
        assert len(warm_results) == len(cold_results)
        # Laziness preserved: the stream is consumed only as far as the
        # cold early-exit run went.
        assert len(built) == len(cold_results)

    def test_different_data_never_hits(self, tmp_path):
        path = tmp_path / "cache.json"
        cold = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        cold.test(make_table(seed=0), "f1", "y")
        cold.flush_cache()
        warm = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        warm.test(make_table(seed=1), "f1", "y")
        assert warm.n_tests == 1
        assert warm.cache_hits == 0

    def test_different_alpha_never_hits(self, tmp_path):
        path = tmp_path / "cache.json"
        cold = CITestLedger(GTestCI(alpha=0.01), cache=PersistentCICache(path))
        cold.test(make_table(), "f1", "y")
        cold.flush_cache()
        warm = CITestLedger(GTestCI(alpha=0.05), cache=PersistentCICache(path))
        warm.test(make_table(), "f1", "y")
        assert warm.n_tests == 1 and warm.cache_hits == 0

    def test_different_hyperparameters_never_hit(self, tmp_path):
        """Regression: the key must carry the tester's configuration — a
        min_expected=5 run must not be served a min_expected=0 verdict,
        and a seed=99 RCIT must not be served seed=0's p-values."""
        from repro.ci.rcit import RCIT
        path = tmp_path / "cache.json"
        table = make_table()
        cold = CITestLedger(GTestCI(min_expected=0.0),
                            cache=PersistentCICache(path))
        cold.test(table, "f1", "y", ["a"])
        cold.flush_cache()
        guarded = CITestLedger(GTestCI(min_expected=5.0),
                               cache=PersistentCICache(path))
        guarded.test(table, "f1", "y", ["a"])
        assert guarded.n_tests == 1 and guarded.cache_hits == 0

        seeded = CITestLedger(RCIT(seed=0), cache=PersistentCICache(path))
        first = seeded.test(table, "f1", "y", ["a"])
        seeded.flush_cache()
        reseeded = CITestLedger(RCIT(seed=99), cache=PersistentCICache(path))
        second = reseeded.test(table, "f1", "y", ["a"])
        assert reseeded.n_tests == 1 and reseeded.cache_hits == 0
        assert first.p_value != second.p_value  # genuinely different draws
        # ... while the same configuration hits.
        again = CITestLedger(RCIT(seed=0), cache=PersistentCICache(path))
        again.test(table, "f1", "y", ["a"])
        assert again.n_tests == 0 and again.cache_hits == 1

    def test_save_creates_missing_parent_directory(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "cache.json"
        ledger = CITestLedger(GTestCI(), cache=PersistentCICache(path))
        ledger.test(make_table(), "f1", "y")
        ledger.flush_cache()
        assert len(PersistentCICache(path)) == 1

    def test_schema_kind_change_never_hits(self, tmp_path):
        """AdaptiveCI dispatches on column *kinds*; identical values
        annotated continuous must not be served a discrete-backend verdict
        (the kind participates in the table fingerprint)."""
        from repro.ci.adaptive import AdaptiveCI
        from repro.data.schema import Kind
        path = tmp_path / "cache.json"
        table = make_table()
        cold = CITestLedger(AdaptiveCI(seed=0), cache=PersistentCICache(path))
        discrete = cold.test(table, "f1", "y", ["a"])
        cold.flush_cache()
        assert discrete.method == "adaptive->g-test"

        relabelled = table.with_column("f1", table["f1"],
                                       kind=Kind.CONTINUOUS)
        warm = CITestLedger(AdaptiveCI(seed=0), cache=PersistentCICache(path))
        continuous = warm.test(relabelled, "f1", "y", ["a"])
        assert warm.n_tests == 1 and warm.cache_hits == 0
        assert continuous.method == "adaptive->rcit"

    def test_different_oracle_dags_never_hit(self, tmp_path):
        from repro.causal.dag import CausalDAG
        from repro.ci.oracle import OracleCI
        path = tmp_path / "cache.json"
        table = make_table()
        chain = CausalDAG(nodes=["f1", "y", "a", "s", "f2"],
                          edges=[("f1", "y")])
        split = CausalDAG(nodes=["f1", "y", "a", "s", "f2"], edges=[])
        cold = CITestLedger(OracleCI(chain), cache=PersistentCICache(path))
        dependent = cold.test(table, "f1", "y")
        cold.flush_cache()
        warm = CITestLedger(OracleCI(split), cache=PersistentCICache(path))
        independent = warm.test(table, "f1", "y")
        assert warm.n_tests == 1 and warm.cache_hits == 0
        assert not dependent.independent and independent.independent

    def test_path_argument_opens_store(self, tmp_path):
        path = tmp_path / "cache.json"
        ledger = CITestLedger(GTestCI(), cache=str(path))
        ledger.test(make_table(), "f1", "y")
        ledger.flush_cache()
        assert len(PersistentCICache(path)) == 1

    def test_reset_keeps_persistent_store(self, tmp_path):
        store = PersistentCICache(tmp_path / "cache.json")
        ledger = CITestLedger(GTestCI(), cache=store)
        ledger.test(make_table(), "f1", "y")
        ledger.reset()
        assert ledger.n_tests == 0
        ledger.test(make_table(), "f1", "y")
        assert ledger.n_tests == 0 and ledger.cache_hits == 1

    def test_plain_bool_cache_unchanged(self):
        ledger = CITestLedger(GTestCI(), cache=True)
        assert ledger.store is None
        table = make_table()
        ledger.test(table, "f1", "y")
        ledger.test(table, "f1", "y")
        assert ledger.n_tests == 1 and ledger.cache_hits == 1


class TestSelectorAndHarnessWiring:
    def _problem(self):
        from repro.core.problem import FairFeatureSelectionProblem
        rng = np.random.default_rng(0)
        n = 600
        s = rng.integers(0, 2, n)
        a = rng.integers(0, 3, n)
        table = Table({
            "s": s, "a": a,
            "y": (rng.random(n) < 0.4 + 0.2 * (a > 1)).astype(int),
            "f1": rng.integers(0, 3, n),
            "f2": np.where(rng.random(n) < 0.8, s, rng.integers(0, 2, n)),
            "f3": rng.integers(0, 2, n),
        })
        return FairFeatureSelectionProblem(
            table=table, sensitive=["s"], admissible=["a"], target="y",
            candidates=["f1", "f2", "f3"])

    def test_seqsel_warm_rerun_zero_tests(self, tmp_path):
        from repro.core.seqsel import SeqSel
        from repro.core.subset_search import MarginalThenFull
        path = tmp_path / "cache.json"
        problem = self._problem()
        cold = SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                      cache=PersistentCICache(path)).select(problem)
        assert cold.n_ci_tests > 0
        warm = SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                      cache=PersistentCICache(path)).select(problem)
        assert warm.n_ci_tests == 0
        assert warm.selected_set == cold.selected_set
        assert warm.c1 == cold.c1 and warm.c2 == cold.c2

    def test_grpsel_warm_rerun_zero_tests(self, tmp_path):
        from repro.core.grpsel import GrpSel
        from repro.core.subset_search import MarginalThenFull
        path = tmp_path / "cache.json"
        problem = self._problem()
        cold = GrpSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                      seed=0, cache=PersistentCICache(path)).select(problem)
        assert cold.n_ci_tests > 0
        warm = GrpSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                      seed=0, cache=PersistentCICache(path)).select(problem)
        assert warm.n_ci_tests == 0
        assert warm.selected_set == cold.selected_set

    def test_cold_counts_match_uncached_run(self, tmp_path):
        """Attaching a (fresh) persistent store must not change the paper's
        cold-run test counts or the selection."""
        from repro.core.seqsel import SeqSel
        from repro.core.subset_search import MarginalThenFull
        problem = self._problem()
        plain = SeqSel(tester=GTestCI(),
                       subset_strategy=MarginalThenFull()).select(problem)
        cached = SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                        cache=PersistentCICache(tmp_path / "c.json")
                        ).select(problem)
        assert cached.n_ci_tests == plain.n_ci_tests
        assert cached.selected_set == plain.selected_set


@pytest.fixture(scope="module")
def german():
    from repro.data.loaders import load_german
    return load_german(seed=0, n_train=800, n_test=400)


class TestHarnessPersistentCache:
    def test_run_method_warm_rerun_zero_tests(self, tmp_path, german):
        """The headline harness contract: re-running a seeded experiment
        over unchanged data executes zero CI tests the second time — the
        memoised selection answers without running the selector — and
        reports the cold run's counts."""
        from repro.ci.adaptive import AdaptiveCI
        from repro.ci.store import ExperimentStore
        from repro.core.seqsel import SeqSel
        from repro.core.subset_search import MarginalThenFull
        from repro.experiments.harness import run_method

        def selector():
            return SeqSel(tester=AdaptiveCI(seed=0),
                          subset_strategy=MarginalThenFull())

        cold = run_method(german, selector(), store=str(tmp_path))
        assert cold.selection.n_ci_tests > 0
        store = ExperimentStore(tmp_path)
        warm = run_method(german, selector(), store=store)
        assert store.selection_hits == 1
        assert warm.selection.n_ci_tests == cold.selection.n_ci_tests
        assert warm.selection.selected_set == cold.selection.selected_set

    def test_selector_cache_scoped_to_the_call(self, tmp_path, german):
        """Regression: run_method used to leave the store attached to the
        selector, so a later cacheless run silently served cached hits."""
        from repro.ci.adaptive import AdaptiveCI
        from repro.core.seqsel import SeqSel
        from repro.core.subset_search import MarginalThenFull
        from repro.experiments.harness import run_method
        selector = SeqSel(tester=AdaptiveCI(seed=0),
                          subset_strategy=MarginalThenFull())
        cached = run_method(german, selector, store=str(tmp_path))
        assert selector.cache is False  # restored to its prior value
        plain = run_method(german, selector)
        assert plain.selection.n_ci_tests == cached.selection.n_ci_tests > 0
