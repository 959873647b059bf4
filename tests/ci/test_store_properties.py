"""Property-based round-trip tests for the persistent stores.

Contracts from the ROADMAP, machine-checked on random inputs:

* **robust loading** — corrupt, foreign, or future-versioned files always
  read as empty (a store is a pure accelerator; loading must never raise);
* **entries survive concurrent saves** — saves append their records to
  the log under a directory lock, so concurrent savers (sibling
  processes or threads sharing one path) never erase each other's
  entries;
* **the log stays linear** — a save writes only its own records, and a
  log compacts only past twice its live records;
* **distinct cache tokens never collide** — differently-configured
  testers can never share an entry, whatever their token values; testers
  are value-seeded at construction, so the seed in a token is always the
  int the verdicts were drawn from;
* **cached verdicts never depend on orientation** — a query's two
  orientations never share a cache entry.

Plus the same discipline for :class:`ExperimentStore`'s selections file.
"""

import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.causal.dag import CausalDAG
from repro.ci.base import CIQuery, CITestLedger
from repro.ci.fisher_z import FisherZCI
from repro.ci.gtest import GTestCI
from repro.ci.kcit import KCIT
from repro.ci.oracle import OracleCI
from repro.ci.permutation import PermutationCI
from repro.ci import store as store_mod
from repro.ci.rcit import RCIT
from repro.ci.store import (FORMAT_TAG, FORMAT_VERSION, SELECTIONS_TAG,
                            SELECTIONS_VERSION, ExperimentStore,
                            PersistentCICache, _key_string)
from repro.core.grpsel import GrpSel
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import SelectionResult
from repro.core.seqsel import SeqSel
from repro.core.subset_search import MarginalThenFull
from repro.data.table import Table

RECORD = {"independent": True, "p_value": 0.5, "statistic": 1.0,
          "method": "g-test"}


def query_key(name: str) -> tuple:
    return ((name,), ("y",), ())


class TestRobustLoading:
    @settings(max_examples=30, deadline=None)
    @given(garbage=st.one_of(
        st.text(max_size=200),
        st.binary(max_size=200).map(lambda b: b.decode("latin-1")),
        st.lists(st.integers()).map(json.dumps),
        st.dictionaries(st.text(max_size=8), st.integers(),
                        max_size=4).map(json.dumps),
    ))
    def test_arbitrary_file_contents_read_as_empty(self, tmp_path_factory,
                                                   garbage):
        path = tmp_path_factory.mktemp("store") / "cache.json"
        path.write_text(garbage)
        assert len(PersistentCICache(path)) == 0

    @settings(max_examples=30, deadline=None)
    @given(tag=st.text(max_size=30), version=st.integers(-5, 50))
    def test_foreign_or_future_documents_read_as_empty(self,
                                                       tmp_path_factory,
                                                       tag, version):
        if tag == FORMAT_TAG and version == FORMAT_VERSION:
            return  # the one genuine header
        path = tmp_path_factory.mktemp("store") / "cache.json"
        path.write_text(json.dumps({"format": tag, "version": version})
                        + "\n" + json.dumps(["k", RECORD]) + "\n")
        assert len(PersistentCICache(path)) == 0

    def test_current_document_shape_loads(self, tmp_path):
        path = tmp_path / "cache.json"
        with PersistentCICache(path) as store:
            store.put("fp", query_key("x"), "g-test", 0.01, RECORD)
        assert len(PersistentCICache(path)) == 1


# Hashable scalar values a cache_token may carry.
token_scalars = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
tokens = st.tuples() | st.lists(
    token_scalars | st.tuples(st.text(max_size=8), token_scalars),
    max_size=4).map(tuple)


class TestTokenIsolation:
    @settings(max_examples=60, deadline=None)
    @given(first=tokens, second=tokens)
    def test_distinct_tokens_never_collide(self, first, second):
        if first == second:
            return
        key_a = _key_string("fp", query_key("x"), "g-test", 0.01, first)
        key_b = _key_string("fp", query_key("x"), "g-test", 0.01, second)
        assert key_a != key_b

    @settings(max_examples=25, deadline=None)
    @given(first=tokens, second=tokens)
    def test_distinct_tokens_isolate_entries(self, tmp_path_factory,
                                             first, second):
        if first == second:
            return
        store = PersistentCICache(tmp_path_factory.mktemp("store") / "c.json")
        store.put("fp", query_key("x"), "g-test", 0.01, RECORD, token=first)
        assert store.get("fp", query_key("x"), "g-test", 0.01,
                         token=second) is None
        assert store.get("fp", query_key("x"), "g-test", 0.01,
                         token=first) == RECORD

    def test_int_seeded_keys_are_unchanged(self, monkeypatch):
        """Value seeding keeps every int-seeded token and digest
        byte-identical, so existing stores and selection memos hit."""
        monkeypatch.delenv("REPRO_CI_TESTER", raising=False)
        assert RCIT(seed=0).cache_token() == (
            ("seed", 0), ("n_features_xy", 5), ("n_features_z", 100),
            ("ridge", 1e-10), ("derivation", 2))
        assert KCIT(seed=0).cache_token() == (
            ("seed", 0), ("ridge", 0.001), ("max_samples", 500),
            ("derivation", 2))
        assert PermutationCI(seed=0).cache_token() == (
            ("seed", 0), ("n_permutations", 200), ("n_bins", 4))
        assert GrpSel(seed=0).config_digest() == (
            "GrpSel", "rcit", 0.01, "exhaustive", True, 1, ("seed", 0))

    def test_unseeded_testers_never_share_verdicts(self, tmp_path):
        """Two ``RCIT(seed=None)`` draw different random features, so a
        shared store must never serve one the other's verdicts."""
        first, second = RCIT(seed=None), RCIT(seed=None)
        assert first.cache_token() != second.cache_token()
        table = small_problem().table
        path = tmp_path / "cache.json"
        cold = CITestLedger(first, cache=PersistentCICache(path))
        cold.test(table, "f1", "y")
        cold.flush_cache()
        other = CITestLedger(second, cache=PersistentCICache(path))
        other.test(table, "f1", "y")
        assert other.n_tests == 1 and other.cache_hits == 0


class TestConcurrentSaves:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(order=st.permutations(range(6)))
    def test_interleaved_saver_instances_never_lose_entries(
            self, tmp_path_factory, order):
        """Any interleaving of whole saves from independent store
        instances (the cross-process shape) preserves every committed
        entry, because saves append."""
        path = tmp_path_factory.mktemp("store") / "shared.json"
        stores = []
        for i in range(6):
            store = PersistentCICache(path)  # all load the initial state
            store.put(f"fp{i}", query_key(f"x{i}"), "g-test", 0.01, RECORD)
            stores.append(store)
        for i in order:
            stores[i].save()
        final = PersistentCICache(path)
        assert len(final) == 6
        for i in range(6):
            assert final.get(f"fp{i}", query_key(f"x{i}"),
                             "g-test", 0.01) == RECORD

    def test_threaded_put_save_races_lose_nothing(self, tmp_path):
        path = tmp_path / "shared.json"
        n_threads, per_thread = 8, 5

        def writer(thread_id):
            store = PersistentCICache(path)
            for j in range(per_thread):
                store.put(f"fp{thread_id}", query_key(f"x{j}"),
                          "g-test", 0.01, RECORD)
                store.save()

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = PersistentCICache(path)
        assert len(final) == n_threads * per_thread
        # And the surviving log is whole: a header, then complete records.
        header, *records, tail = path.read_text().split("\n")
        assert json.loads(header)["format"] == FORMAT_TAG and tail == ""
        assert len(records) == n_threads * per_thread
        assert all(len(json.loads(record)) == 2 for record in records)

    def test_save_failure_leaves_prior_file_intact(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "cache.json"
        with PersistentCICache(path) as store:
            store.put("fp", query_key("x"), "g-test", 0.01, RECORD)
        survivor = path.read_text()

        broken = PersistentCICache(path)
        broken.put("fp2", query_key("z"), "g-test", 0.01, RECORD)
        monkeypatch.setattr(json, "dumps",
                            lambda *a, **k: (_ for _ in ()).throw(OSError()))
        with pytest.warns(RuntimeWarning, match="retained"):
            broken.save()
        assert path.read_text() == survivor
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        # The unsaved entries stay live and land once writes heal.
        monkeypatch.undo()
        broken.save()
        assert len(PersistentCICache(path)) == 2

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    @pytest.mark.parametrize("kind", ["ci", "selections"])
    def test_simultaneous_process_saves_lose_nothing(self, tmp_path,
                                                     monkeypatch, kind):
        """Forked savers released together by a barrier each save one
        disjoint entry; every entry must reach the file.  No file exists
        when they start, so each saver checks for a log and, finding
        none, writes a fresh one by temp file and rename.  The slowed
        write holds each save between that check and its rename, where
        an unlocked saver would replace its siblings' logs."""
        real_write = store_mod._write_all

        def slow_write(*args, **kwargs):
            time.sleep(0.2)
            real_write(*args, **kwargs)

        monkeypatch.setattr(store_mod, "_write_all", slow_write)
        n_processes = 4
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(n_processes)
        processes = [
            context.Process(target=_save_after_barrier,
                            args=(kind, tmp_path, index, barrier))
            for index in range(n_processes)]
        try:
            for process in processes:
                process.start()
            for process in processes:
                process.join(timeout=60)
            assert [p.exitcode for p in processes] == [0] * n_processes
        finally:
            for process in processes:
                if process.is_alive():
                    process.kill()
        if kind == "ci":
            saved = PersistentCICache(tmp_path / "shared.json")
            assert len(saved) == n_processes
        else:
            assert ExperimentStore(tmp_path).n_selections == n_processes
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["shared.json"] if kind == "ci" else ["selections.json"])


def log_records(path) -> list:
    """The records of the log at ``path``, in order (header skipped)."""
    header, *records = path.read_text().splitlines()
    assert json.loads(header) == {"format": FORMAT_TAG,
                                  "version": FORMAT_VERSION}
    return [json.loads(record) for record in records]


class TestLogGrowth:
    def test_log_compacts_past_twice_its_live_records(self, tmp_path):
        """Rewriting one key grows the log until it holds more than
        twice its one live record; that save compacts it, by temp file
        and rename, to the folded map."""
        path = tmp_path / "cache.json"
        store = PersistentCICache(path)
        sizes = []
        for step in range(6):
            store.put("fp", query_key("x"), "g-test", 0.01,
                      dict(RECORD, p_value=step / 10))
            store.save()
            sizes.append(len(log_records(path)))
        assert sizes == [1, 2, 1, 2, 1, 2]
        assert os.listdir(tmp_path) == ["cache.json"]
        assert PersistentCICache(path).get(
            "fp", query_key("x"), "g-test", 0.01)["p_value"] == 0.5

    def test_compaction_keeps_other_savers_records(self, tmp_path):
        """A compaction folds the whole file under the lock, so records
        another saver appended, which this instance never loaded, stay."""
        path = tmp_path / "cache.json"
        mine = PersistentCICache(path)  # loads before the other saves
        with PersistentCICache(path) as other:
            other.put("other", query_key("y"), "g-test", 0.01, RECORD)
        for step in range(3):
            mine.put("fp", query_key("x"), "g-test", 0.01,
                     dict(RECORD, p_value=step / 10))
            mine.save()
        assert len(log_records(path)) == 2  # compacted on the third save
        reloaded = PersistentCICache(path)
        assert reloaded.get("other", query_key("y"), "g-test",
                            0.01) == RECORD
        assert reloaded.get("fp", query_key("x"), "g-test",
                            0.01)["p_value"] == 0.2

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(st.one_of(st.integers(0, 5), st.just("save")),
                        max_size=40))
    def test_reload_equals_the_saved_map(self, tmp_path_factory, ops):
        """Any sequence of puts and saves reloads to the map it saved,
        from a log that never holds more than twice its live records."""
        directory = tmp_path_factory.mktemp("store")
        path = directory / "cache.json"
        store = PersistentCICache(path)
        model: dict = {}
        saved: dict = {}
        for step, op in enumerate(ops + ["save"]):
            if op == "save":
                store.save()
                saved = dict(model)
                if saved:
                    assert len(log_records(path)) <= 2 * len(saved)
                continue
            record = dict(RECORD, p_value=step / 100)
            store.put(f"fp{op}", query_key("x"), "g-test", 0.01, record)
            model[op] = record
        reloaded = PersistentCICache(path)
        assert len(reloaded) == len(saved)
        for op, record in saved.items():
            assert reloaded.get(f"fp{op}", query_key("x"), "g-test",
                                0.01) == record
        assert os.listdir(directory) == (["cache.json"] if saved else [])

    def test_one_record_saves_write_at_most_twice_the_final_file(
            self, tmp_path, monkeypatch):
        """Each save writes only its own record: the bytes a stream of
        saves writes stay linear in its length, where a rewrite per save
        made them quadratic."""
        written = []
        real_write = store_mod._write_all

        def counting_write(descriptor, data):
            written.append(len(data))
            real_write(descriptor, data)

        monkeypatch.setattr(store_mod, "_write_all", counting_write)
        path = tmp_path / "cache.json"
        store = PersistentCICache(path)
        for index in range(200):
            store.put(f"fp{index}", query_key("x"), "g-test", 0.01, RECORD)
            store.save()
        assert len(written) == 200
        assert sum(written) <= 2 * path.stat().st_size


def _save_after_barrier(kind, root, index, barrier):
    """One forked saver: open the store, wait for every sibling, then
    save one entry no sibling writes."""
    if kind == "ci":
        store = PersistentCICache(root / "shared.json")
        barrier.wait(timeout=30)
        store.put(f"fp{index}", query_key(f"x{index}"), "g-test", 0.01,
                  RECORD)
        store.save()
    else:
        store = ExperimentStore(root)
        problem = small_problem()
        selector = SeqSel(tester=GTestCI(alpha=0.01 * (index + 1)),
                          subset_strategy=MarginalThenFull())
        barrier.wait(timeout=30)
        store.put_selection(problem, selector,
                            SelectionResult(algorithm="seqsel"))


def small_problem():
    rng = np.random.default_rng(0)
    n = 300
    s = rng.integers(0, 2, n)
    table = Table({
        "s": s, "a": rng.integers(0, 3, n),
        "y": rng.integers(0, 2, n),
        "f1": rng.integers(0, 3, n),
        "f2": np.where(rng.random(n) < 0.8, s, rng.integers(0, 2, n)),
    })
    return FairFeatureSelectionProblem(
        table=table, sensitive=["s"], admissible=["a"], target="y",
        candidates=["f1", "f2"])


class TestExperimentStore:
    def test_selection_roundtrip_across_reopen(self, tmp_path):
        problem = small_problem()
        selector = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull())
        with ExperimentStore(tmp_path / "suite") as store:
            cold = store.cached_select(selector, problem)
            assert store.selection_misses == 1
        reopened = ExperimentStore(tmp_path / "suite")
        warm = reopened.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem)
        assert reopened.selection_hits == 1
        assert warm.selected_set == cold.selected_set
        assert warm.reasons == cold.reasons
        assert warm.n_ci_tests == cold.n_ci_tests
        assert warm.algorithm == cold.algorithm

    def test_cached_select_restores_selector_cache(self, tmp_path):
        problem = small_problem()
        selector = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull())
        ExperimentStore(tmp_path / "suite").cached_select(selector, problem)
        assert selector.cache is False

    def test_corrupt_selections_file_reads_as_empty(self, tmp_path):
        root = tmp_path / "suite"
        root.mkdir()
        (root / "selections.json").write_text("{definitely not json")
        assert ExperimentStore(root).n_selections == 0

    def test_future_selections_version_reads_as_empty(self, tmp_path):
        root = tmp_path / "suite"
        root.mkdir()
        (root / "selections.json").write_text(json.dumps(
            {"format": SELECTIONS_TAG, "version": SELECTIONS_VERSION + 1,
             "entries": {"k": {}}}))
        assert ExperimentStore(root).n_selections == 0

    def test_namespaces_are_sibling_files_and_shared_instances(
            self, tmp_path):
        store = ExperimentStore(tmp_path / "suite")
        grp = store.ci_cache("grpsel")
        seq = store.ci_cache("seqsel")
        assert grp is store.ci_cache("grpsel")
        assert grp is not seq
        grp.put("fp", query_key("x"), "g-test", 0.01, RECORD)
        store.save()
        assert (tmp_path / "suite" / "ci" / "grpsel.json").exists()
        assert not (tmp_path / "suite" / "ci" / "seqsel.json").exists()
        # Sibling isolation: seqsel cannot see grpsel's entry.
        assert seq.get("fp", query_key("x"), "g-test", 0.01) is None

    @pytest.mark.parametrize("bad", ["", "a/b", "a\\b", "..", "a b"])
    def test_invalid_namespace_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="namespace"):
            ExperimentStore(tmp_path / "suite").ci_cache(bad)

    def test_selector_without_digest_is_rejected(self, tmp_path):
        class Opaque:
            cache = False

            def select(self, problem):  # pragma: no cover - never reached
                raise AssertionError

        with pytest.raises(TypeError, match="config_digest"):
            ExperimentStore(tmp_path / "suite").cached_select(
                Opaque(), small_problem())

    def test_different_config_or_data_never_hits(self, tmp_path):
        problem = small_problem()
        store = ExperimentStore(tmp_path / "suite")
        store.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem)
        # Different tester configuration (alpha) misses.
        store.cached_select(
            SeqSel(tester=GTestCI(alpha=0.05),
                   subset_strategy=MarginalThenFull()), problem)
        assert store.selection_misses == 2
        # Different data misses: perturb one candidate column.
        table = problem.table
        shuffled = table.with_column("f1", table["f1"][::-1].copy())
        other = FairFeatureSelectionProblem(
            table=shuffled, sensitive=["s"], admissible=["a"], target="y",
            candidates=["f1", "f2"])
        store.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            other)
        assert store.selection_misses == 3 and store.selection_hits == 0

    def test_interleaved_experiment_stores_merge_selections(self, tmp_path):
        problem = small_problem()
        first = ExperimentStore(tmp_path / "suite")
        second = ExperimentStore(tmp_path / "suite")
        first.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem)
        second.cached_select(
            SeqSel(tester=GTestCI(alpha=0.05),
                   subset_strategy=MarginalThenFull()), problem)
        first.save()
        second.save()
        assert ExperimentStore(tmp_path / "suite").n_selections == 2


class FailingAfterOneTest:
    """Selector stub: records one CI verdict into its cache, then dies."""

    name = "failing"
    cache = False

    def config_digest(self):
        return (self.name, "g-test", 0.01)

    def select(self, problem):
        ledger = CITestLedger(GTestCI(), cache=self.cache)
        ledger.test(problem.table, problem.candidates[0], problem.target)
        raise RuntimeError("died mid-selection")


class TestStoreSavedOnFailure:
    def test_run_method_persists_partial_ci_results(self, tmp_path):
        """Regression: run_method's store was saved only on success, so
        a crash mid-selection discarded every verdict already computed;
        it is now saved in a finally."""
        from repro.data.loaders import load_german
        from repro.experiments.harness import run_method
        dataset = load_german(seed=0, n_train=200, n_test=100)
        store = ExperimentStore(tmp_path / "suite")
        with pytest.raises(RuntimeError, match="died mid-selection"):
            run_method(dataset, FailingAfterOneTest(), store=store)
        reopened = ExperimentStore(tmp_path / "suite")
        assert len(reopened.ci_cache("failing")) == 1
        assert reopened.n_selections == 0  # no result — nothing memoised


class TestColdOnlyMemoisation:
    def test_resumed_run_is_not_memoised_as_cold(self, tmp_path):
        """Regression: an interrupted-then-resumed sweep executes only the
        remainder; memoising that partial n_ci_tests as the permanent
        'cold-run' summary would corrupt warm Table 2 counts forever."""
        problem = small_problem()
        store = ExperimentStore(tmp_path / "suite")

        # Simulate the crash's surviving state: a few verdicts already in
        # the namespace CI cache, but no memoised selection.
        partial = SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                         cache=store.ci_cache("seqsel"))
        partial.select(problem)
        assert store.n_selections == 0

        resumed = store.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem)
        assert resumed.cache_hits > 0      # the resume was cache-assisted
        assert resumed.n_ci_tests == 0     # only the remainder executed
        assert store.n_selections == 0     # ... and was NOT memoised

    def test_cold_run_is_memoised(self, tmp_path):
        problem = small_problem()
        store = ExperimentStore(tmp_path / "suite")
        cold = store.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem)
        assert cold.cache_hits == 0
        assert store.n_selections == 1

    def test_memo_hit_skips_table_warm_up(self, tmp_path, monkeypatch):
        """Regression: run_method warmed every column's encoded caches
        before probing the selection memo, paying the dominant per-row
        cost on exactly the warm reruns the store is for."""
        from repro.data.loaders import load_german
        from repro.data.table import Table
        from repro.experiments.harness import run_method
        dataset = load_german(seed=0, n_train=200, n_test=100)
        store = ExperimentStore(tmp_path / "suite")
        selector = SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull())
        run_method(dataset, selector, store=store)

        calls = []
        original = Table.warm_cache
        monkeypatch.setattr(Table, "warm_cache",
                            lambda self, names=None:
                            (calls.append(1), original(self, names))[1])
        warm = run_method(
            dataset,
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            store=store)
        assert warm.selection.n_ci_tests > 0  # recorded cold count
        assert calls == []                    # memo hit: no warm-up at all
        assert warm.warm_seconds == 0.0


class TestProblemIdentityInMemoKey:
    def test_same_table_different_roles_never_alias(self, tmp_path):
        """Regression: the memo key once covered only the table, so the
        same table queried as two different problems (candidate subsets,
        the incremental setting) served one problem the other's result."""
        rng = np.random.default_rng(0)
        n = 300
        s = rng.integers(0, 2, n)
        table = Table({
            "s": s, "a": rng.integers(0, 3, n),
            "y": rng.integers(0, 2, n),
            "f1": rng.integers(0, 3, n),
            "f2": np.where(rng.random(n) < 0.8, s, rng.integers(0, 2, n)),
            "f3": rng.integers(0, 2, n),
        })

        def problem_with(candidates):
            return FairFeatureSelectionProblem(
                table=table, sensitive=["s"], admissible=["a"],
                target="y", candidates=candidates)

        store = ExperimentStore(tmp_path / "suite")
        first = store.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem_with(["f1", "f2"]))
        second = store.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem_with(["f3"]))
        assert store.selection_misses == 2 and store.selection_hits == 0
        assert set(second.selected + second.rejected) == {"f3"}
        assert set(first.selected + first.rejected) == {"f1", "f2"}

    def test_one_time_token_runs_never_pollute_the_store(self, tmp_path):
        """Regression: a Generator-seeded selector once keyed by a
        one-time token, so its entries could never be served.  Its seed is
        now drawn down to one int at construction, so runs from the same
        stream state share one live entry instead of growing the file."""
        problem = small_problem()
        store = ExperimentStore(tmp_path / "suite")
        for _ in range(3):
            store.cached_select(
                GrpSel(tester=GTestCI(), subset_strategy=MarginalThenFull(),
                       seed=np.random.default_rng(0)), problem)
        store.save()
        assert store.n_selections == 1 and store.selection_hits == 2
        assert ExperimentStore(tmp_path / "suite").n_selections == 1

    def test_generator_seeded_runs_are_memoised(self, tmp_path):
        """A Generator tester seed is drawn down to one int at
        construction, so the run keys like an int-seeded one: recorded
        once, then served back."""
        problem = small_problem()
        store = ExperimentStore(tmp_path / "suite")

        def selector():
            return SeqSel(tester=RCIT(seed=np.random.default_rng(0)),
                          subset_strategy=MarginalThenFull())

        first = store.cached_select(selector(), problem)
        again = store.cached_select(selector(), problem)
        assert store.n_selections == 1 and store.selection_hits == 1
        assert again.selected_set == first.selected_set

    def test_generator_seeded_tester_never_writes_dead_ci_entries(
            self, tmp_path):
        """Every verdict a Generator-seeded tester writes to a persistent
        store is served back from it: nothing recorded is dead."""
        table = small_problem().table
        tester = RCIT(seed=np.random.default_rng(0))
        path = tmp_path / "cache.json"
        cold = CITestLedger(tester, cache=PersistentCICache(path))
        want = [cold.test(table, name, "y") for name in ("f1", "f2")]
        cold.flush_cache()
        assert cold.n_tests == 2 and len(PersistentCICache(path)) == 2
        warm = CITestLedger(tester, cache=PersistentCICache(path))
        got = [warm.test(table, name, "y") for name in ("f1", "f2")]
        assert warm.n_tests == 0 and warm.cache_hits == 2
        assert [r.p_value for r in got] == [r.p_value for r in want]

    def test_malformed_selection_entry_reads_as_miss(self, tmp_path):
        """Regression: a malformed entry inside an otherwise valid
        selections.json crashed cached_select with KeyError instead of
        reading as a miss (the 'pure accelerator' contract)."""
        problem = small_problem()
        selector = SeqSel(tester=GTestCI(),
                          subset_strategy=MarginalThenFull())
        with ExperimentStore(tmp_path / "suite") as store:
            cold = store.cached_select(selector, problem)

        path = tmp_path / "suite" / "selections.json"
        header, *records = path.read_text().splitlines()
        corrupted = [header]
        for record in records:
            key, entry = json.loads(record)
            del entry["c1"]  # still-parsing partial corruption
            corrupted.append(json.dumps([key, entry]))
        path.write_text("\n".join(corrupted) + "\n")

        reopened = ExperimentStore(tmp_path / "suite")
        again = reopened.cached_select(
            SeqSel(tester=GTestCI(), subset_strategy=MarginalThenFull()),
            problem)
        assert reopened.selection_hits == 0  # corrupt entry never served
        assert again.selected_set == cold.selected_set  # recomputed


def orientation_table():
    """Small integer columns every library tester accepts."""
    rng = np.random.default_rng(3)
    n = 120
    z = rng.integers(0, 3, n)
    return Table({"z": z, "x": (z + rng.integers(0, 2, n)) % 3,
                  "y": (z + rng.integers(0, 2, n)) % 2,
                  "w": rng.integers(0, 2, n)})


ORIENTATION_DAG = CausalDAG(edges=[("z", "x"), ("z", "y"), ("w", "x")])
ORIENTATION_TESTERS = (
    GTestCI(), PermutationCI(alpha=0.05, n_permutations=40, seed=0),
    KCIT(max_samples=60, seed=0), RCIT(seed=0), FisherZCI(),
    OracleCI(ORIENTATION_DAG))


class TestOrientation:
    """Cached verdicts never depend on which orientation ran first."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tester=st.sampled_from(ORIENTATION_TESTERS),
           query=st.sampled_from([("x", "y", ()), ("x", "y", ("z",)),
                                  (("w", "x"), "y", ("z",))]),
           reverse_first=st.booleans(),
           cache=st.sampled_from(["memory", "batch", "store"]))
    def test_each_orientation_gets_its_uncached_result(
            self, tmp_path_factory, tester, query, reverse_first, cache):
        table = orientation_table()
        x, y, z = query
        orders = [(x, y, z), (y, x, z)]
        if reverse_first:
            orders.reverse()
        want = [tester.test(table, *order) for order in orders]
        if cache == "memory":
            ledger = CITestLedger(tester, cache=True)
            got = [ledger.test(table, *order) for order in orders]
        elif cache == "batch":
            ledger = CITestLedger(tester, cache=True)
            got = ledger.test_batch(
                table, [CIQuery.make(*order) for order in orders])
        else:
            path = tmp_path_factory.mktemp("store") / "cache.json"
            cold = CITestLedger(tester, cache=PersistentCICache(path))
            cold.test(table, *orders[0])
            cold.flush_cache()
            warm = CITestLedger(tester, cache=PersistentCICache(path))
            got = [warm.test(table, *order) for order in orders]
            assert warm.cache_hits == 1
        assert got == want
