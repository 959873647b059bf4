"""Chunk invariance property suite (hypothesis).

Machine-checks the chunk invariance contract of
:mod:`repro.data.backend`: every observable of a table — fingerprints,
``discrete_codes``, ``standardized_block``, CI verdicts, selector output
and ``n_ci_tests`` — is a pure function of the column values, bitwise
identical across every forced streaming chunk size (including the
chunk=1 and chunk>n_rows edges).
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ci import CITestLedger, GTestCI, RCIT
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.seqsel import SeqSel
from repro.data.backend import ENV_CHUNK_ROWS, iter_slices, resolve_chunk_rows
from repro.data.schema import Role
from repro.data.table import Table

#: Forced streaming chunk lengths, covering the degenerate single-row
#: sweep and the larger-than-table edge (which must behave as unchunked).
CHUNKS = (0, 1, 3, 10_000)


def make_columns(seed: int, n_rows: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "s": rng.integers(0, 2, size=n_rows),
        "y": rng.integers(0, 2, size=n_rows),
        "z0": rng.integers(0, 3, size=n_rows),
        "d0": rng.integers(0, 4, size=n_rows),
        "d1": rng.integers(-2, 3, size=n_rows),
        "c0": rng.normal(size=n_rows),
        "c1": rng.normal(size=n_rows) * 3.0 + 1.0,
    }


def build(columns, chunk, monkeypatch) -> Table:
    if chunk:
        monkeypatch.setenv(ENV_CHUNK_ROWS, str(chunk))
    else:
        monkeypatch.delenv(ENV_CHUNK_ROWS, raising=False)
    return Table(columns, roles={"s": Role.SENSITIVE, "y": Role.TARGET})


@st.composite
def seeds_and_sizes(draw):
    return (draw(st.integers(min_value=0, max_value=50)),
            draw(st.integers(min_value=10, max_value=60)))


class TestObservableEquivalence:
    """Every chunk variant reproduces the baseline."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params=seeds_and_sizes())
    def test_fingerprints_codes_blocks(self, params, monkeypatch):
        seed, n_rows = params
        columns = make_columns(seed, n_rows)
        base = build(columns, 0, monkeypatch)
        base_fp = base.fingerprint
        base_sub = base.fingerprint_of(("d0", "c0"))
        base_codes, base_levels = base.discrete_codes(("d0", "d1", "z0"))
        base_block = np.array(base.standardized_block(("c0", "c1")))
        for chunk in CHUNKS:
            table = build(columns, chunk, monkeypatch)
            assert table.fingerprint == base_fp
            assert table.fingerprint_of(("d0", "c0")) == base_sub
            codes, levels = table.discrete_codes(("d0", "d1", "z0"))
            assert levels == base_levels
            assert np.array_equal(np.array(codes), base_codes)
            assert np.array_equal(
                np.array(table.standardized_block(("c0", "c1"))),
                base_block)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params=seeds_and_sizes())
    def test_ci_verdicts(self, params, monkeypatch):
        seed, n_rows = params
        columns = make_columns(seed, n_rows)
        gtest, rcit = GTestCI(), RCIT(seed=5)
        base = build(columns, 0, monkeypatch)
        base_g = gtest.test(base, "d0", "y", ("z0",))
        base_r = rcit.test(base, "c0", "y", ("c1",))
        for chunk in CHUNKS:
            table = build(columns, chunk, monkeypatch)
            got_g = gtest.test(table, "d0", "y", ("z0",))
            got_r = rcit.test(table, "c0", "y", ("c1",))
            assert (got_g.p_value, got_g.statistic) == \
                (base_g.p_value, base_g.statistic)
            assert (got_r.p_value, got_r.statistic) == \
                (base_r.p_value, base_r.statistic)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_selector_verdicts_and_counts(self, chunk, monkeypatch):
        columns = make_columns(11, 120)
        base = build(columns, 0, monkeypatch)
        problem = FairFeatureSelectionProblem(
            base, sensitive=["s"], admissible=["z0"],
            candidates=["d0", "d1", "c0", "c1"], target="y")
        expected = SeqSel(tester=RCIT(seed=3)).select(problem)
        table = build(columns, chunk, monkeypatch)
        got = SeqSel(tester=RCIT(seed=3)).select(
            FairFeatureSelectionProblem(
                table, sensitive=["s"], admissible=["z0"],
                candidates=["d0", "d1", "c0", "c1"], target="y"))
        assert got.selected == expected.selected
        assert got.rejected == expected.rejected
        assert got.n_ci_tests == expected.n_ci_tests

    def test_fused_batch_counts_identical(self, monkeypatch):
        columns = make_columns(4, 90)
        queries = [(x, "y", ("z0",)) for x in ("d0", "d1", "c0", "c1")]
        base = build(columns, 0, monkeypatch)
        ledger = CITestLedger(GTestCI(), cache=True)
        expected = [(r.p_value, r.statistic)
                    for r in ledger.test_batch(base, queries)]
        for chunk in CHUNKS:
            table = build(columns, chunk, monkeypatch)
            other = CITestLedger(GTestCI(), cache=True)
            got = [(r.p_value, r.statistic)
                   for r in other.test_batch(table, queries)]
            assert got == expected
            assert other.n_tests == ledger.n_tests
            assert other.cache_hits == ledger.cache_hits


class TestBackendPrimitives:
    """Unit coverage of the chunking helpers themselves."""

    def test_iter_slices_partitions_exactly(self):
        for n in (0, 1, 7, 64):
            for chunk in (0, 1, 3, 7, 100):
                windows = list(iter_slices(n, chunk))
                covered = [i for w in windows for i in range(w.start, w.stop)]
                assert covered == list(range(n))

    def test_resolve_chunk_rows_env_and_cap(self, monkeypatch):
        monkeypatch.delenv(ENV_CHUNK_ROWS, raising=False)
        # Small tables never stream by default.
        assert resolve_chunk_rows(1000) == 0
        monkeypatch.setenv("REPRO_TABLE_RAM_CAP_MB", "0.001")
        assert resolve_chunk_rows(1000, row_bytes=64) > 0
        monkeypatch.setenv(ENV_CHUNK_ROWS, "8")
        assert resolve_chunk_rows(1000) == 8
        assert resolve_chunk_rows(4) == 0  # forced chunk >= n: unchunked
        monkeypatch.setenv(ENV_CHUNK_ROWS, "bogus")
        with pytest.raises(ValueError):
            resolve_chunk_rows(1000)

    def test_empty_columns_roundtrip(self):
        table = Table({"a": np.array([], dtype=np.int64)})
        assert table.n_rows == 0
        assert table["a"].shape == (0,)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.equals(table)
