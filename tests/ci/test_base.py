"""Tests for CI query normalisation and the test ledger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ci.base import (
    CIQuery,
    CIResult,
    CITestLedger,
    encode_rows,
)
from repro.ci.gtest import GTestCI
from repro.data.table import Table
from repro.exceptions import CITestError


def binary_table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.5).astype(int)
    x = (rng.random(n) < 0.5).astype(int)
    y = s ^ (rng.random(n) < 0.1).astype(int)
    return Table({"s": s, "x": x, "y": y})


# A small alphabet, so drawn X/Y/Z sides overlap often.
NAMES = st.sampled_from("abcde")
SIDES = st.one_of(NAMES, st.lists(NAMES, max_size=4))


def _or_raises(build, *args):
    try:
        return build(*args)
    except CITestError:
        return "raises"


def _spec(x, y, z):
    """The query rules, written out apart from the implementation."""
    xs, ys, zs = ({v} if isinstance(v, str) else set(v) for v in (x, y, z))
    if not xs or not ys or xs & ys or (xs | ys) & zs:
        return "raises"
    return CIQuery(*(tuple(sorted(v)) for v in (xs, ys, zs)))


class TestCIQuery:
    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(SIDES, min_size=1, max_size=5), y=SIDES, z=SIDES)
    def test_shared_frame_matches_make(self, xs, y, z):
        want = [_or_raises(CIQuery.make, x, y, z) for x in xs]
        assert want == [_spec(x, y, z) for x in xs]
        frame = _or_raises(CIQuery.against, y, z)
        if frame == "raises":
            # An invalid (Y, Z) — empty Y or Y∩Z — fails every X in make.
            assert want == ["raises"] * len(xs)
            return
        got = [_or_raises(frame, x) for x in xs]
        assert got == want
        built = [q for q in got if q != "raises"]
        # Every query shares the frame's canonical y/z tuple objects.
        assert all(q.y is frame.y and q.z is frame.z for q in built)

    def test_normalisation_sorts_and_dedupes(self):
        q = CIQuery.make(["b", "a", "a"], "c", ["e", "d"])
        assert q.x == ("a", "b")
        assert q.y == ("c",)
        assert q.z == ("d", "e")

    def test_empty_x_rejected(self):
        with pytest.raises(CITestError):
            CIQuery.make([], "y")

    def test_overlap_rejected(self):
        with pytest.raises(CITestError, match="overlap"):
            CIQuery.make("a", "a")
        with pytest.raises(CITestError, match="overlap"):
            CIQuery.make("a", "b", "a")


class TestCITester:
    def test_unknown_column_raises(self):
        with pytest.raises(CITestError, match="unknown column"):
            GTestCI().test(binary_table(), "ghost", "y")

    def test_too_few_samples_raises(self):
        t = binary_table(3)
        with pytest.raises(CITestError, match="too few"):
            GTestCI().test(t, "x", "y")

    def test_result_truthiness(self):
        res = CIResult(independent=True, p_value=0.5)
        assert bool(res)
        assert not CIResult(independent=False, p_value=0.001)

    def test_invalid_alpha(self):
        with pytest.raises(CITestError):
            GTestCI(alpha=0.0)

    def test_no_library_tester_overrides_test(self):
        """`test` is a one-query `test_batch` for every tester, so a lone
        query is a group of one by construction."""
        from repro.ci.adaptive import AdaptiveCI
        from repro.ci.fisher_z import FisherZCI
        from repro.ci.gtest import ChiSquaredCI
        from repro.ci.kcit import KCIT
        from repro.ci.oracle import OracleCI
        from repro.ci.permutation import PermutationCI
        from repro.ci.rcit import RCIT, RIT
        for cls in (GTestCI, ChiSquaredCI, RCIT, RIT, KCIT, FisherZCI,
                    PermutationCI, OracleCI, AdaptiveCI, CITestLedger):
            assert "test" not in vars(cls), cls.__name__


class TestLedger:
    def test_counts_every_test(self):
        ledger = CITestLedger(GTestCI())
        t = binary_table()
        ledger.test(t, "x", "y")
        ledger.test(t, "s", "y")
        assert ledger.n_tests == 2

    def test_reset(self):
        ledger = CITestLedger(GTestCI())
        ledger.test(binary_table(), "x", "y")
        ledger.reset()
        assert ledger.n_tests == 0

    def test_cache_dedupes_without_counting(self):
        ledger = CITestLedger(GTestCI(), cache=True)
        t = binary_table()
        r1 = ledger.test(t, "x", "y")
        r2 = ledger.test(t, "x", "y")  # a repeated query hits the cache
        assert ledger.n_tests == 1 and ledger.cache_hits == 1
        assert r1.p_value == r2.p_value
        # The other orientation is an entry of its own: a tester's two
        # orientations need not agree bit for bit.
        ledger.test(t, "y", "x")
        assert ledger.n_tests == 2

    def test_uncached_by_default(self):
        ledger = CITestLedger(GTestCI())
        t = binary_table()
        ledger.test(t, "x", "y")
        ledger.test(t, "x", "y")
        assert ledger.n_tests == 2

    def test_total_seconds_positive(self):
        ledger = CITestLedger(GTestCI())
        ledger.test(binary_table(), "x", "y")
        assert ledger.total_seconds > 0


class TestLedgerNesting:
    def test_a_ledger_never_wraps_a_ledger(self):
        """One ledger per run: a ledger that wrapped another would count
        every test twice and hand executors a tester that collects
        state."""
        with pytest.raises(TypeError, match="never wraps"):
            CITestLedger(CITestLedger(GTestCI()))


class TestHelpers:
    def test_encode_rows_distinct(self):
        m = np.array([[0, 0], [0, 1], [0, 0], [1, 1]])
        codes = encode_rows(m)
        assert codes[0] == codes[2]
        assert len(np.unique(codes)) == 3

    def test_encode_rows_empty_matrix(self):
        codes = encode_rows(np.zeros((5, 0)))
        assert (codes == 0).all()

    def test_encode_rows_requires_2d(self):
        with pytest.raises(CITestError):
            encode_rows(np.zeros(5))
