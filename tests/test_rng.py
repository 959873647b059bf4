"""Tests for the RNG plumbing."""

import numpy as np
import pytest

from repro.ci.kcit import KCIT
from repro.ci.permutation import PermutationCI
from repro.ci.rcit import RCIT
from repro.core.grpsel import GrpSel
from repro.rng import as_generator, spawn, value_seed


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = as_generator(7).random(5)
        b = as_generator(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g


class TestSpawn:
    def test_children_are_independent_streams(self):
        children = spawn(3, 4)
        assert len(children) == 4
        draws = [c.random(3).tolist() for c in children]
        # All four streams differ.
        assert len({tuple(d) for d in draws}) == 4

    def test_deterministic(self):
        a = [c.random(2).tolist() for c in spawn(5, 3)]
        b = [c.random(2).tolist() for c in spawn(5, 3)]
        assert a == b

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn(0, -1)

    def test_spawn_from_generator(self):
        children = spawn(np.random.default_rng(1), 2)
        assert len(children) == 2

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            spawn("seed", 2)


class TestValueSeed:
    @pytest.mark.parametrize("seed", [
        None, 7, np.int64(7), np.random.default_rng(0)],
        ids=["none", "int", "np-int64", "generator"])
    def test_every_seed_kind_becomes_a_python_int(self, seed):
        value = value_seed(seed)
        assert type(value) is int and value >= 0

    def test_values_pass_through_and_draws_happen_once(self):
        assert value_seed(7) == value_seed(np.int64(7)) == 7
        assert value_seed(None) != value_seed(None)  # fresh entropy
        # A generator's value is a function of its state, and drawing it
        # advances every copy of that state alike.
        gen, twin = np.random.default_rng(3), np.random.default_rng(3)
        assert value_seed(gen) == value_seed(twin)
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("seed", ["7", 1.5])
    def test_other_types_raise(self, seed):
        with pytest.raises(TypeError):
            value_seed(seed)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            value_seed(-1)


class TestSeedToken:
    """A tester's cache token records its value seed, so equal seeds
    share store entries and selection memos in any instance or process."""

    def test_value_seeds_key_by_value(self):
        for make in (RCIT, KCIT, PermutationCI):
            assert make(seed=7).cache_token() == make(seed=7).cache_token()
            assert make(seed=7).cache_token() != make(seed=8).cache_token()
        # A Generator keys by the one int it contributes.
        drawn = value_seed(np.random.default_rng(3))
        assert RCIT(seed=np.random.default_rng(3)).cache_token() == \
               RCIT(seed=drawn).cache_token()

    def test_numpy_integer_seeds_key_like_python_ints(self):
        """Regression: np.int64 seeds (np.arange-derived sweeps) were
        treated as one-time tokens, silently disabling every cache layer
        for perfectly deterministic configurations.  Store keys are built
        from ``repr(token)``, so the seed must be a Python int there."""
        assert repr(RCIT(seed=np.int64(5)).cache_token()) == \
               repr(RCIT(seed=5).cache_token())
        assert repr(PermutationCI(seed=np.int32(0)).cache_token()) == \
               repr(PermutationCI(seed=0).cache_token())
        assert repr(GrpSel(seed=np.int64(5)).config_digest()) == \
               repr(GrpSel(seed=5).config_digest())
