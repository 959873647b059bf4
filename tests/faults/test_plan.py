"""FaultPlan unit contract: grammar, determinism, replay, zero overhead."""

import pytest

from repro import env, faults
from repro.exceptions import FaultInjected, InjectedKill


class TestGrammar:
    def test_round_trip_through_describe(self):
        spec = ("worker.execute:kill@0.1x1;"
                "spool.write:truncate=0.25@0.05x2;"
                "queue.claim:delay=0.002;seed=11")
        plan = faults.FaultPlan(spec)
        again = faults.FaultPlan(plan.describe())
        assert again.describe() == plan.describe()
        assert again.seed == 11
        assert [s.render() for s in again.specs] == \
            [s.render() for s in plan.specs]

    def test_defaults(self):
        (spec,), seed = faults.parse_spec("queue.claim:raise")
        assert seed is None
        assert spec.rate == 1.0 and spec.times is None and spec.value == 0.0
        (spec,), _ = faults.parse_spec("spool.write:truncate")
        assert spec.value == 0.5

    @pytest.mark.parametrize("bad, match", [
        ("queue.claim", "malformed"),
        ("queue.claim:explode", "unknown kind"),
        ("queue.claim:raise@1.5", "rate"),
        ("queue.claim:raise@zap", "rate"),
        ("transport.send:truncate=1.5", "fraction"),
        ("queue.claim:delay=-1", "delay"),
        ("seed=pi", "seed"),
    ])
    def test_malformed_terms_fail_loudly(self, bad, match):
        with pytest.raises(ValueError, match=match):
            faults.FaultPlan(bad)

    def test_unknown_site_fails_at_construction(self):
        with pytest.raises(ValueError, match="no registered"):
            faults.FaultPlan("queue.nonexistent:raise")

    def test_site_patterns_match_registered_sites(self):
        plan = faults.FaultPlan("queue.*:raise@0.5")
        assert plan.specs[0].matches("queue.claim")
        assert plan.specs[0].matches("queue.clock.reclaim")
        assert not plan.specs[0].matches("spool.write")


class TestDeterminism:
    def _firing_trace(self, plan, n=200):
        trace = []
        for _ in range(n):
            try:
                plan.perform("queue.claim")
                trace.append(False)
            except FaultInjected:
                trace.append(True)
        return trace

    def test_same_seed_replays_the_same_schedule(self):
        spec = "queue.claim:raise@0.3"
        first = self._firing_trace(faults.FaultPlan(spec, seed=5))
        second = self._firing_trace(faults.FaultPlan(spec, seed=5))
        assert first == second
        assert any(first) and not all(first)

    def test_different_seeds_differ(self):
        spec = "queue.claim:raise@0.3"
        a = self._firing_trace(faults.FaultPlan(spec, seed=1))
        b = self._firing_trace(faults.FaultPlan(spec, seed=2))
        assert a != b

    def test_inline_seed(self, monkeypatch):
        assert faults.FaultPlan("queue.claim:raise;seed=9").seed == 9
        monkeypatch.setenv(env.FAULTS.name, "queue.claim:raise;seed=9")
        assert faults.FaultPlan.from_env().seed == 9

    def test_times_cap_bounds_total_firings(self):
        plan = faults.FaultPlan("queue.claim:raise x2".replace(" ", ""))
        fired = sum(1 for _ in range(10)
                    if self._fires_once(plan))
        assert fired == 2
        assert plan.fired() == {"queue.claim:raisex2": 2}

    @staticmethod
    def _fires_once(plan):
        try:
            plan.perform("queue.claim")
            return False
        except FaultInjected:
            return True


class TestActions:
    def test_kill_raises_injected_kill(self):
        plan = faults.FaultPlan("worker.execute:kill")
        with pytest.raises(InjectedKill):
            plan.perform("worker.execute")

    def test_injected_fault_is_an_oserror(self):
        # The whole point: injected faults ride the *real* OSError
        # hardening paths, so chaos tests exercise production handlers.
        assert issubclass(FaultInjected, OSError)
        assert issubclass(InjectedKill, FaultInjected)

    def test_truncate_mangles_bytes(self):
        plan = faults.FaultPlan("spool.write:truncate=0.5x1")
        assert plan.mangle("spool.write", b"12345678") == b"1234"
        # cap exhausted: subsequent payloads pass through intact
        assert plan.mangle("spool.write", b"12345678") == b"12345678"

    def test_skew_is_a_standing_offset_not_a_firing(self):
        plan = faults.FaultPlan("queue.clock.reclaim:skew=2.5")
        assert plan.skew("queue.clock.reclaim") == 2.5
        assert plan.skew("queue.clock.claim") == 0.0
        plan.perform("queue.clock.reclaim")  # never raises
        assert plan.fired() == {"queue.clock.reclaim:skew=2.5": 0}


class TestRuntimeShim:
    def test_disabled_shims_are_no_ops(self):
        with faults.use_plan(None):
            faults.inject("queue.claim")
            assert faults.inject_bytes("spool.write", b"x") == b"x"
            assert isinstance(faults.clock("queue.clock.claim"), float)

    def test_use_plan_arms_and_restores(self):
        with faults.use_plan(faults.FaultPlan("queue.claim:raise")):
            assert faults.active_plan() is not None
            with pytest.raises(FaultInjected):
                faults.inject("queue.claim")
        # Restored to the (env-resolved) previous state: no plan in tests.
        with faults.use_plan(None):
            faults.inject("queue.claim")

    def test_refresh_from_env(self, monkeypatch):
        monkeypatch.setenv(env.FAULTS.name, "queue.claim:raise;seed=3")
        try:
            plan = faults.refresh_from_env()
            assert plan is not None and plan.seed == 3
        finally:
            monkeypatch.delenv(env.FAULTS.name)
            assert faults.refresh_from_env() is None

    def test_clock_applies_skew(self):
        import time

        with faults.use_plan(
                faults.FaultPlan("queue.clock.reclaim:skew=100")):
            skewed = faults.clock("queue.clock.reclaim")
            straight = faults.clock("queue.clock.claim")
        assert skewed - time.time() > 90
        assert abs(straight - time.time()) < 5
