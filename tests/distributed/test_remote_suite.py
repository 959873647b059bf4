"""End-to-end distributed suites: real ``python -m repro worker``
subprocesses serving a filesystem spool.

This is the configuration the README documents — a dispatcher and
separate worker *processes* sharing nothing but a spool directory — so
it pins the full pickle/transport round-trip the in-process tests
cannot: results bitwise-identical to inline execution, warm reruns over
a shared store, and a worker killed mid-suite healed by lease requeue.
"""

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.driver import expand_legs, run_suite

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

SMALL = dict(tester="gtest", n_train=150, n_test=60)


def small_legs():
    return expand_legs(["german"], algorithms=["grpsel", "seqsel"],
                       **SMALL)


def outcome_key(outcome):
    return (outcome.leg.label, outcome.selection.n_ci_tests,
            sorted(outcome.selection.selected_set),
            outcome.report.accuracy)


def spawn_worker(queue_dir, max_idle=60.0, extra_env=None):
    """A real ``python -m repro worker`` subprocess on this spool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra_env or {})
    command = [sys.executable, "-m", "repro", "worker",
               "--queue", str(queue_dir), "--max-idle", str(max_idle)]
    return subprocess.Popen(command, cwd=REPO_ROOT,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=env)


def reap(*workers):
    for worker in workers:
        if worker.poll() is None:
            worker.kill()
        worker.wait(timeout=30)


class TestRemoteSuite:
    def test_distributed_suite_matches_inline_bitwise(self, tmp_path):
        legs = small_legs()
        inline = run_suite(legs, jobs=1)
        spool = tmp_path / "spool"
        workers = [spawn_worker(spool), spawn_worker(spool)]
        try:
            remote = run_suite(legs, queue=spool)
        finally:
            reap(*workers)
        assert [outcome_key(o) for o in remote.outcomes] == \
               [outcome_key(o) for o in inline.outcomes]
        assert all(o.selection.n_ci_tests > 0 for o in remote.outcomes)

    def test_warm_rerun_over_the_shared_store_replays_counts(self, tmp_path):
        """Workers execute legs that merge-save into the shared store
        root; a warm inline rerun over the same root replays the
        recorded cold-run counts without re-executing."""
        legs = small_legs()
        spool, store = tmp_path / "spool", tmp_path / "store"
        worker = spawn_worker(spool)
        try:
            cold = run_suite(legs, store=store, queue=spool)
        finally:
            reap(worker)
        warm = run_suite(legs, store=store, jobs=1)
        assert [outcome_key(o) for o in warm.outcomes] == \
               [outcome_key(o) for o in cold.outcomes]
        assert all(o.selection.n_ci_tests > 0 for o in warm.outcomes)

    def test_killed_worker_heals_by_requeue(self, tmp_path, monkeypatch):
        """SIGKILL a worker mid-suite: its lease lapses (no heartbeat),
        the dispatcher reclaims, and a healthy worker completes the
        suite with results identical to inline.  The victim stalls after
        its first claim, so the kill always lands while it holds a leg —
        the legs take milliseconds, and a victim left to run could
        finish the whole suite between two polls."""
        monkeypatch.setenv("REPRO_CI_REMOTE_LEASE", "1.0")
        legs = small_legs()
        inline = run_suite(legs, jobs=1)
        spool = tmp_path / "spool"
        victim = spawn_worker(spool, extra_env={
            "REPRO_CI_REMOTE_LEASE": "1.0",
            "REPRO_FAULTS": "worker.execute:delay=300x1"})
        outcome: dict = {}

        def dispatch():
            try:
                outcome["result"] = run_suite(legs, queue=spool)
            except BaseException as exc:  # surfaced on the main thread
                outcome["error"] = exc

        dispatcher = threading.Thread(target=dispatch, daemon=True)
        dispatcher.start()
        claimed_dir = spool / "claimed"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if claimed_dir.is_dir() and any(claimed_dir.iterdir()):
                break  # the victim is now holding a leg
            time.sleep(0.02)
        else:
            pytest.fail("victim worker never claimed a task")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        healthy = spawn_worker(spool, extra_env={"REPRO_CI_REMOTE_LEASE":
                                                 "1.0"})
        try:
            dispatcher.join(timeout=180)
        finally:
            reap(healthy)
        assert not dispatcher.is_alive(), "suite wedged after worker death"
        if "error" in outcome:
            raise outcome["error"]
        assert [outcome_key(o) for o in outcome["result"].outcomes] == \
               [outcome_key(o) for o in inline.outcomes]


class TestWorkerCLI:
    def test_idle_worker_exits_zero_on_max_idle(self, tmp_path):
        worker = spawn_worker(tmp_path / "spool", max_idle=0.5)
        assert worker.wait(timeout=60) == 0

    def test_cli_suite_accepts_a_queue_flag(self, tmp_path):
        """``repro suite --queue`` wires through to the distributed
        path; a worker on the same spool serves the legs."""
        spool = tmp_path / "spool"
        worker = spawn_worker(spool)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "suite",
                 "--datasets", "german", "--algorithms", "grpsel",
                 "--n-train", "150", "--n-test", "60",
                 "--queue", str(spool)],
                cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                timeout=300)
        finally:
            reap(worker)
        assert proc.returncode == 0, proc.stderr
        assert "german" in proc.stdout.lower()
