"""Graceful worker shutdown: SIGTERM/SIGINT finish the task in flight.

A real ``python -m repro worker`` process is killed mid-task; the
contract is that it completes the claimed task (posting its result to
the spool) and exits 0 — the dispatcher never sees
the difference between a drained worker and one that served forever.
"""

import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.distributed.dispatch import submit_batch
from repro.distributed.queue import FileSpoolQueue, decode_result

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))


def start_worker(spool):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.join(SRC_ROOT, "src")
    environment.pop("REPRO_FAULTS", None)  # chaos stays out of this one
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--queue", str(spool),
         "--id", "victim", "--max-idle", "30", "--lease", "5"],
        env=environment, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def wait_for_claim(queue, deadline=15.0):
    claimed = os.path.join(queue.root, "claimed")
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if os.listdir(claimed):
            return True
        time.sleep(0.02)
    return False


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_mid_task_finishes_it_and_exits_clean(tmp_path, signum):
    queue = FileSpoolQueue(tmp_path / "q", lease=5, retries=2)
    payload = pickle.dumps({"kind": "call", "fn": time.sleep, "item": 1.0},
                           protocol=pickle.HIGHEST_PROTOCOL)
    (task_id,) = submit_batch(queue, [payload], timeout=0)
    process = start_worker(tmp_path / "q")
    try:
        assert wait_for_claim(queue), "worker never claimed the task"
        process.send_signal(signum)  # lands mid-sleep, i.e. mid-task
        _, stderr = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
    assert process.returncode == 0, stderr.decode()
    # The in-flight task was finished and posted, not abandoned.
    result = queue.result(task_id)
    assert result is not None
    assert decode_result(result) is None  # time.sleep returns None
    assert not os.listdir(os.path.join(queue.root, "claimed"))


def test_second_signal_is_not_swallowed(tmp_path):
    """One signal drains; a second one restores the default disposition,
    so an operator can still force-kill a stuck worker."""
    queue = FileSpoolQueue(tmp_path / "q", lease=5, retries=2)
    payload = pickle.dumps({"kind": "call", "fn": time.sleep, "item": 30.0},
                           protocol=pickle.HIGHEST_PROTOCOL)
    submit_batch(queue, [payload], timeout=0)
    process = start_worker(tmp_path / "q")
    try:
        assert wait_for_claim(queue), "worker never claimed the task"
        process.send_signal(signal.SIGTERM)
        time.sleep(0.3)  # handler has run; task is still sleeping
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=15)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
    assert process.returncode == -signal.SIGTERM
