"""Auto-tuner locks: never-slower-than-serial, persistence, defaults.

The regression this subsystem retires: a pooled executor measured slower
than serial, yet nothing stopped a caller (or a future default) from
picking it.  These tests pin the policy that makes that impossible:
without measurements the default executor is serial for every tester;
with measurements, a pooled executor is chosen only when it was measured
*strictly faster* than serial on this machine.
"""

import json

import pytest

from repro.ci.autotune import (CALIBRATION_TAG, CALIBRATION_VERSION,
                               PROBE_EXECUTORS, Calibration, _choose_from,
                               active_calibration, probe_executors,
                               run_probe, set_active_calibration)
from repro.ci.executor import (ENV_EXECUTOR, ProcessExecutor, SerialExecutor,
                               default_executor)
from repro.ci.gtest import GTestCI
from repro.ci.rcit import RCIT
from repro.ci.store import ExperimentStore, _read_document


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Each test starts with no env override and no active calibration."""
    monkeypatch.delenv(ENV_EXECUTOR, raising=False)
    monkeypatch.delenv("REPRO_CI_CALIBRATION", raising=False)
    set_active_calibration(None)
    yield
    set_active_calibration(None)


class TestNeverSlowerThanSerial:
    def test_strictly_faster_pooled_wins(self):
        assert _choose_from({"serial": 1.0, "remote": 0.5,
                             "process": 0.8}) == "remote"

    def test_slower_pooled_never_chosen(self):
        # A pool measured at 0.37x serial (2.7x its wall time).
        assert _choose_from({"serial": 1.0, "process": 2.7}) == "serial"

    def test_tie_keeps_serial(self):
        assert _choose_from({"serial": 1.0, "process": 1.0}) == "serial"

    def test_missing_serial_baseline_is_serial(self):
        assert _choose_from({"process": 0.1}) == "serial"

    def test_recorded_choice_is_never_slower(self):
        calibration = Calibration()
        entry = calibration.record("rcit", "memory", 8,
                                   {"serial": 1.0, "remote": 2.7,
                                    "process": 0.9}, n_rows=100)
        assert entry["chosen"] == "process"
        assert entry["seconds"]["process"] <= entry["seconds"]["serial"]


class TestCalibrationLookup:
    def build(self):
        calibration = Calibration()
        calibration.record("rcit", "memory", 4, {"serial": 1.0}, 100)
        calibration.record("rcit", "memory", 32,
                           {"serial": 1.0, "process": 0.4}, 100)
        calibration.record("g-test", "memory", 8,
                           {"serial": 1.0, "process": 0.5}, 100)
        return calibration

    def test_nearest_batch_size_wins(self):
        calibration = self.build()
        assert calibration.choose("rcit", "memory", batch_size=40) == "process"
        assert calibration.choose("rcit", "memory", batch_size=4) == "serial"

    def test_disagreeing_sizes_without_hint_keep_serial(self):
        assert self.build().choose("rcit", "memory") == "serial"

    def test_unanimous_sizes_allow_pooled(self):
        assert self.build().choose("g-test", "memory") == "process"

    def test_unknown_method_or_backend_is_serial(self):
        calibration = self.build()
        assert calibration.choose("kcit", "memory") == "serial"
        assert calibration.choose("rcit", "mmap") == "serial"
        assert calibration.choose(None) == "serial"


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "calibration.json"
        calibration = Calibration(path)
        calibration.record("rcit", "memory", 8,
                           {"serial": 1.0, "process": 0.5}, 100)
        calibration.save()
        payload = json.loads(path.read_text())
        assert payload["format"] == CALIBRATION_TAG
        assert payload["version"] == CALIBRATION_VERSION
        loaded = Calibration.load(path)
        assert loaded.choose("rcit", "memory") == "process"

    def test_save_merges_with_concurrent_writer(self, tmp_path):
        path = tmp_path / "calibration.json"
        first = Calibration(path)
        first.record("rcit", "memory", 8, {"serial": 1.0}, 100)
        second = Calibration(path)
        second.record("g-test", "memory", 8, {"serial": 1.0}, 100)
        first.save()
        second.save()
        entries = _read_document(str(path), CALIBRATION_TAG,
                                 CALIBRATION_VERSION)
        assert len(entries) == 2

    def test_store_calibration_path(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        assert store.calibration_path.endswith("calibration.json")
        assert len(store.calibration()) == 0  # never probed: empty


class TestDefaultExecutorIntegration:
    def test_no_calibration_means_serial_for_every_tester(self):
        # With REPRO_CI_EXECUTOR unset and no measurements, no pooled
        # executor can be picked for any tester.
        for tester in (RCIT(seed=0), GTestCI(), None):
            assert isinstance(default_executor(tester), SerialExecutor)

    def test_calibration_drives_the_choice(self):
        calibration = Calibration()
        calibration.record("rcit", "memory", 8,
                           {"serial": 1.0, "process": 0.4}, 100)
        set_active_calibration(calibration)
        assert isinstance(default_executor(RCIT(seed=0)), ProcessExecutor)
        # Unmeasured testers stay serial under the same calibration.
        assert isinstance(default_executor(GTestCI()), SerialExecutor)

    def test_measured_slower_keeps_serial(self):
        calibration = Calibration()
        calibration.record("rcit", "memory", 8,
                           {"serial": 1.0, "process": 2.7}, 100)
        set_active_calibration(calibration)
        assert isinstance(default_executor(RCIT(seed=0)), SerialExecutor)

    def test_retired_executor_choice_resolves_to_serial(self, tmp_path,
                                                        monkeypatch):
        """A calibration document probed when a threads executor still
        existed records ``"chosen": "threads"``; the lookup must fall
        back to serial, not make every ledger construction raise."""
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({
            "format": CALIBRATION_TAG, "version": CALIBRATION_VERSION,
            "entries": {json.dumps(["g-test", "memory", 8],
                                   separators=(",", ":")): {
                "seconds": {"serial": 1.0, "threads": 0.2},
                "chosen": "threads", "n_rows": 100}}}))
        monkeypatch.setenv("REPRO_CI_CALIBRATION", str(path))
        assert active_calibration().choose("g-test", "memory") == "serial"
        assert isinstance(default_executor(GTestCI()), SerialExecutor)

    def test_env_override_beats_calibration(self, monkeypatch):
        calibration = Calibration()
        calibration.record("rcit", "memory", 8,
                           {"serial": 1.0, "process": 0.4}, 100)
        set_active_calibration(calibration)
        monkeypatch.setenv(ENV_EXECUTOR, "serial")
        assert isinstance(default_executor(RCIT(seed=0)), SerialExecutor)
        monkeypatch.setenv(ENV_EXECUTOR, "process")
        assert isinstance(default_executor(GTestCI()), ProcessExecutor)

    def test_env_file_resolution(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        calibration = Calibration(path)
        calibration.record("g-test", "memory", 8,
                           {"serial": 1.0, "process": 0.2}, 100)
        calibration.save()
        monkeypatch.setenv("REPRO_CI_CALIBRATION", str(path))
        active = active_calibration()
        assert active is not None
        assert active.choose("g-test", "memory") == "process"
        assert isinstance(default_executor(GTestCI()), ProcessExecutor)


class TestProbe:
    def test_probe_records_and_respects_the_rule(self, tmp_path):
        path = tmp_path / "calibration.json"
        calibration = run_probe(
            testers=[GTestCI()], executors=("serial", "process"),
            batch_sizes=(4,), n_rows=120, repeats=1, n_workers=2,
            calibration=Calibration(path))
        rows = calibration.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "g-test" and row["backend"] == "memory"
        assert set(row["seconds"]) == {"serial", "process"}
        if row["chosen"] != "serial":
            assert (row["seconds"][row["chosen"]]
                    < row["seconds"]["serial"])
        # Saved on return, reloadable.
        assert Calibration.load(path).rows() == rows

    def test_default_testers_probe(self):
        """A bare ``run_probe()`` builds its own G-test and RCIT testers."""
        calibration = run_probe(executors=("serial",), batch_sizes=(2,),
                                n_rows=60, repeats=1)
        assert [row["method"] for row in calibration.rows()] == \
               ["g-test", "rcit"]

    def test_remote_joins_the_probe_only_when_a_queue_is_up(
            self, tmp_path, monkeypatch):
        """``remote`` is a measured candidate exactly when
        ``REPRO_CI_REMOTE_QUEUE`` names a live queue — probing a
        transport nobody serves would just measure a timeout."""
        monkeypatch.delenv("REPRO_CI_REMOTE_QUEUE", raising=False)
        assert probe_executors() == PROBE_EXECUTORS
        assert "remote" not in PROBE_EXECUTORS
        monkeypatch.setenv("REPRO_CI_REMOTE_QUEUE", str(tmp_path / "spool"))
        assert probe_executors() == PROBE_EXECUTORS + ("remote",)
