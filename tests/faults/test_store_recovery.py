"""Crash-consistent store recovery: torn writes quarantine and rebuild.

The stores are pure accelerators, so the recovery contract is strictly
"never crash, never lose live entries, never destroy someone else's
valid data": corrupt documents move aside as ``<file>.quarantine`` and
the next merge-on-save rebuilds a clean file; failed saves keep their
entries in memory and retry; well-formed foreign documents are left
untouched.

Each failure is made directly: a torn save is a document cut in half on
disk, a failed write or read is ``_write_document`` or the module's
``open`` monkeypatched to raise ``OSError``.
"""

import json
import os

import pytest

from repro.ci import store as store_module
from repro.ci.store import (FORMAT_TAG, FORMAT_VERSION, ExperimentStore,
                            PersistentCICache, _read_document)

RECORD = {"independent": True, "p_value": 0.5, "statistic": 1.0,
          "method": "g"}
KEY = ("fp", (("a",), ("b",), ()), "g", 0.05)


def put_one(cache, fingerprint="fp"):
    cache.put(fingerprint, (("a",), ("b",), ()), "g", 0.05, RECORD)


def fail_next_write(monkeypatch):
    """Make the next store write raise ``OSError``; later writes land."""
    write = store_module._write_document
    failed = []

    def flaky(*args, **kwargs):
        if not failed:
            failed.append(True)
            raise OSError("disk full")
        return write(*args, **kwargs)

    monkeypatch.setattr(store_module, "_write_document", flaky)


def refuse(*args, **kwargs):
    raise OSError("refused")


class TestQuarantine:
    def test_unparseable_json_quarantines_and_reads_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"format": "repro-ci-cache", "vers')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _read_document(str(path), FORMAT_TAG,
                                  FORMAT_VERSION) == {}
        assert not path.exists()
        corpse = tmp_path / "cache.json.quarantine"
        assert corpse.read_text().startswith('{"format"')

    def test_formatless_dict_quarantines(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"entries": {}}))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _read_document(str(path), FORMAT_TAG,
                                  FORMAT_VERSION) == {}
        assert not path.exists()

    def test_foreign_and_future_documents_are_not_touched(self, tmp_path):
        """Another tool's valid document (or a future version of ours)
        reads as empty but stays on disk — it is data, not corruption."""
        path = tmp_path / "cache.json"
        for payload in (
                {"format": "someone-elses", "version": 1, "entries": {}},
                {"format": FORMAT_TAG, "version": FORMAT_VERSION + 1,
                 "entries": {}}):
            path.write_text(json.dumps(payload))
            assert _read_document(str(path), FORMAT_TAG,
                                  FORMAT_VERSION) == {}
            assert path.exists()
            assert not (tmp_path / "cache.json.quarantine").exists()

    def test_failed_quarantine_reads_empty_and_leaves_the_file(
            self, tmp_path, monkeypatch):
        """Quarantine is best-effort: when the corrupt document cannot
        be moved aside it still reads as empty, nothing raises, the file
        stays where it was, and a warning names the path and the error."""
        path = tmp_path / "cache.json"
        path.write_text('{"format": "repro-ci-cache", "vers')
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refuse)
            with pytest.warns(RuntimeWarning,
                              match="could not be quarantined") as caught:
                assert _read_document(str(path), FORMAT_TAG,
                                      FORMAT_VERSION) == {}
        message = str(caught[0].message)
        assert str(path) in message and "refused" in message
        assert path.read_text() == '{"format": "repro-ci-cache", "vers'
        assert not (tmp_path / "cache.json.quarantine").exists()

    def test_torn_save_self_heals_on_the_next_save(self, tmp_path):
        """End to end: a save torn mid-write leaves the first half of a
        document on disk; the next cache to touch it quarantines the
        corpse and rebuilds from its live entries."""
        path = str(tmp_path / "cache.json")
        victim = PersistentCICache(path)
        put_one(victim)
        victim.save()
        with open(path, "rb") as handle:
            whole = handle.read()
        with open(path, "wb") as handle:
            handle.write(whole[:len(whole) // 2])
        with pytest.raises(ValueError):
            json.loads(open(path).read())
        with pytest.warns(RuntimeWarning, match="quarantined"):
            survivor = PersistentCICache(path)  # load finds the corpse
        put_one(survivor, fingerprint="fp2")
        survivor.save()
        healed = _read_document(path, FORMAT_TAG, FORMAT_VERSION)
        assert len(healed) == 1  # fp2 survives; the torn doc is aside
        assert os.path.exists(path + ".quarantine")


class TestResilientSaves:
    def test_failed_save_keeps_entries_and_retries(self, tmp_path,
                                                   monkeypatch):
        cache = PersistentCICache(str(tmp_path / "cache.json"))
        put_one(cache)
        fail_next_write(monkeypatch)
        with pytest.warns(RuntimeWarning, match="retained"):
            cache.save()
        assert cache._dirty == 1
        cache.save()  # only the first write fails: this one lands
        assert cache._dirty == 0
        reread = PersistentCICache(str(tmp_path / "cache.json"))
        assert reread.get(*KEY) == RECORD

    def test_injected_load_failure_reads_empty_never_raises(self, tmp_path,
                                                            monkeypatch):
        path = str(tmp_path / "cache.json")
        cache = PersistentCICache(path)
        put_one(cache)
        cache.save()
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "open", refuse, raising=False)
            assert len(PersistentCICache(path)) == 0  # failed read
        assert len(PersistentCICache(path)) == 1  # intact underneath

    def test_experiment_store_selection_save_is_resilient(self, tmp_path,
                                                          monkeypatch):
        store = ExperimentStore(str(tmp_path / "store"))
        store._selections["k"] = {"algorithm": "x"}
        store._dirty = 1
        fail_next_write(monkeypatch)
        with pytest.warns(RuntimeWarning, match="retained"):
            store._save_selections()
        assert store._dirty == 1
        store._save_selections()
        assert store._dirty == 0
        assert ExperimentStore(str(tmp_path / "store")).n_selections == 1
