"""Crash-consistent store recovery: torn appends truncate, failed saves retry.

The stores are pure accelerators, so the recovery contract is strictly
"never crash, never lose live entries, never destroy someone else's
valid data": a record torn by a crash mid-append is skipped by readers
and truncated by the next saver; failed saves keep their entries in
memory and retry; a file that is not a current log reads as empty, is
left alone by readers and is never appended to.

Each failure is made directly: a torn append is a log cut mid-record on
disk, a failed write or read is ``_write_all`` or the module's ``open``
monkeypatched to raise ``OSError``.
"""

import json
import os
import warnings

import pytest

from repro.ci import store as store_module
from repro.ci.store import (FORMAT_TAG, FORMAT_VERSION, ExperimentStore,
                            PersistentCICache)

RECORD = {"independent": True, "p_value": 0.5, "statistic": 1.0,
          "method": "g"}
KEY = ("fp", (("a",), ("b",), ()), "g", 0.05)


def put_one(cache, fingerprint="fp"):
    cache.put(fingerprint, (("a",), ("b",), ()), "g", 0.05, RECORD)


def fail_next_write(monkeypatch, written=0.0):
    """Make the next store write raise ``OSError`` after writing the
    ``written`` fraction of its bytes; later writes land."""
    write = store_module._write_all
    failed = []

    def flaky(descriptor, data):
        if not failed:
            failed.append(True)
            os.write(descriptor, data[:int(len(data) * written)])
            raise OSError("disk full")
        return write(descriptor, data)

    monkeypatch.setattr(store_module, "_write_all", flaky)


def refuse(*args, **kwargs):
    raise OSError("refused")


def torn_log(tmp_path):
    """A log of three one-record saves whose last record is cut in half;
    returns its path and the number of torn bytes."""
    path = tmp_path / "cache.json"
    cache = PersistentCICache(path)
    for index in range(3):
        put_one(cache, fingerprint=f"fp{index}")
        cache.save()
    whole = path.read_bytes()
    last = whole.rstrip(b"\n").rfind(b"\n") + 1
    cut = last + (len(whole) - last) // 2
    path.write_bytes(whole[:cut])
    return path, cut - last


class TestTornTail:
    def test_reopen_reads_every_complete_record_without_warning(
            self, tmp_path):
        path, _ = torn_log(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = PersistentCICache(path)
        assert len(cache) == 2
        assert cache.get("fp0", *KEY[1:]) == RECORD
        assert cache.get("fp1", *KEY[1:]) == RECORD

    def test_damaged_line_is_skipped(self, tmp_path):
        """A line that is not a ``[key, record]`` record (a hand edit)
        costs only itself: the records around it still load."""
        path, _ = torn_log(tmp_path)
        header, first, second = path.read_bytes().split(b"\n")[:3]
        path.write_bytes(b"\n".join(
            [header, first, b"not json", b"[1, 2, 3]", second, b""]))
        cache = PersistentCICache(path)
        assert len(cache) == 2
        assert cache.get("fp1", *KEY[1:]) == RECORD

    def test_torn_save_self_heals_on_the_next_save(self, tmp_path):
        """End to end: the next save truncates the torn record with one
        warning naming the path and the bytes dropped, then appends its
        own records; nothing is moved aside."""
        path, torn = torn_log(tmp_path)
        survivor = PersistentCICache(path)
        put_one(survivor, fingerprint="fp9")
        with pytest.warns(RuntimeWarning) as caught:
            survivor.save()
        assert len(caught) == 1
        message = str(caught[0].message)
        assert str(path) in message and f"{torn} bytes" in message
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""  # ends on a complete line
        assert all(json.loads(line) for line in lines[:-1])
        healed = PersistentCICache(path)
        assert len(healed) == 3
        assert healed.get("fp9", *KEY[1:]) == RECORD
        assert os.listdir(tmp_path) == ["cache.json"]


class TestNonLogFiles:
    def test_foreign_and_future_documents_are_not_touched(self, tmp_path):
        """Another tool's valid document (or a future version of ours)
        reads as empty, and reading leaves it on disk as it was."""
        path = tmp_path / "cache.json"
        for text in (
                json.dumps({"format": "someone-elses", "version": 1}) + "\n",
                json.dumps({"format": FORMAT_TAG,
                            "version": FORMAT_VERSION + 1}) + "\n"):
            path.write_text(text)
            assert len(PersistentCICache(path)) == 0
            assert path.read_text() == text
            assert os.listdir(tmp_path) == ["cache.json"]

    @pytest.mark.parametrize("text", [
        "",
        "garbage\n",
        json.dumps({"format": "someone-elses", "version": 2}) + "\n",
        json.dumps({"format": FORMAT_TAG, "version": 1,
                    "entries": {"k": RECORD}}),
        json.dumps({"format": FORMAT_TAG, "version": FORMAT_VERSION + 1})
        + "\n" + json.dumps(["k", RECORD]) + "\n",
    ], ids=["empty", "garbage", "foreign", "v1", "future"])
    def test_save_replaces_a_non_log_file_and_never_appends(self, tmp_path,
                                                            text):
        path = tmp_path / "cache.json"
        path.write_text(text)
        cache = PersistentCICache(path)
        put_one(cache)
        cache.save()
        lines = path.read_text().split("\n")
        assert json.loads(lines[0]) == {"format": FORMAT_TAG,
                                        "version": FORMAT_VERSION}
        assert len(lines) == 3 and lines[-1] == ""  # header, one record
        assert PersistentCICache(path).get(*KEY) == RECORD
        assert os.listdir(tmp_path) == ["cache.json"]


class TestResilientSaves:
    def test_failed_save_keeps_entries_and_retries(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "cache.json"
        cache = PersistentCICache(path)
        put_one(cache)
        fail_next_write(monkeypatch, written=0.5)
        with pytest.warns(RuntimeWarning, match="retained"):
            cache.save()
        assert len(cache._log.dirty) == 1
        assert os.listdir(tmp_path) == []  # no log, no temp file
        cache.save()  # only the first write fails: this one lands
        assert len(cache._log.dirty) == 0
        reread = PersistentCICache(path)
        assert reread.get(*KEY) == RECORD

    def test_failed_append_leaves_the_log_intact(self, tmp_path,
                                                 monkeypatch):
        """An append that fails halfway is cut back off, so the log
        holds no part of it; the retry appends the record whole."""
        path = tmp_path / "cache.json"
        with PersistentCICache(path) as first:
            put_one(first, fingerprint="fp0")
        before = path.read_bytes()
        cache = PersistentCICache(path)
        put_one(cache)
        fail_next_write(monkeypatch, written=0.5)
        with pytest.warns(RuntimeWarning, match="retained"):
            cache.save()
        assert path.read_bytes() == before
        cache.save()
        reread = PersistentCICache(path)
        assert len(reread) == 2 and reread.get(*KEY) == RECORD
        assert os.listdir(tmp_path) == ["cache.json"]

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
        store._selections.put("k", {"algorithm": "x"})
        fail_next_write(monkeypatch)
        with pytest.warns(RuntimeWarning, match="retained"):
            store._save_selections()
        assert len(store._selections.dirty) == 1
        store._save_selections()
        assert len(store._selections.dirty) == 0
        assert ExperimentStore(str(tmp_path / "store")).n_selections == 1
