"""The central env-var registry: defaults, parsing, and doc generation."""

from pathlib import Path

import pytest

from repro import env

README = Path(__file__).resolve().parents[2] / "README.md"


class TestReadSemantics:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(env.CI_TESTER.name, raising=False)
        assert env.CI_TESTER.read() == "rcit"
        assert not env.CI_TESTER.is_set()

    def test_empty_string_reads_as_unset(self, monkeypatch):
        # The CI matrix pins legs with REPRO_CI_TESTER: "" and must get
        # the default.
        monkeypatch.setenv(env.CI_TESTER.name, "")
        assert env.CI_TESTER.read() == "rcit"
        assert not env.CI_TESTER.is_set()

    def test_whitespace_is_stripped(self, monkeypatch):
        monkeypatch.setenv(env.CI_TESTER.name, "  gtest  ")
        assert env.CI_TESTER.read() == "gtest"

    def test_read_int_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(env.CI_JOBS.name, raising=False)
        assert env.CI_JOBS.read_int() is None

    def test_read_int_parses(self, monkeypatch):
        monkeypatch.setenv(env.CI_JOBS.name, "4")
        assert env.CI_JOBS.read_int() == 4

    def test_read_int_names_the_variable_on_garbage(self, monkeypatch):
        monkeypatch.setenv(env.CI_JOBS.name, "bogus")
        with pytest.raises(ValueError, match="REPRO_CI_JOBS"):
            env.CI_JOBS.read_int()

    def test_read_int_enforces_minimum(self, monkeypatch):
        monkeypatch.setenv(env.CI_WAVE_CELLS.name, "0")
        with pytest.raises(ValueError, match="must be >= 1"):
            env.CI_WAVE_CELLS.read_int(minimum=1)

    def test_write_and_unset(self, monkeypatch):
        monkeypatch.setenv(env.CI_EXECUTOR.name, "placeholder")
        env.CI_EXECUTOR.write("serial")
        assert env.CI_EXECUTOR.read() == "serial"
        env.CI_EXECUTOR.unset()
        assert not env.CI_EXECUTOR.is_set()


class TestRegistry:
    def test_all_names_are_repro_prefixed_and_sorted(self):
        names = [entry.name for entry in env.registry()]
        assert names == ["REPRO_CI_EXECUTOR", "REPRO_CI_JOBS",
                         "REPRO_CI_TESTER", "REPRO_CI_WAVE_CELLS"]

    def test_var_lookup(self):
        assert env.var("REPRO_CI_TESTER") is env.CI_TESTER
        with pytest.raises(KeyError, match="unregistered"):
            env.var("REPRO_NOT_A_THING")

    def test_by_name_helpers(self, monkeypatch):
        monkeypatch.setenv(env.CI_JOBS.name, "3")
        assert env.read_int("REPRO_CI_JOBS") == 3
        assert env.read("REPRO_CI_JOBS") == "3"

    def test_every_variable_is_documented(self):
        for entry in env.registry():
            assert entry.description.strip()


def test_readme_embeds_the_generated_table():
    # Docs cannot drift from the registry: the README's env-var table is
    # asserted to be exactly markdown_table()'s output.
    readme = README.read_text(encoding="utf-8")
    assert env.markdown_table() in readme
