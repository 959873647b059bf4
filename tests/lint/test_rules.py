"""Per-rule fixture tests: each rule fires on its bad fixture and stays
silent on the matching good fixture."""

from pathlib import Path

import pytest

from repro.lint import lint_paths, rules

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (fixture path relative to good/ and bad/, findings expected
#: from the bad variant)
CASES = {
    "RL101": ("tokens.py", 2),
    "RL102": ("ci/seeds.py", 3),
    "RL103": ("ci/executor.py", 5),
    "RL104": ("ci/fusion.py", 2),
    "RL106": ("envread.py", 3),
}


def test_every_rule_has_a_fixture_pair():
    assert set(CASES) == {rule.id for rule in rules()}
    for rel, _ in CASES.values():
        assert (FIXTURES / "good" / rel).is_file()
        assert (FIXTURES / "bad" / rel).is_file()


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_fires(rule_id):
    rel, expected = CASES[rule_id]
    run = lint_paths([FIXTURES / "bad" / rel])
    assert len(run.findings) == expected
    # Each bad fixture is crafted to violate exactly its own rule.
    assert {f.rule_id for f in run.findings} == {rule_id}
    for finding in run.findings:
        assert finding.line > 0
        assert finding.path.endswith(rel)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_fixture_is_clean(rule_id):
    rel, _ = CASES[rule_id]
    run = lint_paths([FIXTURES / "good" / rel])
    assert run.findings == ()


def test_good_tree_is_clean_as_a_whole():
    run = lint_paths([FIXTURES / "good"])
    assert run.findings == ()
    assert run.n_files == len(CASES)


def test_bad_tree_covers_every_rule():
    run = lint_paths([FIXTURES / "bad"])
    assert {f.rule_id for f in run.findings} == set(CASES)
    assert len(run.findings) == sum(n for _, n in CASES.values())
