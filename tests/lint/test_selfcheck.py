"""The linter's own acceptance gate: the shipped source tree is clean."""

from repro.lint import all_checkers, default_target, lint_paths, rules


def test_source_tree_has_no_findings():
    run = lint_paths([default_target()])
    assert run.findings == (), "\n".join(
        f.render() for f in run.findings)
    assert run.n_files > 50  # the whole package was actually scanned


def test_registry_is_well_formed():
    registered = rules()
    ids = [rule.id for rule in registered]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids) == 5
    names = {rule.name for rule in registered}
    assert len(names) == 5
    assert all(rule.contract for rule in registered)
    assert [c.rule.id for c in all_checkers()] == ids
