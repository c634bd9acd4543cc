"""Acceptance battery: one test per criterion, one printed line each.

The criteria themselves (seeds, budgets, tolerances) live in
sqcflow.bench.CRITERIA so that ``sqcflow bench --suite acceptance`` runs
the identical battery.
"""

import pytest

from sqcflow.bench import CRITERIA, criterion_determinism


@pytest.mark.parametrize("key,description,runner", CRITERIA,
                         ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(key, description, runner, tmp_path, capsys):
    ok, detail = runner(tmp_path)
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"{status} {key}: {description} [{detail}]")
    assert ok, f"{key} failed: {detail}"


def test_determinism_criterion_prints_nothing(tmp_path, capsys):
    ok, detail = criterion_determinism(tmp_path)
    assert ok, detail
    assert capsys.readouterr().out == ""
