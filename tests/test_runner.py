"""The verify-all runner, driven with stub checks in place of the real ones."""

import time

import pytest

from cel import verify
from cel.errors import SolverError


def check_crashes(params):
    time.sleep(0.001)
    raise SolverError("eigensolver did not converge")


def check_passes(params):
    return True, f"mobius_steps={params['mobius_steps']}"


def check_fails(params):
    return False, "ratio=1.05000"


def test_a_crash_is_a_timed_fail(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [(check_crashes, None)])
    (res,) = verify.run_all("fast")
    assert res.name == "crashes"
    assert not res.passed
    assert res.detail == "SolverError: eigensolver did not converge"
    assert res.elapsed > 0.0


def test_a_check_past_its_budget_fails_with_its_detail(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [(check_passes, 0.0),
                                           (check_passes, 60.0)])
    over, under = verify.run_all("full")
    assert not over.passed and over.detail == "mobius_steps=60"
    assert under.passed and under.detail == "mobius_steps=60"


def test_names_come_from_the_functions_in_table_order(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [(check_fails, None),
                                           (check_crashes, 30.0),
                                           (check_passes, None)])
    results = verify.run_all("fast")
    assert [r.name for r in results] == ["fails", "crashes", "passes"]
    assert [r.passed for r in results] == [False, False, True]
    assert results[0].detail == "ratio=1.05000"


def test_every_real_check_is_named_once():
    names = [check.__name__.removeprefix("check_") for check, _ in verify.CHECKS]
    assert len(names) == 12 == len(set(names))
    assert all(budget is None or budget > 0.0 for _, budget in verify.CHECKS)


def test_unknown_profile_is_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        verify.run_all("quick")
