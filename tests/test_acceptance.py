"""Acceptance gate: every criterion prints one PASS/FAIL line and must
hold. The full battery runs once per session (a few minutes); see the
package acceptance module for what each criterion measures."""
import numpy as np
import pytest

import cbara.acceptance as acceptance
from cbara.acceptance import (
    _SEED,
    CRITERION_NAMES,
    CriterionResult,
    _balance_split,
    _config,
    _Shared,
    run_acceptance,
)
from cbara.engine import Allocation
from cbara.harness import split_seed


@pytest.fixture(scope="module")
def results():
    out = run_acceptance()
    for res in out:
        print(("PASS" if res.passed else "FAIL"), res.name, "::", res.detail)
    return {res.name: res for res in out}


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(results, name):
    res = results[name]
    assert res.passed, f"FAIL {res.name}: {res.detail}"


def test_informational_split_stays_out_of_the_clip_audit():
    # criterion 11's reading must not depend on whether criterion 7 failed
    sh = _Shared()
    sh.clip_trials, sh.max_clip_excess = 7, 1e-17
    line = _balance_split(sh, 60, 4, np.zeros(4), 1.0)
    assert line.startswith("informational N=60: N*mse=")
    assert (sh.clip_trials, sh.max_clip_excess) == (7, 1e-17)


def test_base_seed_reaches_the_shared_runs(monkeypatch):
    seen = []

    def record(sh):
        seen.append(sh)
        return CriterionResult(CRITERION_NAMES[0], True, "")

    monkeypatch.setattr(acceptance, "_CRITERIA", (record,))
    run_acceptance(seed=5)
    run_acceptance()
    cfg = _config(60, Allocation.DIRECT)
    assert [sh.plan(3, cfg, 2).base_seed for sh in seen] == [
        split_seed(5, 3), split_seed(_SEED, 3)
    ]
