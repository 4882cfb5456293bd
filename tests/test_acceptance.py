"""Acceptance gate: every criterion prints one PASS/FAIL line and must
hold. The full battery runs once per session (a few minutes); see the
package acceptance module for what each criterion measures."""
import numpy as np
import pytest

from cbara.acceptance import CRITERION_NAMES, _balance_split, _Shared, run_acceptance


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
