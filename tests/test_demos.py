"""Every narrative script under demos/ runs to completion."""
import pytest
from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    proc = run_python([str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
