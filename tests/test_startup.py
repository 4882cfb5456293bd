"""scipy.special loads at the first draw that needs ndtr, and in a pool's
parent just before it forks; `import cbara` alone never loads it. Each
case runs in a fresh interpreter, so sys.modules starts clean."""
import json

from conftest import run_python

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_after(code):
    """The scipy modules loaded once `code` has run in a fresh process."""
    proc = run_python(["-c", code + _REPORT])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cbara_loads_no_scipy():
    assert _scipy_after("import cbara, cbara.cli, cbara.acceptance") == []


def test_cli_errors_and_config_rendering_load_no_scipy(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("reps = 0\n")
    code = f"""
from cbara.cli import RunSpec, main, render_config
render_config(RunSpec())
assert main(["run", "--config", "/nonexistent/run.cfg"]) == 1
assert main(["run", "--config", {str(bad)!r}]) == 2
assert main(["table1", "--reps", "x"]) == 2
assert main(["table1", "--out", "/nonexistent/x.csv"]) == 1
"""
    assert _scipy_after(code) == []


def test_a_discrete_draw_loads_no_scipy():
    code = """
import numpy as np
from cbara.datagen import Scenario, ScenarioId, draw_unit_arrays
draw_unit_arrays(Scenario(ScenarioId.DISCRETE, 1.0), 256, np.random.default_rng(0))
"""
    assert _scipy_after(code) == []


def test_a_scenario_a_draw_loads_scipy_special():
    code = """
import numpy as np
from cbara.datagen import Scenario, ScenarioId, draw_unit_arrays
draw_unit_arrays(Scenario(ScenarioId.A), 256, np.random.default_rng(0))
"""
    assert "scipy.special" in _scipy_after(code)


def test_a_pool_parent_loads_scipy_special_before_forking():
    # both replications run in the workers; the parent draws nothing,
    # so only the load before the pool opens puts scipy.special there
    code = """
import sys
from cbara.cli import RunSpec, to_trial_config
from cbara.harness import ReplicationPlan, collect_plans
plan = ReplicationPlan(to_trial_config(RunSpec(n=40)), n_reps=2, base_seed=5)
pooled = collect_plans([plan], 2)
assert "scipy.special" in sys.modules
assert pooled == collect_plans([plan], 1)
"""
    _scipy_after(code)  # fails unless the asserts in `code` hold
