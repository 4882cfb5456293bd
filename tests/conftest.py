import os
import pathlib
import subprocess
import sys

from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(args, env_extra=None) -> subprocess.CompletedProcess:
    """Run the interpreter on args in a child process at the repo root,
    capturing its text output. The child's environment is this one with
    the absolute src/ first on PYTHONPATH and CBARA_SEED dropped, then
    env_extra applied, so every child imports this checkout's package
    and starts from the default seed."""
    env = dict(os.environ)
    env.pop("CBARA_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )
