#!/usr/bin/env python3
"""Seconds of a fresh process's start-up, phase by phase.

Runs --repeats fresh interpreters. Each times, in order: `import
numpy`, `import cbara`, the first scenario A draw_unit_arrays of 256
units (which loads scipy.special) and a second, warm draw of 256. Then
it times --repeats runs of `python -m cbara run --config /nonexistent`,
a config error, from process start to exit. It prints the median of
each phase as `phase,seconds` and a closing line that describes the
machine.

Run from the repo root:

    PYTHONPATH=src python tools/startup_cost.py [--repeats 8]

It writes nothing.
"""
from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time

import scipy

from machine import machine_line

PHASES = ("import_numpy", "import_cbara", "first_draw_A_256", "second_draw_A_256")

_CHILD = """
import time
t0 = time.perf_counter()
import numpy as np
t1 = time.perf_counter()
import cbara
from cbara.datagen import Scenario, ScenarioId, draw_unit_arrays
t2 = time.perf_counter()
scenario, rng = Scenario(ScenarioId.A), np.random.default_rng(0)
draw_unit_arrays(scenario, 256, rng)
t3 = time.perf_counter()
draw_unit_arrays(scenario, 256, rng)
t4 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2, t4 - t3)
"""


def phase_seconds() -> list[float]:
    """One fresh process's seconds per entry of PHASES."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, check=True
    )
    return [float(v) for v in proc.stdout.split()]


def error_exit_seconds() -> float:
    """Wall seconds of one `cbara run` that stops at a missing config."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cbara", "run", "--config", "/nonexistent"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 1 or not proc.stderr.startswith("cbara-error:"):
        raise SystemExit(f"unexpected exit {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=8)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    per_phase = list(zip(*(phase_seconds() for _ in range(args.repeats))))
    rows = dict(zip(PHASES, per_phase))
    rows["cli_error_exit"] = [error_exit_seconds() for _ in range(args.repeats)]
    print("phase,seconds")
    for name, seconds in rows.items():
        print(f"{name},{statistics.median(seconds):.6f}")
    print(machine_line(scipy=scipy.__version__))


if __name__ == "__main__":
    main()
