#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of sets.

    python3 perfbench/spread.py --workload table-grid [--runs 10] [--sets 2] [--first-seed 1]

Runs the benchmark ``--runs`` times in fresh processes, each with the
next seed, ``--sets`` times over. For every end-to-end metric it prints
each set's median and the distance between its first and third quartile
as a share of the median (``statistics.quantiles(values, n=4)``), and
for every later set how much worse its median is than the first set's.
Exits 1 if a run fails, if a spread exceeds its bound in BENCHMARK.json,
or if a later set's median is worse than the first's by more than it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(bench: dict, workload: str, seeds: range) -> dict[str, list[float]] | None:
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    medians: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for k in range(args.sets):
        print(f"set {k + 1}", flush=True)
        values = run_set(bench, args.workload,
                         range(args.first_seed, args.first_seed + args.runs))
        if values is None:
            return 1
        for m in bench["end_to_end"]:
            q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / med
            ok = ok and spread <= m["bound"]
            medians[m["name"]].append(med)
            print(f"{m['name']}: median {med:.6g} {m['unit']}, spread {spread:.4f} "
                  f"(bound {m['bound']}, {spread / m['bound']:.2f} of it)")
    for m in bench["end_to_end"]:
        first = medians[m["name"]][0]
        for k, med in enumerate(medians[m["name"]][1:], start=2):
            worse = (med - first) / first * (1 if m["better"] == "lower" else -1)
            ok = ok and worse <= m["bound"]
            print(f"{m['name']}: set {k} median is {worse:+.4f} worse than set 1 "
                  f"(bound {m['bound']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
