#!/usr/bin/env python3
"""Record perfbench/baseline.json: one untraced and two traced runs of
every workload at the default seed, frozen-chain included.

    python3 perfbench/record_baseline.py

Every run lasts BENCHMARK.json's ``run_seconds``.

The two traced runs must report identical exact counts (every per-layer
metric whose unit is ``count`` or ``bytes``); the script exits 1 and
writes nothing if they differ or if any run fails its checks.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402

EXACT_UNITS = ("count", "bytes")


def run(bench: dict, workload: str, seconds: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return json.loads((HERE / "out" / f"result-{workload}-seed0-trace{trace}.json").read_text())


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    baseline = {"seed": 0, "seconds": seconds, "workloads": {}}
    ok = True
    for w in WORKLOAD_NAMES:
        plain = run(bench, w, seconds, 0)
        traced = [run(bench, w, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["per_layer"].items() if v["unit"] in EXACT_UNITS}
                  for t in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        ok = ok and not differ
        print(f"{w}: wall_s {plain['end_to_end']['wall_s']['value']:.4f} s, "
              f"counts {'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        baseline["workloads"][w] = {
            "machine": plain["machine"],
            "reference": plain["reference"],
            "end_to_end": plain["end_to_end"],
            "per_layer": traced[0]["per_layer"],
            "per_layer_second_run": traced[1]["per_layer"],
            "traced": traced[0]["traced"],
            "exact_counts_repeat": not differ,
        }
    if not ok:
        return 1
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
