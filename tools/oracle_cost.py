#!/usr/bin/env python3
"""Seconds and traced memory per call of the population oracle on one frozen draw.

Prints, for drawing a PopulationSample of --m units (scenario A, seed
0), for asymptotic_report on it (logistic family, the oracle-report
benchmark's setting), and for each public oracle function at the
report's limit parameter: the best of --repeats timed calls, in
seconds, and the peak memory the call allocates, in MB (2**20 bytes,
as perfbench's peak_rss_mb). The peak is tracemalloc's traced peak
over one untimed call, made before the timed calls, which run with
tracemalloc off; numpy reports its array data to tracemalloc, so the
peak counts every buffer the call holds at once. After the rows, one
line gives rss_mb: the peak RSS (ru_maxrss, in MB as perfbench's
peak_rss_mb) of a fresh process that draws one PopulationSample of
--m units and runs asymptotic_report on it, the shape of perfbench's
oracle-report workload, so the gated figure reads next to the traced
peaks. The last line describes the machine.

Run from the repo root:

    PYTHONPATH=src python tools/oracle_cost.py [--m 1000000] [--repeats 3] [--json PATH]

It writes nothing unless --json names a file; that file then gets the
same rows, as a "calls" list of {call, m, seconds, peak_mb} objects,
with rss_mb, --repeats and the machine line.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import tracemalloc

from cbara.datagen import Scenario, ScenarioId
from cbara.oracle import (
    PopulationSample,
    asymptotic_report,
    balance_coeff_a,
    ipw_asym_var,
    mest_covariance,
    oracle_theta_star,
    sigma_z_sq,
)
from cbara.policy import Family, TargetPolicy
from machine import machine_line


def traced_peak_mb(fn) -> float:
    """tracemalloc's peak over one call of fn, above what was traced
    before it, in MB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


# one population and one logistic report in a fresh process, then its peak RSS
_REPORT_CHILD = """
import resource, sys
from cbara.datagen import Scenario, ScenarioId
from cbara.oracle import PopulationSample, asymptotic_report
from cbara.policy import Family, TargetPolicy
pop = PopulationSample(Scenario(ScenarioId.A), seed=0, m=int(sys.argv[1]))
asymptotic_report(pop, TargetPolicy(family=Family.LOGISTIC))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)  # KiB on Linux
"""


def report_rss_mb(m: int) -> float:
    """Peak RSS of a fresh process that reports on one m-unit population,
    in MB. On Linux a child's ru_maxrss starts at its parent's RSS when
    it is spawned, so call this before the parent holds any population."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_CHILD, str(m)], capture_output=True, text=True, check=True
    )
    return float(proc.stdout)


def best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--m", type=int, default=10**6)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", help="also write the rows to this JSON file")
    args = parser.parse_args()
    rss_mb = round(report_rss_mb(args.m), 2)
    scenario = Scenario(ScenarioId.A)
    policy = TargetPolicy(family=Family.LOGISTIC)
    pop = PopulationSample(scenario, seed=0, m=args.m)
    theta = oracle_theta_star(pop)
    a = balance_coeff_a(pop, theta, policy)
    calls = {
        "PopulationSample": lambda: PopulationSample(scenario, seed=0, m=args.m),
        "asymptotic_report": lambda: asymptotic_report(pop, policy),
        "oracle_theta_star": lambda: oracle_theta_star(pop),
        "balance_coeff_a": lambda: balance_coeff_a(pop, theta, policy),
        "sigma_z_sq": lambda: sigma_z_sq(pop, theta, policy, a),
        "ipw_asym_var": lambda: ipw_asym_var(pop, theta, policy),
        "ipw_asym_var(balance=False)": lambda: ipw_asym_var(pop, theta, policy, balance=False),
        "mest_covariance": lambda: mest_covariance(pop, theta, policy),
    }
    print("call,m,seconds,peak_mb")
    rows = []
    for name, fn in calls.items():
        peak_mb = traced_peak_mb(fn)
        row = {
            "call": name,
            "m": args.m,
            "seconds": round(best_seconds(fn, args.repeats), 4),
            "peak_mb": round(peak_mb, 2),
        }
        rows.append(row)
        print(f"{name},{args.m},{row['seconds']:.4f},{row['peak_mb']:.2f}")
    print(f"# rss_mb: {rss_mb:.2f}")
    machine = machine_line()
    print(machine)
    if args.json:
        out = {"repeats": args.repeats, "calls": rows, "rss_mb": rss_mb, "machine": machine}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
