#!/usr/bin/env python3
"""Seconds per call of the population oracle on one frozen draw.

Prints the best of --repeats timed calls, in seconds, of drawing a
PopulationSample of --m units (scenario A, seed 0), of
asymptotic_report on it (logistic family, the oracle-report
benchmark's setting), and of each public oracle function at the
report's limit parameter. The last line describes the machine. Each
call runs once untimed before its timed calls.

Run from the repo root:

    PYTHONPATH=src python tools/oracle_cost.py [--m 1000000] [--repeats 3]

It writes nothing.
"""
from __future__ import annotations

import argparse
import time

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


def best_seconds(fn, repeats: int) -> float:
    fn()
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
    args = parser.parse_args()
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
    print("call,m,seconds")
    for name, fn in calls.items():
        print(f"{name},{args.m},{best_seconds(fn, args.repeats):.4f}")
    print(machine_line())


if __name__ == "__main__":
    main()
