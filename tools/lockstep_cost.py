#!/usr/bin/env python3
"""Cost of engine.run_lockstep per trial-step on a table grid.

For each plan of a `cbara table1` config this prints the microseconds
per trial-step (one unit of one trial) of run_lockstep on that plan's
replications alone, then the same for every replication of the grid
as one batch per step schedule, which is how the harness lines up a
grid before it cuts the line into one shard per worker. Two fixed
shapes follow, whatever the config: run_lockstep on the ten trials of
the benchmark's adaptive-replicate workload (logistic, weighted,
balance, clipped, N = 800), and run_trial on the first of them alone,
the scalar path of a one-trial shard (780 of its 800 steps refit). The
last line describes the machine. Each figure is the best of --repeats
runs in this process, after one untimed warm-up run.

Run from the repo root:

    PYTHONPATH=src python tools/lockstep_cost.py [--config perfbench/table_grid.cfg] [--repeats 3] [--json PATH]

It reads the config and writes nothing unless --json names a file;
that file then gets the same rows, as "plans", "batches" and "shapes"
lists of {batch, rows, n_units, us_per_trial_step} objects, with the
config path, --repeats and the machine line.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import time

from cbara.adapt import UpdateMechanism
from cbara.cli import grid_plans, parse_config
from cbara.datagen import Scenario, ScenarioId
from cbara.engine import Allocation, TrialConfig, run_lockstep, run_trial, step_schedule
from cbara.estimator import Weighting
from cbara.harness import ReplicationPlan, replication_configs
from cbara.policy import Family, TargetPolicy
from machine import machine_line

ROOT = pathlib.Path(__file__).resolve().parents[1]


# the ten trials of perfbench's adaptive-replicate workload at seed 0
ADAPTIVE_REPLICATE = replication_configs(ReplicationPlan(
    base_config=TrialConfig(
        n_units=800,
        scenario=Scenario(ScenarioId.A),
        policy=TargetPolicy(family=Family.LOGISTIC),
        weighting=Weighting.WEIGHTED,
        mechanism=UpdateMechanism.clipped(1.0, 0.5),
        allocation=Allocation.BALANCE,
        keep_log=False,
    ),
    n_reps=10,
    base_seed=0,
))


def us_per_step(configs, repeats: int) -> float:
    """Best time of run_lockstep(configs), or of run_trial on a single
    config, in us per trial-step."""
    run = run_lockstep if len(configs) > 1 else lambda cfgs: run_trial(cfgs[0])
    run(configs)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run(configs)
        best = min(best, time.perf_counter() - start)
    steps = sum(c.n_units for c in configs)
    return best / steps * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(ROOT / "perfbench" / "table_grid.cfg"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", help="also write the rows to this JSON file")
    args = parser.parse_args()
    with open(args.config, encoding="utf-8") as fh:
        plans = grid_plans(parse_config(fh.read()))

    rows = {"plans": [], "batches": [], "shapes": []}

    def emit(kind, label, configs):
        row = {
            "batch": label,
            "rows": len(configs),
            "n_units": configs[0].n_units,
            "us_per_trial_step": round(us_per_step(configs, args.repeats), 2),
        }
        rows[kind].append(row)
        print(f"{label},{row['rows']},{row['n_units']},{row['us_per_trial_step']:.2f}")

    print("batch,rows,n_units,us_per_trial_step")
    for plan in plans:
        cfg = plan.base_config
        label = "/".join(
            (cfg.scenario.id.value, cfg.policy.family.value, cfg.weighting.value,
             cfg.allocation.value, cfg.mechanism.kind.value)
        )
        emit("plans", label, replication_configs(plan))
    # the grid as the harness batches it: one batch per step schedule
    batches: dict[tuple, list] = {}
    for plan in plans:
        for cfg in replication_configs(plan):
            batches.setdefault(step_schedule(cfg), []).append(cfg)
    for k, batch in enumerate(batches.values(), start=1):
        emit("batches", f"grid {k}/{len(batches)}", batch)
    emit("shapes", "adaptive-replicate", ADAPTIVE_REPLICATE)
    emit("shapes", "adaptive-replicate run_trial", ADAPTIVE_REPLICATE[:1])
    machine = machine_line()
    print(machine)
    if args.json:
        out = {"config": args.config, "repeats": args.repeats, **rows, "machine": machine}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
