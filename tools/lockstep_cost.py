#!/usr/bin/env python3
"""Cost of engine.run_lockstep per trial-step on a table grid.

For each plan of a `cbara table1` config this prints the microseconds
per trial-step (one unit of one trial) of run_lockstep on that plan's
replications alone, then the same for every replication of the grid
as one batch per step schedule, which is how the harness lines up a
grid before it cuts the line into one shard per worker. The last line
describes the machine. Each figure is the best of --repeats runs in
this process, after one untimed warm-up run.

Run from the repo root:

    PYTHONPATH=src python tools/lockstep_cost.py [--config perfbench/table_grid.cfg] [--repeats 3]

It only reads the config and writes nothing.
"""
from __future__ import annotations

import argparse
import pathlib
import time

from cbara.cli import grid_plans, parse_config
from cbara.engine import run_lockstep, step_schedule
from cbara.harness import replication_configs
from machine import machine_line

ROOT = pathlib.Path(__file__).resolve().parents[1]


def us_per_step(configs, repeats: int) -> float:
    """Best time of run_lockstep(configs), in us per trial-step."""
    run_lockstep(configs)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_lockstep(configs)
        best = min(best, time.perf_counter() - start)
    steps = sum(c.n_units for c in configs)
    return best / steps * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(ROOT / "perfbench" / "table_grid.cfg"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    with open(args.config, encoding="utf-8") as fh:
        plans = grid_plans(parse_config(fh.read()))

    print("batch,rows,n_units,us_per_trial_step")
    for plan in plans:
        cfg = plan.base_config
        label = "/".join(
            (cfg.scenario.id.value, cfg.policy.family.value, cfg.weighting.value,
             cfg.allocation.value, cfg.mechanism.kind.value)
        )
        cost = us_per_step(replication_configs(plan), args.repeats)
        print(f"{label},{plan.n_reps},{cfg.n_units},{cost:.2f}")
    # the grid as the harness batches it: one batch per step schedule
    batches: dict[tuple, list] = {}
    for plan in plans:
        for cfg in replication_configs(plan):
            batches.setdefault(step_schedule(cfg), []).append(cfg)
    for k, batch in enumerate(batches.values(), start=1):
        cost = us_per_step(batch, args.repeats)
        print(f"grid {k}/{len(batches)},{len(batch)},{batch[0].n_units},{cost:.2f}")
    print(machine_line())


if __name__ == "__main__":
    main()
