"""Replicated trials: seeding, parallel execution, metric aggregation.

Seed discipline. Replication k of a plan runs with
seed_k = split_seed(base_seed, k), where split_seed is the SplitMix64
finalizer applied to base_seed + (k + 1) * 0x9E3779B97F4A7C15 (all
arithmetic mod 2**64). The function is pure and documented here so
other tools can regenerate any replication's stream exactly.

collect_plans is the one scheduler. The worker count is an argument
of each call (`parallelism`, 1 unless given), not a property of a plan;
collect, run_replications and aggregate_grid pass theirs on. A call
opens at most one process pool, with `parallelism` workers, and none
when there is one worker or one shard. It groups the plans by step
schedule (engine.step_schedule), lines up each group's replications in
plan order, then replication order, and cuts that line into
`parallelism` contiguous shards whose sizes differ by at most one, or
into more when a shard would exceed SHARD_MAX rows. A single plan
therefore splits into `parallelism` shards, and a grid whose cells
share one schedule, as a `cbara table1` grid of one size does, runs as
`parallelism` shards that each mix many plans. A shard of several
replications runs through engine.run_lockstep and a shard of one
through engine.run_trial; both build the same engine.TrialResult bit
for bit, so neither the split nor the shard size changes any result.
That record, with the log off, is what the scheduler returns: one per
replication, holding TrialStats, Lambda_N, theta_N, the update totals
and the per-atom counts. `collect` alone projects it to TrialStats. A
lockstep row holds about 49 KB of state at its peak (mostly two
256-unit blocks of draws, as a block is drawn while pending responses
still hold the previous one), so a shard of SHARD_MAX rows needs about
100 MB.

The parent loads scipy.special (datagen._load_ndtr) just before it
opens a pool. datagen loads that module only at a process's first draw
(see there), so without this each worker of each pool would pay it,
which more than doubles the wall time of a small `cbara table1` grid
at two workers. Forked workers inherit the parent's loaded modules, so they
pay nothing. Under a spawn or forkserver start method (the default on
Linux from Python 3.14) workers do not inherit it, and each imports
scipy.special at its first draw.

Aggregation sums per-replication statistics with math.fsum, which is
exactly rounded and therefore independent of completion order; together
with index-ordered result collection this makes summaries bit-identical
across parallelism levels and reruns. `summarize` takes bias and MSE
against the scenario's true effect, so no caller pairs the two. The
harness knows nothing of table layout: `aggregate_grid` returns one
summary per plan, and `cli.emit_tables` reads each cell's labels from
the plan's config.
"""
from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Union

from .datagen import Scenario, _load_ndtr, true_ate
from .engine import (
    TrialConfig,
    TrialResult,
    TrialStats,
    _check_int,
    run_lockstep,
    run_trial,
    step_schedule,
)

SHARD_MAX = 2000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def split_seed(base_seed: int, k: int) -> int:
    """Derive the seed for replication k from a plan's base seed."""
    x = (base_seed + (k + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True, slots=True)
class ReplicationPlan:
    base_config: TrialConfig
    n_reps: int
    base_seed: int

    def __post_init__(self) -> None:
        _check_int("n_reps", self.n_reps)
        _check_int("base_seed", self.base_seed, seed=True)


@dataclass(frozen=True, slots=True)
class MetricsSummary:
    """Replication means with Monte Carlo standard errors.

    ipw_mse is the mean squared error against the scenario's true
    effect and equals ipw_bias**2 plus the population variance of the
    estimates by construction. SE fields are None when n_reps = 1.
    max_clip_excess is the worst per-step clip excess of any trial, an
    audit figure that no table prints.
    """

    n_reps: int
    mean_lambda_norm: float
    mean_psi_abs: float
    mean_response: float
    mean_target_sd: float
    ipw_bias: float
    ipw_mse: float
    max_clip_excess: float
    mean_lambda_norm_se: Optional[float]
    mean_psi_abs_se: Optional[float]
    mean_response_se: Optional[float]
    mean_target_sd_se: Optional[float]
    ipw_bias_se: Optional[float]
    ipw_mse_se: Optional[float]


class _Failure(NamedTuple):
    """A shard's first replication to fail on its own, by position in
    the shard, and the message naming it."""

    index: int
    message: str


def _run_shard(
    configs: list[TrialConfig],
) -> Union[list[TrialResult], _Failure]:
    """Run a contiguous shard of replications, in order, or say which
    one failed first.

    A failed lockstep run does not say which replication failed, so the
    shard is then rerun trial by trial, and the failure names the seed
    of the first replication that fails on its own.
    """
    try:
        return run_lockstep(configs) if len(configs) > 1 else [run_trial(configs[0])]
    except Exception as exc:
        if len(configs) == 1:
            return _Failure(0, f"replication failed at seed {configs[0].seed}: {exc}")
        for index, cfg in enumerate(configs):
            try:
                run_trial(cfg)
            except Exception as alone:
                return _Failure(index, f"replication failed at seed {cfg.seed}: {alone}")
        return _Failure(
            0,
            f"replications at seeds {configs[0].seed}..{configs[-1].seed} "
            f"failed together but each runs alone: {exc}",
        )


def _shards(items: list, count: int) -> list[list]:
    """At most `count` contiguous shards whose sizes differ by at most one."""
    count = min(count, len(items))
    size, extra = divmod(len(items), count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def replication_configs(plan: ReplicationPlan) -> list[TrialConfig]:
    """The exact per-replication configs a plan executes (logs off)."""
    return [
        replace(plan.base_config, seed=split_seed(plan.base_seed, k), keep_log=False)
        for k in range(plan.n_reps)
    ]


def collect(plan: ReplicationPlan, parallelism: int = 1) -> list[TrialStats]:
    """Run every replication and return per-trial statistics in
    replication order; see collect_plans."""
    return [r.stats for r in collect_plans([plan], parallelism)[0]]


def collect_plans(
    plans: Sequence[ReplicationPlan], parallelism: int = 1
) -> list[list[TrialResult]]:
    """Run every plan's replications on `parallelism` workers and
    return, per plan in input order, each replication's engine record
    (log off) in replication order. The shards of all plans share one
    process pool (see the module docstring), and the output is
    identical at any parallelism level. A failure names the seed of the
    first failing replication in plan order, then replication order."""
    if not plans:
        raise ValueError("plans must be nonempty")
    _check_int("parallelism", parallelism)
    runs = [replication_configs(plan) for plan in plans]
    # (plan, replication) positions, per step schedule
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for p, configs in enumerate(runs):
        groups.setdefault(step_schedule(configs[0]), []).extend(
            (p, k) for k in range(len(configs))
        )
    shards = [
        shard
        for group in groups.values()
        for shard in _shards(group, max(parallelism, math.ceil(len(group) / SHARD_MAX)))
    ]
    tasks = [[runs[p][k] for p, k in shard] for shard in shards]
    if parallelism == 1 or len(tasks) == 1:
        parts = [_run_shard(task) for task in tasks]
    else:
        _load_ndtr()  # forked workers inherit scipy.special (module docstring)
        with multiprocessing.Pool(processes=min(parallelism, len(tasks))) as pool:
            parts = list(pool.imap(_run_shard, tasks))
    failures = [
        (shard[part.index], part.message)
        for shard, part in zip(shards, parts)
        if isinstance(part, _Failure)
    ]
    if failures:
        raise RuntimeError(min(failures)[1])
    out = [[None] * len(configs) for configs in runs]
    for shard, part in zip(shards, parts):
        for (p, k), result in zip(shard, part):
            out[p][k] = result
    return out


def _mean_se(values: Sequence[float]) -> tuple[float, Optional[float]]:
    r = len(values)
    mean = math.fsum(values) / r
    if r < 2:
        return mean, None
    var = math.fsum((v - mean) ** 2 for v in values) / (r - 1)
    return mean, math.sqrt(var / r)


def summarize(stats: Sequence[TrialStats], scenario: Scenario) -> MetricsSummary:
    """Aggregate per-trial statistics of runs on `scenario` into the
    reported metrics, with bias and MSE against its true effect."""
    if not stats:
        raise ValueError("no trial statistics to summarize")
    true_effect = true_ate(scenario)
    errors = [s.ipw - true_effect for s in stats]
    sq_errors = [e * e for e in errors]
    mean_ln, se_ln = _mean_se([s.lambda_norm for s in stats])
    mean_pa, se_pa = _mean_se([s.psi_abs for s in stats])
    mean_mr, se_mr = _mean_se([s.mean_response for s in stats])
    mean_ts, se_ts = _mean_se([s.target_sd for s in stats])
    bias, se_bias = _mean_se(errors)
    mse, se_mse = _mean_se(sq_errors)
    return MetricsSummary(
        n_reps=len(stats),
        mean_lambda_norm=mean_ln,
        mean_psi_abs=mean_pa,
        mean_response=mean_mr,
        mean_target_sd=mean_ts,
        ipw_bias=bias,
        ipw_mse=mse,
        max_clip_excess=max(s.clip_excess for s in stats),
        mean_lambda_norm_se=se_ln,
        mean_psi_abs_se=se_pa,
        mean_response_se=se_mr,
        mean_target_sd_se=se_ts,
        ipw_bias_se=se_bias,
        ipw_mse_se=se_mse,
    )


def run_replications(plan: ReplicationPlan, parallelism: int = 1) -> MetricsSummary:
    """Execute a plan on `parallelism` workers and aggregate its metrics;
    aggregate_grid of the one plan. Any trial failure aborts the whole
    plan with the failing replication's seed in the error message."""
    return aggregate_grid([plan], parallelism)[0]


def aggregate_grid(
    plans: Sequence[ReplicationPlan], parallelism: int = 1
) -> list[MetricsSummary]:
    """Run a sequence of plans on one scheduler call with `parallelism`
    workers and return one summary per plan, in input order."""
    collected = collect_plans(plans, parallelism)
    return [
        summarize([r.stats for r in results], plan.base_config.scenario)
        for plan, results in zip(plans, collected)
    ]
