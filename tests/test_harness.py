import math
import statistics
import types

import numpy as np
import pytest

import cbara.engine as engine
import cbara.harness as harness
from cbara.adapt import UpdateMechanism
from cbara.cli import emit_tables
from cbara.datagen import Scenario, ScenarioId
from cbara.engine import Allocation, TrialConfig, run_trial
from cbara.estimator import Weighting
from cbara.harness import (
    MetricsSummary,
    ReplicationPlan,
    TrialStats,
    aggregate_grid,
    collect,
    collect_plans,
    replication_configs,
    run_replications,
    split_seed,
    summarize,
)
from cbara.policy import Family, TargetPolicy


def _plan(reps=6, seed=42, **cfg_kw) -> ReplicationPlan:
    base = dict(
        n_units=60,
        scenario=Scenario(ScenarioId.A),
        policy=TargetPolicy(family=Family.CRD),
        weighting=Weighting.UNWEIGHTED,
        mechanism=UpdateMechanism.direct(),
        allocation=Allocation.DIRECT,
        seed=0,
    )
    base.update(cfg_kw)
    return ReplicationPlan(base_config=TrialConfig(**base), n_reps=reps, base_seed=seed)


def test_split_seed_reference_values():
    # 64-bit mix finalizer: fixed input, fixed output
    assert split_seed(0, 0) == split_seed(0, 0)
    assert split_seed(0, 0) != split_seed(0, 1)
    assert split_seed(1, 0) != split_seed(0, 0)
    for k in range(200):
        s = split_seed(20260818, k)
        assert 0 <= s < 2**64


def test_split_seed_matches_mix_definition():
    mask = 2**64 - 1

    def finalize(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    golden = 0x9E3779B97F4A7C15
    for base, k in [(0, 0), (977, 3), (2**63, 10), (20260818, 511)]:
        assert split_seed(base, k) == finalize((base + (k + 1) * golden) & mask)


def test_split_seed_no_collisions_small_range():
    seen = {split_seed(7, k) for k in range(10000)}
    assert len(seen) == 10000


def test_replication_configs_thread_seeds_and_drop_logs():
    plan = _plan(reps=4, seed=99)
    cfgs = replication_configs(plan)
    assert [c.seed for c in cfgs] == [split_seed(99, i) for i in range(4)]
    assert all(not c.keep_log for c in cfgs)
    assert all(c.n_units == 60 for c in cfgs)


@pytest.mark.parametrize("reps, parallelism", [(8, 4), (7, 3), (5, 4), (3, 8)])
def test_collect_parallel_equals_serial(reps, parallelism):
    # uneven shards; (5, 4) mixes lockstep shards with single-trial ones
    kw = dict(reps=reps, allocation=Allocation.BALANCE)
    serial = collect_plans([_plan(**kw)], 1)
    pooled = collect_plans([_plan(**kw)], parallelism)
    assert repr(serial) == repr(pooled)


def test_collect_plans_returns_run_trials_records():
    # the records, theta_N and the update totals included, are
    # run_trial's, whether they cross a process pool or not; repr
    # compares them bit for bit, since an unpickled empty StepLog is a
    # new object and StepLog compares by identity
    plan = _plan(reps=8, allocation=Allocation.BALANCE,
                 policy=TargetPolicy(family=Family.LOGISTIC),
                 mechanism=UpdateMechanism.clipped())
    want = repr([run_trial(cfg) for cfg in replication_configs(plan)])
    [results] = collect_plans([plan])
    assert repr(results) == want
    [pooled] = collect_plans([plan], 2)
    assert repr(pooled) == want
    assert [r.stats for r in results] == collect(plan)


def _mixed_grid():
    # both allocations at 1, 2 and 5 replications, each with its own seed
    return [
        _plan(reps=reps, seed=10 * reps + i, allocation=alloc)
        for reps in (1, 2, 5)
        for i, alloc in enumerate((Allocation.DIRECT, Allocation.BALANCE))
    ]


@pytest.mark.parametrize("parallelism", [1, 2, 3, 8])
def test_collect_plans_equals_collecting_each_plan(parallelism):
    # 6 plans, 16 replications on one schedule: shards cut across plan
    # boundaries, and at 8 workers a shard holds two replications
    reference = [collect_plans([plan])[0] for plan in _mixed_grid()]
    assert repr(collect_plans(_mixed_grid(), parallelism)) == repr(reference)


class _InlinePool:
    """Stands in for a process pool: records its size and the size of
    each shard it is handed, and runs the shards in this process."""

    def __init__(self, processes):
        self.processes = processes
        self.shard_sizes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, shards):
        self.shard_sizes = [len(shard) for shard in shards]
        return map(fn, shards)


def _open_pools(monkeypatch):
    """The stand-in pools collect_plans opens, in order."""
    opened = []

    def pool(processes):
        opened.append(_InlinePool(processes))
        return opened[-1]

    monkeypatch.setattr(harness, "multiprocessing", types.SimpleNamespace(Pool=pool))
    return opened


@pytest.mark.parametrize("plans, pools", [
    # one worker: no pool
    (_mixed_grid(), []),
    # one plan splits into `parallelism` shards
    ([_plan(reps=7)], [(3, [3, 2, 2])]),
    # the grid shares one schedule: its 16 replications in `parallelism` shards
    (_mixed_grid(), [(2, [8, 8])]),
    (_mixed_grid(), [(8, [2, 2, 2, 2, 2, 2, 2, 2])]),
])
def test_a_grid_opens_at_most_one_pool(monkeypatch, plans, pools):
    # each case asks for as many workers as the pool it expects has
    # processes, and for one worker when it expects no pool
    parallelism = pools[0][0] if pools else 1
    opened = _open_pools(monkeypatch)
    summaries = aggregate_grid(plans, parallelism)
    assert [(p.processes, p.shard_sizes) for p in opened] == pools
    assert summaries == [run_replications(plan) for plan in plans]


def _two_schedule_grid():
    # sizes 60, 80 x scenarios A, DiscreteTest x both allocations: four
    # step schedules, since DiscreteTest fits fewer columns than A
    return [
        _plan(reps=3 + i % 3, seed=i, n_units=size,
              scenario=Scenario(scenario), allocation=alloc,
              policy=TargetPolicy(family=Family.LOGISTIC),
              mechanism=UpdateMechanism.clipped() if alloc is Allocation.BALANCE
              else UpdateMechanism.direct())
        for i, (size, scenario, alloc) in enumerate(
            (size, scenario, alloc)
            for size in (60, 80)
            for scenario in (ScenarioId.A, ScenarioId.DISCRETE)
            for alloc in Allocation
        )
    ]


@pytest.mark.parametrize("parallelism", [1, 2, 3, 8])
def test_collect_plans_on_several_schedules_equals_each_plan(parallelism):
    reference = [collect_plans([plan])[0] for plan in _two_schedule_grid()]
    assert repr(collect_plans(_two_schedule_grid(), parallelism)) == repr(reference)


def test_shards_stop_at_the_row_cap(monkeypatch):
    # 16 replications on one schedule at 2 workers: ceil(16 / 5) = 4
    # shards of at most 5 rows instead of 2 of 8
    reference = repr(collect_plans(_mixed_grid()))
    monkeypatch.setattr(harness, "SHARD_MAX", 5)
    opened = _open_pools(monkeypatch)
    assert repr(collect_plans(_mixed_grid(), 2)) == reference
    assert [(p.processes, p.shard_sizes) for p in opened] == [(2, [4, 4, 4, 4])]
    # one worker runs the capped shards in this process
    assert repr(collect_plans(_mixed_grid())) == reference
    assert len(opened) == 1


def test_collect_plans_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="nonempty"):
        collect_plans([])


def test_pooled_grid_failure_names_the_first_failing_seed(monkeypatch):
    # the 9 replications run as two pooled shards of 5 and 4, each with
    # a failing balance plan; the error names the first in plan order
    monkeypatch.setattr(engine, "clip_bound", lambda mech, n: 0.0)
    clipped = dict(allocation=Allocation.BALANCE, mechanism=UpdateMechanism.clipped())
    plans = [
        _plan(reps=3, seed=4),
        _plan(reps=3, seed=5, **clipped),
        _plan(reps=3, seed=6, **clipped),
    ]
    with pytest.raises(
        RuntimeError,
        match=f"replication failed at seed {split_seed(5, 0)}: clipped updates exceeded",
    ):
        collect_plans(plans, 2)


def test_a_failing_plan_in_a_shared_shard_names_its_first_seed(monkeypatch):
    # one worker: plans 0 and 2 share a schedule and one shard, plan 1
    # (DiscreteTest) runs in a later shard; plans 1 and 2 fail, and the
    # error names plan 1's first seed, the first failure in plan order
    monkeypatch.setattr(engine, "clip_bound", lambda mech, n: 0.0)
    clipped = dict(allocation=Allocation.BALANCE, mechanism=UpdateMechanism.clipped())
    plans = [
        _plan(reps=3, seed=4),
        _plan(reps=3, seed=5, scenario=Scenario(ScenarioId.DISCRETE), **clipped),
        _plan(reps=3, seed=6, **clipped),
    ]
    with pytest.raises(
        RuntimeError,
        match=f"replication failed at seed {split_seed(5, 0)}: clipped updates exceeded",
    ):
        collect_plans(plans)
    # plan 1 alone passes: the shared shard names plan 2's first seed
    plans[1] = _plan(reps=3, seed=5, scenario=Scenario(ScenarioId.DISCRETE))
    with pytest.raises(RuntimeError, match=f"replication failed at seed {split_seed(6, 0)}: "):
        collect_plans(plans)


def test_summarize_moment_identities():
    stats = [
        TrialStats(1.0, 0.5, 0.5, 6.0, 0.1, -2.5, 1e-16, 1.0),
        TrialStats(2.0, -0.5, 0.5, 6.2, 0.2, -3.5, 4e-16, 1.0),
        TrialStats(3.0, 1.5, 1.5, 5.8, 0.0, -3.0, 0.0, 1.0),
    ]
    s = summarize(stats, Scenario(ScenarioId.A))  # true effect -3.0
    assert s.n_reps == 3
    assert s.mean_lambda_norm == pytest.approx(2.0)
    assert s.ipw_bias == pytest.approx(0.0)
    errors = [-2.5 + 3.0, -3.5 + 3.0, -3.0 + 3.0]
    assert s.ipw_mse == pytest.approx(sum(e * e for e in errors) / 3)
    # mse decomposes exactly into bias^2 plus population variance
    pop_var = statistics.pvariance([-2.5, -3.5, -3.0])
    assert abs(s.ipw_mse - (s.ipw_bias**2 + pop_var)) < 1e-12
    assert s.mean_lambda_norm_se == pytest.approx(
        statistics.stdev([1.0, 2.0, 3.0]) / math.sqrt(3)
    )
    # the worst clip excess of any trial, not a mean
    assert s.max_clip_excess == 4e-16


def test_single_rep_has_no_standard_errors():
    s = summarize([TrialStats(1.0, 0.0, 0.0, 6.0, 0.1, -3.0, 0.0, 1.0)], Scenario(ScenarioId.A))
    assert s.n_reps == 1
    assert s.mean_lambda_norm_se is None
    assert s.ipw_mse_se is None


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], Scenario(ScenarioId.A))


def test_run_replications_deterministic():
    a = run_replications(_plan())
    b = run_replications(_plan())
    assert a == b
    assert isinstance(a, MetricsSummary)
    assert a.n_reps == 6


def test_failed_replication_names_its_seed(monkeypatch):
    # a failure of the whole lockstep batch names no replication; the
    # shard is rerun trial by trial and the first one to fail is named
    plan = _plan(reps=4, seed=5)
    bad_seeds = (split_seed(5, 1), split_seed(5, 2))
    real = harness.run_trial

    def batch_failure(configs):
        raise np.linalg.LinAlgError("Singular matrix")

    def exploding(cfg):
        if cfg.seed in bad_seeds:
            raise ArithmeticError("numerical blowup")
        return real(cfg)

    monkeypatch.setattr(harness, "run_lockstep", batch_failure)
    monkeypatch.setattr(harness, "run_trial", exploding)
    with pytest.raises(RuntimeError, match=f"replication failed at seed {bad_seeds[0]}: "):
        collect(plan)


def test_a_failing_single_trial_shard_runs_once(monkeypatch):
    # a shard of one replication runs through run_trial, and its failure
    # is named without rerunning the trial
    calls = []

    def exploding(cfg):
        calls.append(cfg.seed)
        raise ArithmeticError("numerical blowup")

    monkeypatch.setattr(harness, "run_trial", exploding)
    with pytest.raises(RuntimeError,
                       match=f"replication failed at seed {split_seed(5, 0)}: numerical blowup"):
        collect(_plan(reps=1, seed=5))
    assert calls == [split_seed(5, 0)]


def test_clip_budget_failure_names_the_first_seed(monkeypatch):
    # a real failure inside a lockstep shard: with no budget recorded,
    # every clipped trial breaks the cumulative budget check
    monkeypatch.setattr(engine, "clip_bound", lambda mech, n: 0.0)
    plan = _plan(reps=3, seed=5, allocation=Allocation.BALANCE,
                 mechanism=UpdateMechanism.clipped())
    with pytest.raises(
        RuntimeError,
        match=f"replication failed at seed {split_seed(5, 0)}: clipped updates exceeded",
    ):
        collect(plan)


def test_lockstep_only_failure_is_reported(monkeypatch):
    def batch_failure(configs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(harness, "run_lockstep", batch_failure)
    with pytest.raises(RuntimeError, match="failed together but each runs alone: Singular"):
        collect(_plan(reps=3))


def test_aggregate_grid_labels():
    # one summary per plan, in input order, and the table labels the
    # pair from the plans' configs
    plans = [_plan(reps=2), _plan(reps=2, allocation=Allocation.BALANCE)]
    rows = aggregate_grid(plans)
    assert rows == [run_replications(plan) for plan in plans]
    assert rows[0] != rows[1]
    lines = emit_tables(plans, rows).splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:4] == ["60", "A", "CRD", "Unweighted"]


def _no_trials(*_):
    raise AssertionError("a trial ran")


def test_plan_validation(monkeypatch):
    with pytest.raises(ValueError):
        _plan(reps=0)
    with pytest.raises(ValueError):
        _plan(seed=-1)
    # a non-integer is named before it reaches range or split_seed
    for kw, field in [
        ({"reps": 2.5}, "n_reps"),
        ({"seed": 1.5}, "base_seed"),
        ({"reps": True}, "n_reps"),
        ({"seed": True}, "base_seed"),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            _plan(**kw)
    # the worker count belongs to the call, and a bad one is named
    # before any trial runs or any pool opens
    opened = _open_pools(monkeypatch)
    monkeypatch.setattr(harness, "run_lockstep", _no_trials)
    monkeypatch.setattr(harness, "run_trial", _no_trials)
    plan = _plan(reps=2)
    for parallelism in (0, 2.5, True):
        with pytest.raises(ValueError, match="^parallelism must be an integer >= 1, got "):
            collect_plans([plan], parallelism)
    assert opened == []
