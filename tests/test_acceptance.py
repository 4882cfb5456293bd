"""Acceptance gate: every criterion prints one PASS/FAIL line and must
hold. The full battery runs once per session (a few minutes); see the
package acceptance module for what each criterion measures."""
import types
from dataclasses import replace

import pytest

import cbara.acceptance as acceptance
from cbara import engine, harness
from cbara.acceptance import _SEED, CRITERION_NAMES, _run_table, run_acceptance
from cbara.engine import run_trial
from cbara.harness import TrialStats, split_seed, summarize
from cbara.policy import ModelCoefficients

_THETA = ModelCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def results():
    out = run_acceptance()
    for res in out:
        print(("PASS" if res.passed else "FAIL"), res.name, "::", res.detail)
    return {res.name: res for res in out}


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(results, name):
    res = results[name]
    assert res.passed, f"FAIL {res.name}: {res.detail}"


class _Stop(Exception):
    pass


def test_base_seed_reaches_the_shared_runs(monkeypatch):
    # the table's plans and the worker count as handed to the scheduler,
    # stopped before any runs
    seen = []

    def record(plans, parallelism):
        seen.append(([plan.base_seed for plan in plans], parallelism))
        raise _Stop

    monkeypatch.setattr(acceptance, "_oracle", lambda seed: {"theta_star": _THETA})
    monkeypatch.setattr(acceptance, "collect_plans", record)
    for kwargs in ({"seed": 5, "parallelism": 3}, {}):
        with pytest.raises(_Stop):
            run_acceptance(**kwargs)
    keys = [k for k, _, _ in _run_table(_THETA).values()]
    assert seen == [
        ([split_seed(5, k) for k in keys], 3), ([split_seed(_SEED, k) for k in keys], 1)
    ]


def test_determinism_runs_the_table_path_on_one_plan_list(monkeypatch):
    # criterion 12 makes the calls `cbara table1` makes, on one plan list
    # at widths 1, 1, 4 and 8, and audits every row's clip excess
    calls, audited = [], []

    def spy(plans, parallelism):
        calls.append((plans, parallelism))
        stats = [TrialStats(1.0, 0.5, 0.5, 6.0, 0.1, -3.0, 1e-16, 1.0)]
        return [summarize(stats, plan.base_config.scenario) for plan in plans]

    shared = types.SimpleNamespace(
        _track_clip=lambda cfg, trials, worst: audited.append((cfg, trials, worst))
    )
    monkeypatch.setattr(acceptance, "aggregate_grid", spy)
    result = acceptance._criterion_12(shared)
    assert result.passed, result.detail
    assert [width for _, width in calls] == [1, 1, 4, 8]
    plans = calls[0][0]
    assert all(got is plans for got, _ in calls)
    assert audited == [(plan.base_config, 1, 1e-16) for plan in plans] * 4


def test_atom_criterion_reads_the_table_records(monkeypatch):
    # criterion 8 sums the per-atom counts of the table's records and
    # runs no trial of its own
    record = run_trial(replace(acceptance._ATOM_CONFIG, n_units=30))
    records = [
        replace(record, atom_units=(100, 200, 100), atom_treated=(20, 41, 50)),
        replace(record, atom_units=(300, 600, 300), atom_treated=(60, 127, 150)),
    ]

    def no_trials(*args):
        raise AssertionError("a trial was run")

    for module in (engine, harness):
        monkeypatch.setattr(module, "run_trial", no_trials)
        monkeypatch.setattr(module, "run_lockstep", no_trials)
    shared = types.SimpleNamespace(
        runs={"atoms-discrete": acceptance._Run(records, None)},
        oracle={"theta_discrete": _THETA},
    )
    result = acceptance._criterion_8(shared)
    assert result.detail == (
        "atom -1: frac=0.2000 vs ratio 0.5000; atom +0: frac=0.2100 vs ratio 0.5000;"
        " atom +1: frac=0.5000 vs ratio 0.5000 (tol 0.03)"
    )
    assert not result.passed


def test_seed_keys_are_distinct():
    # the table's keys, then the ones criteria 9-10 and the oracle derive
    keys = [k for k, _, _ in _run_table(_THETA).values()]
    keys += [14, 15, 17, 18, 19, 30, 31, 32]
    assert len(set(keys)) == len(keys)
    assert len({split_seed(_SEED, k) for k in keys}) == len(keys)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": 2**64}, "seed must be an integer in"),
    ({"seed": -1}, "seed must be an integer in"),
    ({"parallelism": 0}, "parallelism must be an integer >= 1"),
    ({"parallelism": 2.7}, "parallelism must be an integer >= 1"),
    ({"seed": True}, "seed must be an integer in"),
    ({"parallelism": True}, "parallelism must be an integer >= 1"),
])
def test_bad_input_is_rejected_before_any_population_is_drawn(monkeypatch, kwargs, message):
    def no_oracle(seed):
        raise AssertionError("a population was drawn")

    monkeypatch.setattr(acceptance, "_oracle", no_oracle)
    with pytest.raises(ValueError, match=message):
        run_acceptance(**kwargs)
