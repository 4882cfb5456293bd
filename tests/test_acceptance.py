"""Acceptance gate: every criterion prints one PASS/FAIL line and must
hold. The full battery runs once per session (a few minutes); see the
package acceptance module for what each criterion measures."""
import types
from dataclasses import replace

import numpy as np
import pytest

import cbara.acceptance as acceptance
from cbara import engine, harness, oracle
from cbara.acceptance import _SEED, CRITERION_NAMES, _run_table, run_acceptance
from cbara.engine import run_trial
from cbara.harness import TrialStats, split_seed, summarize
from cbara.policy import ModelCoefficients

_THETA = ModelCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
_TRUTH = ModelCoefficients(4.5, 4.7, 7.5, 1.7, 2.9, 1.4)


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


def _stub_shared(monkeypatch):
    """_Shared built on stub simulations, and what each stub was asked.

    collect_plans gives plan p two records whose clip excess is
    (p + 1) * 1e-15; every chain deviates 0.005; aggregate_grid gives
    one summary per plan of one stub trial, with clip excess 2e-13 on
    its third call and 1e-16 otherwise."""
    record = run_trial(replace(acceptance._ATOM_CONFIG, n_units=30))
    record = replace(record, atom_units=(10, 10, 10), atom_treated=(5, 5, 5))
    asked = {"collect": [], "chains": [], "grid": []}

    def collect_plans(plans, parallelism):
        asked["collect"].append(plans)
        return [
            [replace(record, stats=record.stats._replace(psi=psi, clip_excess=(p + 1) * 1e-15))
             for psi in (1.0, 3.0)]
            for p in range(len(plans))
        ]

    def invariant_pi_g_check(policy, theta, probes, horizon, seed):
        asked["chains"].append((theta, horizon, seed))
        return [0.005] * len(probes)

    def aggregate_grid(plans, parallelism):
        asked["grid"].append((plans, parallelism))
        excess = 2e-13 if len(asked["grid"]) == 3 else 1e-16
        stats = [TrialStats(1.0, 0.5, 0.5, 6.0, 0.1, -3.0, excess, 1.0)]
        return [summarize(stats, plan.base_config.scenario) for plan in plans]

    bundle = {"theta_star": _TRUTH, "theta_discrete": _THETA, "a_ipw_s": np.zeros(4)}
    bundle.update(dict.fromkeys(("s2_balance", "s2_direct", "v_direct_s", "v_balance_s"), 1.0))
    monkeypatch.setattr(acceptance, "_oracle", lambda seed: bundle)
    monkeypatch.setattr(acceptance, "collect_plans", collect_plans)
    monkeypatch.setattr(acceptance, "invariant_pi_g_check", invariant_pi_g_check)
    monkeypatch.setattr(acceptance, "aggregate_grid", aggregate_grid)
    return acceptance._Shared(2, 5), asked


def test_determinism_runs_the_table_path_on_one_plan_list(monkeypatch):
    # _Shared runs every simulation the criteria read: the table in one
    # scheduler call, criterion 9's three chains, and criterion 12's
    # grid through the calls `cbara table1` makes, on one plan list at
    # widths 1, 1, 4 and 8; criterion 11's audit is folded from them all
    sh, asked = _stub_shared(monkeypatch)
    assert len(asked["collect"]) == 1
    assert asked["chains"] == [
        (ModelCoefficients(), 200_000, split_seed(5, 17)),
        (_TRUTH, 200_000, split_seed(5, 18)),
        (ModelCoefficients(2.0, 1.0, 0.0, -1.0, 0.5, -0.5), 200_000, split_seed(5, 19)),
    ]
    assert [width for _, width in asked["grid"]] == [1, 1, 4, 8]
    plans = asked["grid"][0][0]
    assert all(got is plans for got, _ in asked["grid"])
    assert acceptance._criterion_12(sh).passed
    # the table's clipped adaptive plans (200- and 800-balance,
    # mse-balance and atoms-discrete) hold 2 trials each and the grid's
    # 4 balance cells 1 each, per call; clt-balance clips too, but its
    # theta is frozen, so its trials do not count
    assert sh.clip_trials == 4 * 2 + 4 * 4
    # the worst excess of any run, the frozen ones included
    assert sh.max_clip_excess == 2e-13


def test_criteria_only_read_the_shared_runs(monkeypatch):
    # with every simulation entry point raising, all twelve criteria
    # still run on the bundle, in numeric order
    sh, _ = _stub_shared(monkeypatch)

    def no_runs(*args, **kwargs):
        raise AssertionError("a criterion ran a simulation")

    for module, name in [
        (engine, "run_trial"), (engine, "run_lockstep"), (harness, "run_trial"),
        (harness, "run_lockstep"), (oracle, "run_trial"), (acceptance, "collect_plans"),
        (acceptance, "aggregate_grid"), (acceptance, "invariant_pi_g_check"),
    ]:
        monkeypatch.setattr(module, name, no_runs)
    results = [criterion(sh) for criterion in acceptance._CRITERIA]
    assert tuple(r.name for r in results) == CRITERION_NAMES
    assert results[8].detail == (
        "zero: max dev=0.00500; limit: max dev=0.00500; tilted: max dev=0.00500 (tol 0.01)"
    )
    assert results[10].detail.endswith("max=2.00e-13 over 24 adaptive trials")


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
