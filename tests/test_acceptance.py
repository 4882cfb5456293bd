"""Acceptance gate: every criterion prints one PASS/FAIL line and must
hold. The full battery runs once per session (a few minutes); see the
package acceptance module for what each criterion measures."""
import re
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
    # scheduler call, criterion 9's three chains, each seeded by its own
    # key, and criterion 12's grid through the calls `cbara table1`
    # makes, on one plan list at each of its widths; criterion 11's audit
    # is folded from them all
    sh, asked = _stub_shared(monkeypatch)
    assert len(asked["collect"]) == 1
    key = acceptance._SEED_KEYS
    assert asked["chains"] == [
        (ModelCoefficients(), 200_000, split_seed(5, key["chain-zero"])),
        (_TRUTH, 200_000, split_seed(5, key["chain-limit"])),
        (ModelCoefficients(2.0, 1.0, 0.0, -1.0, 0.5, -0.5), 200_000,
         split_seed(5, key["chain-tilted"])),
    ]
    assert tuple(width for _, width in asked["grid"]) == acceptance._GRID_WIDTHS
    plans = asked["grid"][0][0]
    assert all(got is plans for got, _ in asked["grid"])
    passed, _ = acceptance._criterion_12(sh)
    assert passed
    # the table's clipped adaptive plans (200- and 800-balance,
    # mse-balance and atoms-discrete) hold 2 trials each and the grid's
    # 4 balance cells 1 each, per call; clt-balance clips too, but its
    # theta is frozen, so its trials do not count
    assert sh.clip_trials == 4 * 2 + 4 * len(acceptance._GRID_WIDTHS)
    # the worst excess of any run, the frozen ones included
    assert sh.max_clip_excess == 2e-13


def test_criteria_only_read_the_shared_runs(monkeypatch):
    # with every simulation entry point raising, all twelve criteria
    # still run on the bundle, in numeric order, each beside its name
    sh, _ = _stub_shared(monkeypatch)

    def no_runs(*args, **kwargs):
        raise AssertionError("a criterion ran a simulation")

    for module, name in [
        (engine, "run_trial"), (engine, "run_lockstep"), (harness, "run_trial"),
        (harness, "run_lockstep"), (oracle, "run_trial"), (acceptance, "collect_plans"),
        (acceptance, "aggregate_grid"), (acceptance, "invariant_pi_g_check"),
    ]:
        monkeypatch.setattr(module, name, no_runs)
    results = [criterion(sh) for _, criterion in acceptance._CRITERIA]
    assert [name[:12] for name in CRITERION_NAMES] == [f"criterion-{k:02d}" for k in range(1, 13)]
    assert [criterion.__name__ for _, criterion in acceptance._CRITERIA] == [
        f"_criterion_{k}" for k in range(1, 13)
    ]
    assert results[8][1] == (
        "zero: max dev=0.00500; limit: max dev=0.00500; tilted: max dev=0.00500"
        f" (tol {acceptance._CHAIN_TOL})"
    )
    assert results[10][1].endswith("max=2.00e-13 over 24 adaptive trials")


def test_criteria_6_and_7_take_n_from_the_plan(monkeypatch):
    # the CLT and MSE plans resized to 50 units: each stub run holds two
    # records, with psi 1 and 3, so the variance of psi / sqrt(N) is 2/N
    n = 50
    table = acceptance._run_table

    def resized(theta):
        return {
            name: (k, replace(cfg, n_units=n) if name[:4] in ("clt-", "mse-") else cfg, reps)
            for name, (k, cfg, reps) in table(theta).items()
        }

    monkeypatch.setattr(acceptance, "_run_table", resized)
    sh, _ = _stub_shared(monkeypatch)
    sh.oracle["a_ipw_s"] = np.ones(4)
    _, detail = acceptance._criterion_6(sh)
    assert f"var[direct]={2 / n:.4f}" in detail
    _, detail = acceptance._criterion_7(sh)
    run = sh.runs["mse-balance"]
    got = re.search(r"\[balance[^]]*\]=(\S+) - R=(\S+) ", detail).groups()
    want = (n * run.summary.ipw_mse, sum(run.results[0].lam) ** 2 / n)
    assert [float(v) for v in got] == pytest.approx(want, abs=1e-3)


def test_a_bound_is_decided_and_printed_from_one_constant(monkeypatch):
    # every stub table cell has the same mean |Lambda|, so its growth
    # ratio is 1: outside the sqrt(N) band, inside one moved around 1
    sh, _ = _stub_shared(monkeypatch)
    passed, _ = acceptance._criterion_2(sh)
    assert not passed
    monkeypatch.setattr(acceptance, "_ROOT_N_GROWTH", (0.9, 1.1))
    passed, detail = acceptance._criterion_2(sh)
    assert passed
    assert "direct=1.000 (want [0.9,1.1])" in detail


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
        runs={"atoms-discrete": acceptance._Run(None, records, None)},
        oracle={"theta_discrete": _THETA},
    )
    passed, detail = acceptance._criterion_8(shared)
    assert detail == (
        "atom -1: frac=0.2000 vs ratio 0.5000; atom +0: frac=0.2100 vs ratio 0.5000;"
        f" atom +1: frac=0.5000 vs ratio 0.5000 (tol {acceptance._ATOM_TOL})"
    )
    assert not passed
    # the widest deviation is 0.3 (atom -1): a tolerance above it passes,
    # and the detail prints the tolerance the verdict used
    monkeypatch.setattr(acceptance, "_ATOM_TOL", 0.31)
    passed, detail = acceptance._criterion_8(shared)
    assert passed
    assert detail.endswith("(tol 0.31)")


def test_seed_keys_are_distinct():
    # the table's keys, then the ones criteria 9-10 and the oracle derive
    keys = [k for k, _, _ in _run_table(_THETA).values()]
    keys += acceptance._SEED_KEYS.values()
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
