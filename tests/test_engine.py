import math
import statistics

import pytest

from cbara.adapt import UpdateMechanism, perfect_squares
from cbara.datagen import Scenario, ScenarioId, true_ate
from cbara.engine import Allocation, TrialConfig, run_trial
from cbara.estimator import TrialRow, Weighting, ipw_ate
from cbara.policy import (
    Family,
    ModelCoefficients,
    TargetPolicy,
    allocation_prob,
    imbalance_increment,
    target_ratio,
)


def _cfg(**kw) -> TrialConfig:
    base = dict(
        n_units=160,
        scenario=Scenario(ScenarioId.A),
        policy=TargetPolicy(family=Family.LOGISTIC),
        weighting=Weighting.WEIGHTED,
        mechanism=UpdateMechanism.clipped(1.0, 0.5),
        allocation=Allocation.BALANCE,
        seed=101,
    )
    base.update(kw)
    return TrialConfig(**base)


def test_reruns_are_identical():
    a = run_trial(_cfg())
    b = run_trial(_cfg())
    assert a.final_imbalance == b.final_imbalance
    assert a.ipw_estimate == b.ipw_estimate
    assert a.theta_final == b.theta_final
    assert [r.t for r in a.log] == [r.t for r in b.log]
    assert [r.g for r in a.log] == [r.g for r in b.log]


def _every_family_and_scenario():
    for family in Family:
        for scenario in ScenarioId:
            yield _cfg(policy=TargetPolicy(family=family), scenario=Scenario(scenario))


def test_log_replays_the_imbalance_recursion():
    # the engine and imbalance_increment share increment_scale: exact
    for cfg in _every_family_and_scenario():
        result = run_trial(cfg)
        lam = (0.0, 0.0, 0.0, 0.0)
        psi = 0.0
        for rec in result.log:
            phi = (1.0, rec.x.x1, rec.x.x2, rec.x.x3)
            step = imbalance_increment(rec.rho, phi, rec.t)
            lam = tuple(a + b for a, b in zip(lam, step))
            psi += imbalance_increment(rec.rho, rec.zstar, rec.t)
            assert rec.lambda_after == lam
            assert rec.psi_after == psi
        assert result.final_imbalance.lam == lam
        assert result.final_lambda_norm == pytest.approx(math.hypot(*lam))
        assert result.final_psi_abs == abs(psi)


def test_burn_in_uses_even_coin():
    cfg = _cfg(burn_in=25)
    result = run_trial(cfg)
    for rec in result.log[:25]:
        assert rec.rho == 0.5
        assert rec.g == 0.5


def test_logged_g_matches_allocation_rule():
    # the engine and allocation_prob share the link, the raw rule and
    # the clamp: exact
    for cfg in _every_family_and_scenario():
        result = run_trial(cfg)
        lam = (0.0, 0.0, 0.0, 0.0)
        for rec in result.log:
            if rec.n > cfg.burn_in:  # log steps are 1-based
                assert rec.rho == target_ratio(cfg.policy, rec.theta_before, rec.x)
                assert rec.g == allocation_prob(cfg.policy, rec.theta_before, lam, rec.x)
            lam = rec.lambda_after


def test_direct_allocation_ignores_imbalance():
    result = run_trial(_cfg(allocation=Allocation.DIRECT))
    for rec in result.log:
        assert rec.g == rec.rho


def test_frozen_parameter_never_moves():
    theta = ModelCoefficients(4.5, 4.7, 7.5, 1.7, 2.9, 1.4)
    result = run_trial(_cfg(frozen_theta=theta, mechanism=UpdateMechanism.direct()))
    assert result.theta_final == theta
    assert result.n_fit_steps == 0
    for rec in result.log:
        assert rec.theta_before == theta
    # no burn-in under a frozen parameter: step 0 already targets
    first = result.log[0]
    assert first.rho == pytest.approx(
        target_ratio(_cfg().policy, theta, first.x), abs=1e-12
    )


def test_full_delay_disables_fitting():
    result = run_trial(_cfg(response_delay=500))
    assert result.n_fit_steps == 0
    for rec in result.log:
        assert rec.rho == 0.5  # parameter never leaves zero


def test_delay_shifts_first_update():
    # with delay d the earliest possible fit sees rows 0..i-d, so the
    # parameter cannot move before step burn_in even with a tiny burn-in
    early = run_trial(_cfg(response_delay=40, n_units=120))
    moved_at = [rec.n for rec in early.log if rec.theta_before != early.log[0].theta_before]
    assert not moved_at or min(moved_at) >= 41


def test_summary_fields_recompute_from_log():
    result = run_trial(_cfg(n_units=140))
    ys = [rec.y_observed for rec in result.log]
    assert result.mean_response == pytest.approx(sum(ys) / len(ys))
    rhos = [rec.rho for rec in result.log]
    assert result.target_ratio_sd == pytest.approx(statistics.pstdev(rhos), abs=1e-12)
    rows = [
        TrialRow(x=rec.x, t=rec.t, y=rec.y_observed, rho_used=rec.rho)
        for rec in result.log
    ]
    assert result.ipw_estimate == pytest.approx(ipw_ate(rows), abs=1e-12)


def test_ipw_error_splits_into_effect_and_imbalance_terms():
    # N (tau_hat - tau) = sum(d_i - tau) + a' Lambda_N
    #                     + sum_i s_i (z_i - a' phi_i), z = (1 - rho) Y(1) + rho Y(0).
    # Noiseless scenario A under CRD: z = 6 + 3.2 x1 + 2.9 x2 + 1.4 x3
    # exactly, so the last sum vanishes; d = -3 + 3 x1.
    result = run_trial(_cfg(policy=TargetPolicy(family=Family.CRD)))
    tau = true_ate(Scenario(ScenarioId.A))
    a = (6.0, 3.2, 2.9, 1.4)
    n = len(result.log)
    effect = math.fsum(-3.0 + 3.0 * rec.x.x1 - tau for rec in result.log)
    imbalance = math.fsum(ai * li for ai, li in zip(a, result.final_imbalance.lam))
    assert n * (result.ipw_estimate - tau) == pytest.approx(effect + imbalance, rel=1e-9)


def test_clipped_run_respects_per_step_budget():
    result = run_trial(_cfg(n_units=400))
    assert result.clip_step_excess <= 1e-12
    assert result.theta_move_sum <= result.clip_bound_sum + 1e-9


def test_rare_updates_only_at_schedule_points():
    result = run_trial(_cfg(mechanism=UpdateMechanism.iru(), n_units=300))
    changes = [
        rec.n
        for prev, rec in zip(result.log, result.log[1:])
        if rec.theta_before != prev.theta_before
    ]
    assert changes
    # a change visible at 1-based step n came from an update fed with
    # n - 1 responses, which must sit on the schedule
    assert all(perfect_squares(n - 1) for n in changes)
    distinct = {rec.theta_before for rec in result.log}
    assert len(distinct) <= math.isqrt(300) + 1


def test_keep_log_off_drops_the_log():
    result = run_trial(_cfg(keep_log=False))
    assert result.log == ()
    with_log = run_trial(_cfg(keep_log=True))
    assert result.final_imbalance == with_log.final_imbalance
    assert result.ipw_estimate == with_log.ipw_estimate


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(burn_in=1)
    with pytest.raises(ValueError):
        _cfg(n_units=20, burn_in=20)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(response_delay=-1)
