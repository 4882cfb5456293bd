import itertools
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbara.adapt import UpdateMechanism, perfect_squares
from cbara.datagen import CovariateVector, Scenario, ScenarioId, true_ate
from cbara.engine import Allocation, StepLog, TrialConfig, _step_log, run_lockstep, run_trial
from cbara.estimator import Weighting, ipw_ate
from cbara.harness import split_seed
from cbara.policy import (
    Family,
    ModelCoefficients,
    PolicyRows,
    TargetPolicy,
    _link,
    _link_rows,
    allocation_prob,
    increment_scale,
    target_ratio_from_x1,
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
    assert a.stats == b.stats
    assert a.lam == b.lam
    assert a.theta_final == b.theta_final
    assert a.log.t.tobytes() == b.log.t.tobytes()
    assert a.log.g.tobytes() == b.log.g.tobytes()


def _every_family_and_scenario():
    for family in Family:
        for scenario in ScenarioId:
            yield _cfg(policy=TargetPolicy(family=family), scenario=Scenario(scenario))


def _steps(log: StepLog):
    """One (x, rho, g, t, y, zstar, lam, psi, theta) tuple per logged
    step, as plain Python values."""
    xs = [CovariateVector(*v) for v in zip(log.x1.tolist(), log.x2.tolist(), log.x3.tolist())]
    thetas = [ModelCoefficients(*v) for v in log.theta.tolist()]
    lams = [tuple(v) for v in log.lam.tolist()]
    cols = (log.rho, log.g, log.t, log.y, log.zstar)
    return list(zip(xs, *(c.tolist() for c in cols), lams, log.psi.tolist(), thetas))


def test_log_replays_the_imbalance_recursion():
    # the engine steps by increment_scale times phi and z: exact
    for cfg in _every_family_and_scenario():
        result = run_trial(cfg)
        lam = (0.0, 0.0, 0.0, 0.0)
        psi = 0.0
        for x, rho, _, t, _, zstar, lam_after, psi_after, _ in _steps(result.log):
            scale = increment_scale(rho, t)
            phi = (1.0, x.x1, x.x2, x.x3)
            lam = tuple(a + scale * b for a, b in zip(lam, phi))
            psi += scale * zstar
            assert lam_after == lam
            assert psi_after == psi
        assert result.lam == lam
        assert result.stats.lambda_norm == pytest.approx(math.hypot(*lam))
        assert result.stats.psi == psi
        assert result.stats.psi_abs == abs(psi)


def test_burn_in_uses_even_coin():
    cfg = _cfg(burn_in=25)
    result = run_trial(cfg)
    assert (result.log.rho[:25] == 0.5).all()
    assert (result.log.g[:25] == 0.5).all()


def test_logged_g_matches_allocation_rule():
    # the engine and allocation_prob share the link, the raw rule and
    # the clamp: exact
    for cfg in _every_family_and_scenario():
        result = run_trial(cfg)
        lam = (0.0, 0.0, 0.0, 0.0)
        for n, (x, rho, g, _, _, _, lam_after, _, theta) in enumerate(_steps(result.log), 1):
            if n > cfg.burn_in:  # steps are 1-based
                assert rho == target_ratio_from_x1(cfg.policy, theta, x.x1)
                assert g == allocation_prob(cfg.policy, theta, lam, x)
            lam = lam_after


def test_direct_allocation_ignores_imbalance():
    result = run_trial(_cfg(allocation=Allocation.DIRECT))
    assert result.log.g.tobytes() == result.log.rho.tobytes()


def test_frozen_parameter_never_moves():
    theta = ModelCoefficients(4.5, 4.7, 7.5, 1.7, 2.9, 1.4)
    result = run_trial(_cfg(frozen_theta=theta, mechanism=UpdateMechanism.direct()))
    assert result.theta_final == theta
    assert result.n_fit_steps == 0
    assert (result.log.theta == theta.as_array()).all()
    # no burn-in under a frozen parameter: step 0 already targets
    x, rho = _steps(result.log)[0][:2]
    assert rho == pytest.approx(target_ratio_from_x1(_cfg().policy, theta, x.x1), abs=1e-12)


def test_full_delay_disables_fitting():
    result = run_trial(_cfg(response_delay=500))
    assert result.n_fit_steps == 0
    assert (result.log.rho == 0.5).all()  # parameter never leaves zero


def test_delay_shifts_first_update():
    # with delay d the earliest possible fit sees rows 0..i-d, so the
    # parameter cannot move before step burn_in even with a tiny burn-in
    early = run_trial(_cfg(response_delay=40, n_units=120))
    theta = early.log.theta
    moved_at = 1 + np.flatnonzero((theta != theta[0]).any(axis=1))
    assert not moved_at.size or moved_at.min() >= 41


def test_summary_fields_recompute_from_log():
    result = run_trial(_cfg(n_units=140))
    ys = result.log.y.tolist()
    assert result.stats.mean_response == pytest.approx(sum(ys) / len(ys))
    rhos = result.log.rho.tolist()
    assert result.stats.target_sd == pytest.approx(statistics.pstdev(rhos), abs=1e-12)
    log = result.log
    # both sum left to right: exact
    assert result.stats.ipw == ipw_ate(log.t, log.y, log.rho)


def test_ipw_error_splits_into_effect_and_imbalance_terms():
    # N (tau_hat - tau) = sum(d_i - tau) + a' Lambda_N
    #                     + sum_i s_i (z_i - a' phi_i), z = (1 - rho) Y(1) + rho Y(0).
    # Noiseless scenario A under CRD: z = 6 + 3.2 x1 + 2.9 x2 + 1.4 x3
    # exactly, so the last sum vanishes; d = -3 + 3 x1.
    result = run_trial(_cfg(policy=TargetPolicy(family=Family.CRD)))
    tau = true_ate(Scenario(ScenarioId.A))
    a = (6.0, 3.2, 2.9, 1.4)
    n = len(result.log)
    effect = math.fsum(-3.0 + 3.0 * x1 - tau for x1 in result.log.x1.tolist())
    imbalance = math.fsum(ai * li for ai, li in zip(a, result.lam))
    assert n * (result.stats.ipw - tau) == pytest.approx(effect + imbalance, rel=1e-9)


def test_clipped_run_respects_per_step_budget():
    result = run_trial(_cfg(n_units=400))
    assert result.stats.clip_excess <= 1e-12
    assert result.theta_move_sum <= result.clip_bound_sum + 1e-9


def test_rare_updates_only_at_schedule_points():
    result = run_trial(_cfg(mechanism=UpdateMechanism.iru(), n_units=300))
    theta = result.log.theta
    # 1-based steps whose theta differs from the step before
    changes = np.flatnonzero((theta[1:] != theta[:-1]).any(axis=1)) + 2
    assert changes.size
    # a change visible at 1-based step n came from an update fed with
    # n - 1 responses, which must sit on the schedule
    assert all(perfect_squares(int(n) - 1) for n in changes)
    distinct = {tuple(row) for row in theta.tolist()}
    assert len(distinct) <= math.isqrt(300) + 1


def test_keep_log_off_drops_the_log():
    result = run_trial(_cfg(keep_log=False))
    assert len(result.log) == 0
    with_log = run_trial(_cfg(keep_log=True))
    assert len(with_log.log) == 160
    assert result.stats == with_log.stats
    assert result.lam == with_log.lam


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(burn_in=1)
    with pytest.raises(ValueError):
        _cfg(n_units=20, burn_in=20)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(response_delay=-1)
    # a bool is not an integer here, though Python counts it as one
    for field, value in (("n_units", 100.5), ("burn_in", 5.5), ("response_delay", 1.5),
                         ("seed", 1.5), ("n_units", True), ("burn_in", True),
                         ("response_delay", False), ("seed", False), ("seed", True)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            _cfg(**{field: value})


_MECHANISMS = {
    "direct": UpdateMechanism.direct(),
    "iru": UpdateMechanism.iru(),
    "clipped": UpdateMechanism.clipped(1.0, 0.5),
}
_TRUTH_A = ModelCoefficients(4.5, 4.7, 7.5, 1.7, 2.9, 1.4)


def _assert_same_results(got, want):
    # repr tells every summary float apart bit for bit, -0.0 from 0.0
    # included; an array's repr rounds, and StepLog equality compares
    # the log columns as bytes
    assert repr(got) == repr(want)
    assert got == want


def _assert_lockstep_is_run_trial(cfg, reps=3):
    cfgs = [replace(cfg, seed=split_seed(cfg.seed, k)) for k in range(reps)]
    _assert_same_results(run_lockstep(cfgs), [run_trial(c) for c in cfgs])


@pytest.mark.parametrize("mechanism", list(_MECHANISMS))
@pytest.mark.parametrize("family", list(Family))
def test_lockstep_equals_run_trial(family, mechanism):
    for allocation, scenario, weighting in itertools.product(Allocation, ScenarioId, Weighting):
        _assert_lockstep_is_run_trial(
            _cfg(
                n_units=70,
                policy=TargetPolicy(family=family),
                mechanism=_MECHANISMS[mechanism],
                allocation=allocation,
                scenario=Scenario(scenario),
                weighting=weighting,
            )
        )


@pytest.mark.parametrize(
    "kw",
    [
        dict(response_delay=3),
        dict(response_delay=30, burn_in=5),
        dict(response_delay=500),
        dict(scenario=Scenario(ScenarioId.B, outcome_noise_sd=1.0)),
        dict(frozen_theta=_TRUTH_A, mechanism=UpdateMechanism.direct()),
        dict(n_units=600),  # crosses two unit-block boundaries
        # the norm guard's product overflows to inf, so raw = rho
        dict(policy=TargetPolicy(family=Family.LOGISTIC, c_lambda=1e308)),
        # the clip budgets sum to inf, as Python floats do in run_trial
        dict(policy=TargetPolicy(family=Family.LOGISTIC),
             mechanism=UpdateMechanism.clipped(1e308, 0.5)),
        # the last block holds one unit, so its running sums add one step
        dict(n_units=513),
        dict(n_units=513, keep_log=False),
        # responses still pending at a block's end are added in the next
        dict(n_units=600, response_delay=40),
        dict(n_units=600, response_delay=40, keep_log=False),
    ],
    ids=["delay-3", "delay-30-burn-5", "delay-past-end", "noise", "frozen", "three-blocks",
         "c-lambda-1e308", "clip-c0-1e308", "one-unit-last-block-log",
         "one-unit-last-block-no-log", "delay-40-across-blocks-log",
         "delay-40-across-blocks-no-log"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lockstep_equals_run_trial_in_special_cases(kw):
    for allocation in Allocation:
        _assert_lockstep_is_run_trial(_cfg(**{"n_units": 120, **kw}, allocation=allocation))


@pytest.mark.parametrize(
    "kw",
    [
        # the first fits see two or three rows
        dict(burn_in=2),
        # the full Gram is singular (x2 = x3 = 0) and the fit takes four
        # columns; by the default burn-in of 20 those are certified
        dict(scenario=Scenario(ScenarioId.DISCRETE), burn_in=2),
        dict(scenario=Scenario(ScenarioId.DISCRETE), burn_in=2, weighting=Weighting.UNWEIGHTED),
    ],
    ids=["burn-in-2", "discrete-burn-in-2", "discrete-burn-in-2-unweighted"],
)
def test_lockstep_equals_run_trial_where_the_rank_certificate_gives_way(kw, monkeypatch):
    # these batches reach the rank test's eigvalsh branch, which runs
    # when the Cholesky certificate cannot decide a stack
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        stacks.append(a.ndim == 3)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for allocation in Allocation:
        _assert_lockstep_is_run_trial(_cfg(**{"n_units": 120, **kw}, allocation=allocation))
    assert any(stacks)


def test_lockstep_equals_run_trial_in_a_mixed_batch():
    # one row per family x mechanism x allocation x scenario x weighting
    cfgs = [
        _cfg(
            n_units=70,
            policy=TargetPolicy(family=family),
            mechanism=mechanism,
            allocation=allocation,
            scenario=Scenario(scenario),
            weighting=weighting,
            seed=split_seed(7, k),
        )
        for k, (family, mechanism, allocation, scenario, weighting) in enumerate(
            itertools.product(
                Family, _MECHANISMS.values(), Allocation, (ScenarioId.A, ScenarioId.B), Weighting
            )
        )
    ]
    # logistic rows whose knobs differ inside the family: clamps,
    # c_lambda and g_floor, under clipped mechanisms with their own budgets
    cfgs += [
        _cfg(
            n_units=70,
            policy=TargetPolicy(Family.LOGISTIC, lo, c_lambda=c_lambda, g_floor=g_floor),
            mechanism=UpdateMechanism.clipped(c0, exponent),
            seed=split_seed(8, k),
        )
        for k, (lo, c_lambda, g_floor, (c0, exponent)) in enumerate(
            itertools.product((0.2, 0.3), (1.0, 5.0), (0.01, 0.15), ((0.5, 1.0), (3.0, 0.3)))
        )
    ]
    assert len(cfgs) == 88
    _assert_same_results(run_lockstep(cfgs), [run_trial(c) for c in cfgs])


@pytest.mark.parametrize(
    "kw",
    [
        dict(scenario=Scenario(ScenarioId.DISCRETE)),
        dict(burn_in=40),
        dict(frozen_theta=_TRUTH_A, mechanism=UpdateMechanism.direct()),
        dict(n_units=600),  # crosses two unit-block boundaries
    ],
    ids=["discrete", "burn-in-40", "frozen", "three-blocks"],
)
def test_atom_counts_match_the_log(kw):
    cfgs = [_cfg(**{"n_units": 120, **kw}, seed=split_seed(5, k)) for k in range(3)]
    for result in [run_trial(c) for c in cfgs] + run_lockstep(cfgs):
        x1, t = result.log.x1, result.log.t
        assert result.atom_units == tuple(int((x1 == a).sum()) for a in (-1.0, 0.0, 1.0))
        assert result.atom_treated == tuple(int(t[x1 == a].sum()) for a in (-1.0, 0.0, 1.0))
        assert sum(result.atom_units) == len(result.log)


def test_steplog_equality_is_bitwise():
    rows = np.zeros((2, 19))
    log = _step_log(rows)
    assert log == _step_log(rows.copy())
    rows[1, 12] = -0.0  # step 2's psi
    assert log != _step_log(rows)
    assert log != _step_log(np.zeros((1, 19)))
    assert log != "log"


def test_lockstep_rejects_configs_of_different_plans():
    # configs of different plans share a batch only on one step schedule;
    # a frozen row and an adaptive one never do
    base = _cfg()
    for field, other in [
        ("n_units", 170),
        ("burn_in", 21),
        ("response_delay", 1),
        ("frozen_theta", _TRUTH_A),
        ("keep_log", False),
        # DiscreteTest fits four columns, A all six
        ("scenario", Scenario(ScenarioId.DISCRETE)),
    ]:
        with pytest.raises(ValueError, match="share a step schedule"):
            run_lockstep([base, replace(base, seed=5, **{field: other})])
    run_lockstep([base, replace(base, seed=5, scenario=Scenario(ScenarioId.B, 1.0))])
    with pytest.raises(ValueError, match="configs must be nonempty"):
        run_lockstep([])


def test_configs_built_from_strings_equal_their_enum_twins():
    from_strings = _cfg(
        scenario=Scenario("A"),
        policy=TargetPolicy(family="logistic"),
        weighting="weighted",
        mechanism=UpdateMechanism(kind="clipped"),
        allocation="balance",
    )
    assert from_strings == _cfg()
    a, b = run_trial(from_strings), run_trial(_cfg())
    assert (a.log, a.stats, a.lam, a.theta_final) == (b.log, b.stats, b.lam, b.theta_final)


@pytest.mark.parametrize("clamp_lo", [0.2, 0.5])
@pytest.mark.parametrize("family", list(Family))
def test_link_rows_is_the_scalar_link(family, clamp_lo):
    rng = np.random.default_rng(3)
    # both saturations, signed zeros and a spread around the clamps
    delta = np.concatenate(
        (rng.normal(0.0, 3.0, 5000), rng.normal(0.0, 200.0, 500), [0.0, -0.0, 1e300, -1e300])
    )
    policy = TargetPolicy(family=family, clamp_lo=clamp_lo, g_floor=clamp_lo / 2)
    want = np.array([_link(policy, d) for d in delta.tolist()])
    assert _link_rows(PolicyRows.of([policy] * len(delta)), delta).tobytes() == want.tobytes()
    # the same rows mixed with the other families and the other clamps
    others = [TargetPolicy(family=f, clamp_lo=lo) for f in Family for lo in (0.2, 0.3)]
    policies = [policy if r % 2 else others[r % len(others)] for r in range(len(delta))]
    want = np.array([_link(p, d) for p, d in zip(policies, delta.tolist())])
    assert _link_rows(PolicyRows.of(policies), delta).tobytes() == want.tobytes()


@st.composite
def trial_configs(draw):
    clamp_lo = draw(st.sampled_from([0.5, 0.2]) | st.floats(0.05, 0.5))
    g_floor = draw(st.just(math.nextafter(clamp_lo, 0.0)) | st.floats(1e-3, 0.99 * clamp_lo))
    n_units = draw(st.integers(3, 60))
    frozen = draw(st.none() | st.builds(ModelCoefficients, *[st.floats(-5, 5)] * 6))
    mechanism = draw(
        st.sampled_from(list(_MECHANISMS.values()))
        | st.builds(UpdateMechanism.clipped, st.floats(0.1, 5), st.floats(0.1, 1))
    )
    return TrialConfig(
        n_units=n_units,
        scenario=Scenario(
            draw(st.sampled_from(list(ScenarioId))), draw(st.just(0.0) | st.floats(0, 2))
        ),
        policy=TargetPolicy(
            family=draw(st.sampled_from(list(Family))),
            clamp_lo=clamp_lo,
            c_lambda=draw(st.floats(0.1, 10)),
            g_floor=g_floor,
        ),
        weighting=draw(st.sampled_from(list(Weighting))),
        mechanism=mechanism,
        allocation=draw(st.sampled_from(list(Allocation))),
        burn_in=draw(st.just(2) | st.integers(2, n_units - 1)),
        response_delay=draw(st.integers(0, n_units + 5)),
        seed=draw(st.integers(0, 2**64 - 1)),
        frozen_theta=frozen,
    )


def _edge(family, clamp_lo, scenario, **kw):
    return TrialConfig(
        scenario=scenario,
        policy=TargetPolicy(
            family=family,
            clamp_lo=clamp_lo,
            g_floor=math.nextafter(clamp_lo, 0.0),
        ),
        allocation=Allocation.BALANCE,
        burn_in=2,
        seed=11,
        **kw,
    )


@settings(max_examples=40)
@given(trial_configs())
@example(_edge(Family.LOGISTIC, 0.5, Scenario(ScenarioId.DISCRETE), n_units=40,
               response_delay=40, weighting=Weighting.UNWEIGHTED,
               mechanism=UpdateMechanism.iru()))
@example(_edge(Family.PROBIT, 0.3, Scenario(ScenarioId.B, outcome_noise_sd=1.5), n_units=50,
               weighting=Weighting.WEIGHTED, mechanism=UpdateMechanism.clipped(0.3, 1.0),
               frozen_theta=_TRUTH_A))
@example(_edge(Family.LOGISTIC, 0.2, Scenario(ScenarioId.A, outcome_noise_sd=0.5), n_units=60,
               response_delay=3, weighting=Weighting.WEIGHTED,
               mechanism=UpdateMechanism.clipped(1.0, 0.5)))
def test_trial_properties_over_valid_configs(cfg):
    cfgs = [replace(cfg, seed=split_seed(cfg.seed, k)) for k in range(3)]
    logged = [run_trial(c) for c in cfgs]
    lockstep = run_lockstep(cfgs)
    _assert_same_results(lockstep, logged)
    _assert_same_results(run_lockstep(cfgs), lockstep)
    floor = cfg.policy.g_floor
    for result in logged:
        assert ((floor <= result.log.g) & (result.log.g <= 1.0 - floor)).all()
        assert np.isfinite(result.log.lam).all()
        assert math.isfinite(result.stats.psi)
        assert result.stats.clip_excess <= 1e-12


@st.composite
def batches_of_one_schedule(draw):
    """2-4 valid configs that share a step schedule and differ in
    everything else, frozen theta included when the first is frozen."""
    first = draw(trial_configs())
    discrete = first.scenario.id is ScenarioId.DISCRETE
    ids = [ScenarioId.DISCRETE] if discrete else [ScenarioId.A, ScenarioId.B]
    rows = [first]
    for _ in range(draw(st.integers(1, 3))):
        other = draw(trial_configs())
        theta = first.frozen_theta
        if theta is not None and other.frozen_theta is not None:
            theta = other.frozen_theta
        rows.append(
            replace(
                other,
                n_units=first.n_units,
                burn_in=first.burn_in,
                response_delay=first.response_delay,
                frozen_theta=theta,
                keep_log=first.keep_log,
                scenario=Scenario(draw(st.sampled_from(ids)), other.scenario.outcome_noise_sd),
            )
        )
    return rows


# frozen theta is per row, like every other knob: one batch holds a
# grid of them (a -0.0 coefficient included) under both allocations
_FROZEN_GRID = [
    _cfg(
        n_units=300,
        frozen_theta=theta,
        mechanism=UpdateMechanism.direct(),
        allocation=allocation,
        seed=split_seed(9, k),
    )
    for k, (theta, allocation) in enumerate(
        itertools.product(
            [
                _TRUTH_A,
                ModelCoefficients(0.3, -0.0, 0.1, 0.0, -1.0, 0.2),
                ModelCoefficients(),
                ModelCoefficients(-2.0, 1.0, 0.5, -0.5, 0.25, 3.0),
            ],
            Allocation,
        )
    )
]


# a batch longer than one 256-unit block, with a response delay: every
# family, mechanism and allocation, weighted and not, on A and B
_LONG_MIXED = [
    _cfg(
        n_units=530,
        burn_in=4,
        response_delay=9,
        policy=TargetPolicy(family=family),
        mechanism=mechanism,
        allocation=allocation,
        scenario=scenario,
        weighting=weighting,
        seed=split_seed(10, k),
    )
    for k, (family, mechanism, allocation, scenario, weighting) in enumerate(
        (
            (Family.LOGISTIC, _MECHANISMS["clipped"], Allocation.BALANCE,
             Scenario(ScenarioId.A), Weighting.WEIGHTED),
            (Family.PROBIT, _MECHANISMS["iru"], Allocation.DIRECT,
             Scenario(ScenarioId.B, outcome_noise_sd=1.0), Weighting.UNWEIGHTED),
            (Family.CRD, _MECHANISMS["direct"], Allocation.BALANCE,
             Scenario(ScenarioId.B), Weighting.WEIGHTED),
        )
    )
]


@settings(max_examples=40)
@given(batches_of_one_schedule())
@example(_FROZEN_GRID)
@example(_LONG_MIXED)
def test_lockstep_equals_run_trial_on_any_shared_schedule(cfgs):
    _assert_same_results(run_lockstep(cfgs), [run_trial(c) for c in cfgs])
