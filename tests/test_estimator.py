import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbara.datagen import Scenario, ScenarioId, draw_unit_arrays
from cbara.estimator import (
    FitAccumulator,
    FitStack,
    Weighting,
    active_columns,
    fit_working_model,
    _grown_rank_deficient,
    ipw_ate,
    rank_deficient,
)
from cbara.policy import ModelCoefficients

TRUTH = ModelCoefficients(4.5, 4.7, 7.5, 1.7, 2.9, 1.4)


def _assign(units, rng, rho):
    """(x1, x2, x3, t, y, rho) columns: one rng.random() per unit for its arm."""
    x1, x2, x3, y1, y0, _ = units
    rho = np.broadcast_to(np.asarray(rho, dtype=float), x1.shape)
    t = np.array([int(rng.random() < r) for r in rho.tolist()])
    return x1, x2, x3, t, np.where(t == 1, y1, y0), rho


def _rows(n=300, seed=5, noise=0.0, rho=0.5):
    rng = np.random.default_rng(seed)
    return _assign(draw_unit_arrays(Scenario(ScenarioId.A, noise), n, rng), rng, rho)


def test_noiseless_recovery_both_weightings():
    cols = _rows()
    for weighting in Weighting:
        fit = fit_working_model(*cols, weighting)
        assert fit.rank_ok
        assert fit.n_used == len(cols[0])
        np.testing.assert_allclose(fit.eta.as_array(), TRUTH.as_array(), atol=1e-10)


def test_weighted_solve_matches_dense_wls():
    rng = np.random.default_rng(6)
    units = draw_unit_arrays(Scenario(ScenarioId.B, 1.0), 400, rng)
    x1, x2, x3, t, y, rho = _assign(units, rng, 0.2 + 0.6 * rng.random(400))
    fit = fit_working_model(x1, x2, x3, t, y, rho, Weighting.WEIGHTED)
    # design row d(x, t) = (t, t*x1, 1-t, (1-t)*x1, x2, x3)
    d = np.column_stack((t, t * x1, 1 - t, (1 - t) * x1, x2, x3))
    w = np.where(t == 1, 0.5 / rho, 0.5 / (1 - rho))
    ref = np.linalg.solve(d.T @ (w[:, None] * d), d.T @ (w * y))
    np.testing.assert_allclose(fit.eta.as_array(), ref, atol=1e-9)


def test_weights_matter_under_misspecification():
    rng = np.random.default_rng(7)
    units = draw_unit_arrays(Scenario(ScenarioId.B), 600, rng)
    cols = _assign(units, rng, np.where(rng.random(600) < 0.5, 0.25, 0.75))
    fw = fit_working_model(*cols, Weighting.WEIGHTED).eta.as_array()
    fu = fit_working_model(*cols, Weighting.UNWEIGHTED).eta.as_array()
    assert max(abs(a - b) for a, b in zip(fw, fu)) > 1e-4


def test_single_arm_returns_fallback():
    cols = _rows()
    treated = np.flatnonzero(cols[3] == 1)[:50]
    fallback = ModelCoefficients(9.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    fit = fit_working_model(*(c[treated] for c in cols), Weighting.WEIGHTED, fallback=fallback)
    assert not fit.rank_ok
    assert fit.eta == fallback


def test_empty_fit_rejected():
    empty = np.empty(0)
    with pytest.raises(ValueError):
        fit_working_model(*[empty] * 6, Weighting.UNWEIGHTED)
    with pytest.raises(ValueError, match="no rows accumulated"):
        FitAccumulator().fit()


@pytest.mark.parametrize(
    "active, message",
    [
        ((0, 1, 2, 3, 6), "active must name design columns in 0..5"),
        ((0, 1, 2, 4), "the per-arm columns 0..3 cannot be dropped"),
    ],
)
def test_accumulator_rejects_bad_active_columns(active, message):
    with pytest.raises(ValueError, match=message):
        FitAccumulator(active=active)


def test_accumulator_matches_batch_fit():
    cols = _rows(n=120, seed=8, noise=0.5, rho=0.3)
    acc = FitAccumulator(weighting=Weighting.WEIGHTED)
    for row in zip(*(c.tolist() for c in cols)):
        acc.add(*row)
    inc = acc.fit()
    batch = fit_working_model(*cols, Weighting.WEIGHTED)
    np.testing.assert_allclose(inc.eta.as_array(), batch.eta.as_array(), atol=1e-12)
    assert acc.n == 120
    assert acc.has_both_arms


def test_active_columns_zero_fill():
    rng = np.random.default_rng(9)
    cols = _assign(draw_unit_arrays(Scenario(ScenarioId.DISCRETE), 200, rng), rng, 0.5)
    fit = fit_working_model(*cols, Weighting.WEIGHTED, active=(0, 1, 2, 3))
    assert fit.rank_ok
    assert fit.eta.beta2 == 0.0 and fit.eta.beta3 == 0.0
    np.testing.assert_allclose(
        (fit.eta.alpha1, fit.eta.gamma1, fit.eta.alpha0, fit.eta.gamma0),
        (4.5, 4.7, 7.5, 1.7),
        atol=1e-10,
    )


def _nearly_collinear(scenario, eps, n=40, seed=3):
    """(x1, x2, x3, t, y, rho) columns whose active normal matrix is
    nearly singular: x3 = x2 + eps * noise, or on DiscreteTest (x2 =
    x3 = 0) a treated x1 of 1 + eps * noise. Its smallest to largest
    eigenvalue ratio grows as eps**2."""
    rng = np.random.default_rng(seed)
    x1 = rng.choice([-1.0, 0.0, 1.0], n)
    t = np.arange(n) % 2
    noise = rng.standard_normal(n)
    if scenario is ScenarioId.DISCRETE:
        x2 = x3 = np.zeros(n)
        x1 = np.where(t == 1, 1.0 + eps * noise, x1)
    else:
        x2 = rng.uniform(-1.0, 1.0, n)
        x3 = x2 + eps * noise
    return x1, x2, x3, t, 3.0 + rng.standard_normal(n), 0.2 + 0.6 * rng.random(n)


@pytest.mark.parametrize("scenario, eps_below, eps_above", [
    # eigenvalue ratios of about 4.7e-9 and 2.3e-8
    (ScenarioId.A, 9e-5, 2e-4),
    # about 4.5e-9 and 2.4e-8, on the four-column sub-Gram
    (ScenarioId.DISCRETE, 1.3e-4, 3e-4),
])
def test_rank_test_near_its_threshold_is_one_verdict(scenario, eps_below, eps_above):
    # the same rows on each side of the 1e-8 eigenvalue ratio, fed to
    # FitAccumulator and as the two rows of one FitStack, give the same
    # verdict and the same coefficient bits
    active = active_columns(Scenario(scenario))
    fallback = ModelCoefficients(9.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    trials = [_nearly_collinear(scenario, eps) for eps in (eps_below, eps_above)]
    stack = FitStack([Weighting.WEIGHTED] * 2, active)
    for step in range(len(trials[0][0])):
        stack.add(*(np.array([cols[c][step] for cols in trials], dtype=float) for c in range(6)))
    ok, eta = stack.fit(np.array([True, True]), np.tile(fallback.as_array(), (2, 1)))
    assert ok.tolist() == [False, True]
    for r, cols in enumerate(trials):
        acc = FitAccumulator(Weighting.WEIGHTED, active)
        for row in zip(*(c.tolist() for c in cols)):
            acc.add(*row)
        fit = acc.fit(fallback)
        assert fit.rank_ok == ok[r]
        assert fit.eta.as_array().tobytes() == eta[r].tobytes()


def _eigvalsh_verdict(gram):
    """The rank test by its eigenvalues alone: what rank_deficient
    returns, or the exception type eigvalsh raises."""
    try:
        eigs = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError
    return (eigs[..., -1] <= 0.0) | (eigs[..., 0] < 1e-8 * eigs[..., -1])


def _verdict(gram):
    try:
        return rank_deficient(gram)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


def _gram(cols, active=(0, 1, 2, 3, 4, 5)):
    """The weighted normal matrix of (x1, x2, x3, t, y, rho) columns on
    the active design columns."""
    x1, x2, x3, t, _, rho = cols
    d = np.column_stack((t, t * x1, 1 - t, (1 - t) * x1, x2, x3))[:, list(active)]
    w = np.where(t == 1, 0.5 / rho, 0.5 / (1 - rho))
    return d.T @ (w[:, None] * d)


def _certificate_grams():
    """Named single Grams for the certificate: full-rank, singular,
    zero, non-finite, and both sides of the 1e-8 eigenvalue ratio."""
    full = _gram(_rows(n=60, seed=11))
    # x3 repeats x2
    singular = full.copy()
    singular[:, 5] = singular[:, 4]
    singular[5, :] = singular[4, :]
    grams = {"full-rank": full, "singular": singular, "zero": np.zeros((6, 6))}
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        for where, cell in (("diag", (2, 2)), ("off", (4, 1))):
            g = full.copy()
            g[cell] = g[cell[::-1]] = value
            grams[f"{name}-{where}"] = g
    for scenario, eps_below, eps_above in (
        (ScenarioId.A, 9e-5, 2e-4), (ScenarioId.DISCRETE, 1.3e-4, 3e-4),
    ):
        active = active_columns(Scenario(scenario))
        for side, eps in (("below", eps_below), ("above", eps_above)):
            grams[f"{scenario.value}-{side}"] = _gram(_nearly_collinear(scenario, eps), active)
    return grams


_GRAMS = _certificate_grams()


@pytest.mark.parametrize("name", list(_GRAMS))
def test_rank_certificate_gives_the_eigenvalue_verdict(name):
    gram = _GRAMS[name]
    want = _eigvalsh_verdict(gram)
    got = _verdict(gram)
    if want is np.linalg.LinAlgError:
        assert got is want
    else:
        assert type(got) is type(want) and got == want
        # one matrix or a stack of copies: the same verdict per matrix
        stack = _verdict(np.stack([gram] * 3))
        assert stack.tolist() == [bool(want)] * 3


def test_rank_certificate_decides_a_whole_stack_or_none_of_it(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    full = np.stack([_gram(_rows(n=60, seed=seed)) for seed in range(11, 15)])
    # a stack of well-conditioned Grams is decided without eigvalsh
    assert rank_deficient(full).tolist() == [False] * len(full)
    assert calls == []
    # one row the certificate cannot pass sends the whole stack to
    # eigvalsh, which gives each row its own verdict: A-above is full
    # rank inside the certificate's factor-2 margin
    for name, deficient in (("singular", True), ("zero", True), ("A-below", True),
                            ("A-above", False)):
        stack = np.concatenate((full, _GRAMS[name][None]))
        calls.clear()
        got = rank_deficient(stack)
        assert calls == [stack.shape]
        assert got.tolist() == [False] * len(full) + [deficient]
        assert got.tolist() == _eigvalsh_verdict(stack).tolist()


def test_fit_stack_certifies_only_the_rows_it_fits(monkeypatch):
    # a trial that has seen one arm only, so its Gram is singular, sits
    # outside rows and does not send the stack to eigvalsh
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    both = _rows(n=60, seed=11)
    treated = both[:3] + (np.ones(60, dtype=int),) + both[4:]
    stack = FitStack([Weighting.WEIGHTED] * 2, active_columns(Scenario(ScenarioId.A)))
    for step in range(60):
        stack.add(*(np.array([cols[c][step] for cols in (both, treated)], dtype=float)
                    for c in range(6)))
    assert stack.has_both_arms.tolist() == [True, False]
    fallback = np.full((2, 6), 9.0)
    ok, eta = stack.fit(stack.has_both_arms, fallback)
    assert calls == []
    assert ok.tolist() == [True, False]
    assert eta[1].tolist() == [9.0] * 6
    assert eta[0].tobytes() == fit_working_model(*both).eta.as_array().tobytes()


def test_ipw_hand_example():
    assert ipw_ate([1, 0], [2.0, 1.0], [0.5, 0.5]) == pytest.approx((2.0 / 0.5 - 1.0 / 0.5) / 2.0)


def test_ipw_uses_per_row_ratio():
    assert ipw_ate([1, 0], [1.0, 1.0], [0.25, 0.8]) == pytest.approx((1.0 / 0.25 - 1.0 / 0.2) / 2.0)


def test_row_validation():
    zeros = np.zeros(1)
    for t, rho in ((2, 0.5), (1, 0.0), (1, 1.0), (1, np.nan)):
        with pytest.raises(ValueError):
            fit_working_model(zeros, zeros, zeros, [t], zeros, [rho])
        with pytest.raises(ValueError):
            ipw_ate([t], zeros, [rho])


def test_ipw_empty_rejected():
    with pytest.raises(ValueError):
        ipw_ate([], [], [])


# the eps pairs of test_rank_test_near_its_threshold_is_one_verdict:
# eigenvalue ratios on each side of the 1e-8 threshold
_NEAR_THRESHOLD = {ScenarioId.A: (9e-5, 2e-4), ScenarioId.DISCRETE: (1.3e-4, 3e-4)}


def _stack_grams(stack):
    """The active Grams a FitStack's fit tests and solves, one per trial."""
    return stack._u[:, stack._cells]


def _accumulator_gram(acc):
    """The active Gram a FitAccumulator's fit tests, mirrored from its
    upper triangle as fit mirrors it."""
    upper = np.array(acc._g)
    full = upper + upper.T - np.diag(np.diagonal(upper))
    return full[np.ix_(acc.active, acc.active)]


@st.composite
def growing_trials(draw):
    """1-4 trials of 40 rows each on one scenario's active columns:
    nearly collinear rows on either side of the rank threshold, or
    drawn units at drawn ratios; optionally, one trial's x1 becomes
    1e200 from a drawn step on, so its Gram turns non-finite."""
    scenario = draw(st.sampled_from(list(_NEAR_THRESHOLD)))
    trials = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["below", "above", "units"]))
        seed = draw(st.integers(0, 2**32 - 1))
        if kind == "units":
            rng = np.random.default_rng(seed)
            units = draw_unit_arrays(Scenario(scenario), 40, rng)
            cols = _assign(units, rng, 0.2 + 0.6 * rng.random(40))
        else:
            eps = _NEAR_THRESHOLD[scenario][kind == "above"]
            cols = _nearly_collinear(scenario, eps, seed=seed)
        trials.append([np.array(c, dtype=float) for c in cols])
    blowup = draw(st.none() | st.tuples(st.integers(0, len(trials) - 1), st.integers(10, 39)))
    if blowup is not None:
        r, step = blowup
        trials[r][0][step:] = 1e200
    return scenario, trials


_CERTIFIED_THEN_INFINITE = (
    ScenarioId.A,
    [[np.array(c, dtype=float) for c in _rows(n=40, seed=12, rho=0.4)],
     [np.array(c, dtype=float) for c in _nearly_collinear(ScenarioId.A, 2e-4)]],
)
_CERTIFIED_THEN_INFINITE[1][0][0][30:] = 1e200


def _fit_outcome(fit):
    """What fit() gives: its pass list, or the type of the error it
    raises."""
    try:
        return fit()
    except (np.linalg.LinAlgError, ValueError) as err:
        return type(err)


def _eigenvalue_outcome(grams):
    """What a fit over every Gram of the stack gives when the eigenvalue
    test alone decides: eigvalsh's error, a ValueError when a Gram it
    passes is non-finite (its coefficients are), or the passing rows."""
    deficient = _eigvalsh_verdict(grams)
    if deficient is np.linalg.LinAlgError:
        return deficient
    if not np.isfinite(grams[~deficient]).all():
        return ValueError
    return (~deficient).tolist()


def _near_threshold_pair(scenario):
    """The nearly collinear trials of one scenario on both sides of the
    rank threshold, as one case of growing_trials."""
    return scenario, [
        [np.array(c, dtype=float) for c in _nearly_collinear(scenario, eps)]
        for eps in _NEAR_THRESHOLD[scenario]
    ]


@settings(max_examples=60)
@given(growing_trials())
@example(_CERTIFIED_THEN_INFINITE)
@example(_near_threshold_pair(ScenarioId.A))
@example(_near_threshold_pair(ScenarioId.DISCRETE))
# a Gram cell of 1e200 squared overflows to inf, and mirroring it forms inf - inf
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_cached_rank_certificate_gives_the_eigenvalue_verdict_at_every_step(case):
    # Gram sequences that only grow, fed to one FitStack and to one
    # FitAccumulator per trial: at every step each fit's verdict is the
    # eigenvalue test's on its Gram, and a Gram that turns non-finite,
    # certified before or not, is decided by the eigenvalue test again
    scenario, trials = case
    active = active_columns(Scenario(scenario))
    stack = FitStack([Weighting.WEIGHTED] * len(trials), active)
    accs = [FitAccumulator(Weighting.WEIGHTED, active) for _ in trials]
    fallback = np.full((len(trials), 6), 9.0)
    for step in range(40):
        rows = [[c[step] for c in cols] for cols in trials]
        stack.add(*(np.array(col) for col in zip(*rows)))
        for acc, row in zip(accs, rows):
            acc.add(*row)
        every = np.ones(len(trials), dtype=bool)
        want = _eigenvalue_outcome(_stack_grams(stack))
        assert _fit_outcome(lambda: stack.fit(every, fallback)[0].tolist()) == want
        for r, acc in enumerate(accs):
            first = ModelCoefficients.from_array(fallback[r])
            got = _fit_outcome(lambda: acc.fit(first))
            want_r = _eigenvalue_outcome(_accumulator_gram(acc)[None])
            assert (got if isinstance(got, type) else [got.rank_ok]) == want_r
            if isinstance(want, list):
                # the same coefficient bits from both accumulators
                assert got.eta.as_array().tobytes() == stack.fit(every, fallback)[1][r].tobytes()


def test_a_certified_gram_that_turns_non_finite_goes_back_to_the_eigenvalue_test(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    full = np.stack([_gram(_rows(n=60, seed=seed)) for seed in (11, 12)])
    floor = np.full(2, -np.inf)
    assert _grown_rank_deficient(full, floor).tolist() == [False, False]
    assert (floor > 0).all() and calls == []
    # grown by half itself: the cached floor decides, nothing is factored
    assert _grown_rank_deficient(1.5 * full, floor).tolist() == [False, False]
    assert calls == []
    for value in (np.inf, np.nan):
        grown = 1.5 * full
        grown[1, 3, 3] = value
        assert _verdict(grown) is np.linalg.LinAlgError
        with pytest.raises(np.linalg.LinAlgError):
            _grown_rank_deficient(grown, floor.copy())
        assert calls[-1] == (1, 6, 6)


def _adaptive_replicate_batch():
    """The configs of the benchmark's adaptive-replicate workload: ten
    logistic, weighted, balance, clipped trials of 800 units."""
    from cbara.adapt import UpdateMechanism
    from cbara.engine import Allocation, TrialConfig
    from cbara.harness import ReplicationPlan, replication_configs
    from cbara.policy import Family, TargetPolicy

    cfg = TrialConfig(
        n_units=800,
        scenario=Scenario(ScenarioId.A),
        policy=TargetPolicy(family=Family.LOGISTIC),
        weighting=Weighting.WEIGHTED,
        mechanism=UpdateMechanism.clipped(1.0, 0.5),
        allocation=Allocation.BALANCE,
        keep_log=False,
    )
    return replication_configs(ReplicationPlan(base_config=cfg, n_reps=10, base_seed=0))


def test_a_certified_gram_is_not_factored_again_while_it_grows(monkeypatch):
    # 780 fitting steps per trial: the certificate is taken a few times
    # per batch, not once per step, in both engines
    from cbara.engine import run_lockstep, run_trial

    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    configs = _adaptive_replicate_batch()
    results = run_lockstep(configs)
    assert [r.n_fit_steps for r in results] == [780] * len(configs)
    assert 1 <= len(calls) <= 5
    calls.clear()
    assert run_trial(configs[0]).n_fit_steps == 780
    assert 1 <= len(calls) <= 5
