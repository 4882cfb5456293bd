import numpy as np
import pytest

from cbara.datagen import CovariateVector, Scenario, ScenarioId, draw_unit_arrays
from cbara.estimator import (
    FitAccumulator,
    TrialRow,
    Weighting,
    design_row,
    fit_working_model,
    ipw_ate,
)
from cbara.policy import ModelCoefficients

TRUTH = ModelCoefficients(4.5, 4.7, 7.5, 1.7, 2.9, 1.4)


def _units(scenario, n, rng):
    """(x, y1, y0) per unit, drawn as one draw_unit_arrays block."""
    x1, x2, x3, y1, y0, _ = draw_unit_arrays(scenario, n, rng)
    return [
        (CovariateVector(a, b, c), p, q)
        for a, b, c, p, q in zip(x1.tolist(), x2.tolist(), x3.tolist(), y1.tolist(), y0.tolist())
    ]


def _rows(n=300, seed=5, noise=0.0, rho=0.5):
    rng = np.random.default_rng(seed)
    units = _units(Scenario(ScenarioId.A, noise), n, rng)
    rows = []
    for x, y1, y0 in units:
        t = int(rng.random() < rho)
        rows.append(TrialRow(x=x, t=t, y=y1 if t else y0, rho_used=rho))
    return rows


def test_design_row_arm_blocks():
    x = CovariateVector(-1.0, 0.25, -0.5)
    assert design_row(x, 1) == (1.0, -1.0, 0.0, 0.0, 0.25, -0.5)
    assert design_row(x, 0) == (0.0, 0.0, 1.0, -1.0, 0.25, -0.5)


def test_noiseless_recovery_both_weightings():
    rows = _rows()
    for weighting in Weighting:
        fit = fit_working_model(rows, weighting)
        assert fit.rank_ok
        assert fit.n_used == len(rows)
        np.testing.assert_allclose(fit.eta.as_array(), TRUTH.as_array(), atol=1e-10)


def test_weighted_solve_matches_dense_wls():
    rng = np.random.default_rng(6)
    units = _units(Scenario(ScenarioId.B, 1.0), 400, rng)
    rho = 0.2 + 0.6 * rng.random(400)
    rows = [
        TrialRow(x=x, t=int(rng.random() < r), y=0.0, rho_used=float(r))
        for (x, _, _), r in zip(units, rho)
    ]
    rows = [
        TrialRow(x=x, t=row.t, y=y1 if row.t else y0, rho_used=row.rho_used)
        for (x, y1, y0), row in zip(units, rows)
    ]
    fit = fit_working_model(rows, Weighting.WEIGHTED)
    d = np.array([design_row(r.x, r.t) for r in rows])
    w = np.array([0.5 / r.rho_used if r.t else 0.5 / (1 - r.rho_used) for r in rows])
    y = np.array([r.y for r in rows])
    ref = np.linalg.solve(d.T @ (w[:, None] * d), d.T @ (w * y))
    np.testing.assert_allclose(fit.eta.as_array(), ref, atol=1e-9)


def test_weights_matter_under_misspecification():
    rng = np.random.default_rng(7)
    units = _units(Scenario(ScenarioId.B), 600, rng)
    rho = np.where(rng.random(600) < 0.5, 0.25, 0.75)
    rows = []
    for (x, y1, y0), r in zip(units, rho):
        t = int(rng.random() < r)
        rows.append(TrialRow(x=x, t=t, y=y1 if t else y0, rho_used=float(r)))
    fw = fit_working_model(rows, Weighting.WEIGHTED).eta.as_array()
    fu = fit_working_model(rows, Weighting.UNWEIGHTED).eta.as_array()
    assert max(abs(a - b) for a, b in zip(fw, fu)) > 1e-4


def test_single_arm_returns_fallback():
    rows = [r for r in _rows() if r.t == 1][:50]
    fallback = ModelCoefficients(9.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    fit = fit_working_model(rows, Weighting.WEIGHTED, fallback=fallback)
    assert not fit.rank_ok
    assert fit.eta == fallback


def test_empty_fit_rejected():
    with pytest.raises(ValueError):
        fit_working_model([], Weighting.UNWEIGHTED)


def test_accumulator_matches_batch_fit():
    rows = _rows(n=120, seed=8, noise=0.5, rho=0.3)
    acc = FitAccumulator(weighting=Weighting.WEIGHTED)
    for r in rows:
        acc.add_row(r)
    inc = acc.fit()
    batch = fit_working_model(rows, Weighting.WEIGHTED)
    np.testing.assert_allclose(inc.eta.as_array(), batch.eta.as_array(), atol=1e-12)
    assert acc.n == 120
    assert acc.has_both_arms


def test_active_columns_zero_fill():
    rng = np.random.default_rng(9)
    units = _units(Scenario(ScenarioId.DISCRETE), 200, rng)
    rows = [
        TrialRow(x=x, t=int(rng.random() < 0.5), y=0.0, rho_used=0.5) for x, _, _ in units
    ]
    rows = [
        TrialRow(x=x, t=r.t, y=y1 if r.t else y0, rho_used=0.5)
        for (x, y1, y0), r in zip(units, rows)
    ]
    fit = fit_working_model(rows, Weighting.WEIGHTED, active=(0, 1, 2, 3))
    assert fit.rank_ok
    assert fit.eta.beta2 == 0.0 and fit.eta.beta3 == 0.0
    np.testing.assert_allclose(
        (fit.eta.alpha1, fit.eta.gamma1, fit.eta.alpha0, fit.eta.gamma0),
        (4.5, 4.7, 7.5, 1.7),
        atol=1e-10,
    )


def test_ipw_hand_example():
    x = CovariateVector(0.0, 0.0, 0.0)
    rows = [
        TrialRow(x=x, t=1, y=2.0, rho_used=0.5),
        TrialRow(x=x, t=0, y=1.0, rho_used=0.5),
    ]
    assert ipw_ate(rows) == pytest.approx((2.0 / 0.5 - 1.0 / 0.5) / 2.0)


def test_ipw_uses_per_row_ratio():
    x = CovariateVector(0.0, 0.0, 0.0)
    rows = [
        TrialRow(x=x, t=1, y=1.0, rho_used=0.25),
        TrialRow(x=x, t=0, y=1.0, rho_used=0.8),
    ]
    assert ipw_ate(rows) == pytest.approx((1.0 / 0.25 - 1.0 / 0.2) / 2.0)


def test_row_validation():
    x = CovariateVector(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        TrialRow(x=x, t=2, y=0.0, rho_used=0.5)
    with pytest.raises(ValueError):
        TrialRow(x=x, t=1, y=0.0, rho_used=0.0)
    with pytest.raises(ValueError):
        TrialRow(x=x, t=1, y=0.0, rho_used=1.0)


def test_ipw_empty_rejected():
    with pytest.raises(ValueError):
        ipw_ate([])
