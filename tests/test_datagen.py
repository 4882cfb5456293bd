import numpy as np
import pytest

from cbara import datagen
from cbara.datagen import (
    CovariateVector,
    Scenario,
    ScenarioId,
    draw_unit_arrays,
    true_ate,
)


def test_covariate_support():
    rng = np.random.default_rng(11)
    x1, x2, x3, *_ = draw_unit_arrays(Scenario(ScenarioId.A), 5000, rng)
    assert set(np.unique(x1)) <= {-1.0, 0.0, 1.0}
    assert np.all(np.abs(x2) <= 1.0)
    assert np.all(np.abs(x3) <= 1.0)


def test_x1_mass_quarter_half_quarter():
    rng = np.random.default_rng(12)
    x1, *_ = draw_unit_arrays(Scenario(ScenarioId.A), 40000, rng)
    assert abs(np.mean(x1 == -1.0) - 0.25) < 0.02
    assert abs(np.mean(x1 == 0.0) - 0.50) < 0.02
    assert abs(np.mean(x1 == 1.0) - 0.25) < 0.02


def test_outcome_equations_noiseless():
    rng = np.random.default_rng(13)
    x1, x2, x3, y1, y0, _ = draw_unit_arrays(Scenario(ScenarioId.A), 200, rng)
    np.testing.assert_allclose(y1, 4.5 + 4.7 * x1 + 2.9 * x2 + 1.4 * x3, atol=1e-12)
    np.testing.assert_allclose(y0, 7.5 + 1.7 * x1 + 2.9 * x2 + 1.4 * x3, atol=1e-12)


def test_second_scenario_has_arm_specific_slopes():
    rng = np.random.default_rng(14)
    x1, x2, x3, y1, y0, _ = draw_unit_arrays(Scenario(ScenarioId.B), 200, rng)
    np.testing.assert_allclose(y1, 4.5 + 4.7 * x1 - 0.6 * x2 - 0.6 * x3, atol=1e-12)
    np.testing.assert_allclose(y0, 7.5 + 1.7 * x1 + 2.9 * x2 + 1.4 * x3, atol=1e-12)


def test_discrete_scenario_zeroes_bounded_covariates():
    rng = np.random.default_rng(15)
    x1, x2, x3, *_ = draw_unit_arrays(Scenario(ScenarioId.DISCRETE), 500, rng)
    assert np.all(x2 == 0.0)
    assert np.all(x3 == 0.0)
    assert set(np.unique(x1)) <= {-1.0, 0.0, 1.0}


def test_outcome_noise_shared_across_arms():
    # one noise draw per unit, added to both arms, so the arm contrast
    # stays exactly the noiseless contrast
    rng = np.random.default_rng(16)
    x1, _, _, y1, y0, _ = draw_unit_arrays(Scenario(ScenarioId.A, 2.0), 300, rng)
    np.testing.assert_allclose(y1 - y0, -3.0 + 3.0 * x1, atol=1e-12)


def test_same_seed_same_stream():
    a = draw_unit_arrays(Scenario(ScenarioId.B, 0.5), 64, np.random.default_rng(19))
    b = draw_unit_arrays(Scenario(ScenarioId.B, 0.5), 64, np.random.default_rng(19))
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def _one_expression_draw(scenario, n, rng):
    """draw_unit_arrays as one expression per array, fresh arrays throughout."""
    g = rng.standard_normal((n, 3)) @ datagen._CHOL.T
    x1 = np.where(g[:, 0] < datagen._Q25, -1.0, np.where(g[:, 0] > datagen._Q75, 1.0, 0.0))
    if scenario.id is ScenarioId.DISCRETE:
        x2 = np.zeros(n)
        x3 = np.zeros(n)
    else:
        x2 = np.clip(g[:, 1], -2.0, 2.0) / 2.0
        x3 = 2.0 * datagen._load_ndtr()(g[:, 2]) - 1.0
    eps_z = 0.2 * rng.standard_normal(n)
    zstar = np.tanh(0.8 * x1 + 0.5 * x2 * x2 - 0.3 * x3 + 0.1 * x1 * x3) + eps_z
    (i1, s1, b2_1, b3_1), (i0, s0, b2_0, b3_0) = datagen._ARM_COEFFS[scenario.id]
    y1 = i1 + s1 * x1 + b2_1 * x2 + b3_1 * x3
    y0 = i0 + s0 * x1 + b2_0 * x2 + b3_0 * x3
    if scenario.outcome_noise_sd > 0.0:
        eps = scenario.outcome_noise_sd * rng.standard_normal(n)
        y1 = y1 + eps
        y0 = y0 + eps
    return x1, x2, x3, y1, y0, zstar


@pytest.mark.parametrize("n", [1, 256, 200_001])
@pytest.mark.parametrize("noise", [0.0, 0.7])
@pytest.mark.parametrize("sid", list(ScenarioId), ids=lambda s: s.value)
def test_draw_is_the_one_expression_form_bit_for_bit(sid, noise, n):
    # the draw builds its arrays in place with one scratch vector; each
    # array equals the one-expression form to the last bit, and the
    # generator ends in the same state
    scenario = Scenario(sid, noise)
    rng, ref_rng = np.random.default_rng(20), np.random.default_rng(20)
    got = draw_unit_arrays(scenario, n, rng)
    want = _one_expression_draw(scenario, n, ref_rng)
    for name, left, right in zip(("x1", "x2", "x3", "y1", "y0", "zstar"), got, want):
        assert left.tobytes() == right.tobytes(), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_true_ate_values():
    assert true_ate(Scenario(ScenarioId.A)) == -3.0
    assert true_ate(Scenario(ScenarioId.B)) == -3.0
    assert true_ate(Scenario(ScenarioId.DISCRETE)) == -3.0


def test_scenario_coerces_and_validates():
    assert Scenario("A").id is ScenarioId.A
    for sd in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="outcome noise sd must be finite and >= 0"):
            Scenario(ScenarioId.A, sd)
    # finite but large enough to overflow the squared errors of a summary
    assert Scenario(ScenarioId.A, 1e6).outcome_noise_sd == 1e6
    for sd in (1e6 * (1 + 2**-52), 1e80, 1e200):
        with pytest.raises(ValueError, match=r"^outcome_noise_sd must be <= 1e\+06, got "):
            Scenario(ScenarioId.A, sd)


@pytest.mark.parametrize("bad", [(0.5, 0, 0), (-1, 1.5, 0), (1, 0, -1.01)])
def test_covariate_vector_rejects_off_support(bad):
    with pytest.raises(ValueError):
        CovariateVector(*bad)
