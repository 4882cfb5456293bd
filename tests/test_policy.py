import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbara.datagen import CovariateVector
from cbara.policy import (
    Family,
    ModelCoefficients,
    PolicyRows,
    TargetPolicy,
    ZERO_COEFFS,
    allocation_prob,
    derive_constants,
    increment_scale,
    target_ratio_and_constants_rows,
    target_ratio_from_x1,
    target_ratio_rows,
)

ORIGIN = CovariateVector(0.0, 0.0, 0.0)

coeff_st = st.builds(
    ModelCoefficients,
    *[st.floats(-5, 5) for _ in range(6)],
)


def test_feature_vector():
    # the rule pushes against <phi(x), lambda> with phi(x) = (1, x1, x2,
    # x3): under CRD at theta = 0 and the unit imbalance e_k,
    # g = 0.5 - phi_k / 4 exactly, since max(|phi| / 0.25, 8) = 8 here
    pol = TargetPolicy(family=Family.CRD)
    x = CovariateVector(1.0, -0.25, 0.5)
    units = [tuple(float(j == k) for j in range(4)) for k in range(4)]
    phi = [4.0 * (0.5 - allocation_prob(pol, ZERO_COEFFS, e, x)) for e in units]
    assert phi == [1.0, 1.0, -0.25, 0.5]


def test_constant_family_ignores_theta():
    pol = TargetPolicy(family=Family.CRD)
    theta = ModelCoefficients(9.0, -4.0, 1.0, 2.0, 0.0, 0.0)
    for x1 in (-1.0, 0.0, 1.0):
        assert target_ratio_from_x1(pol, theta, x1) == 0.5


def test_logistic_ratio_values():
    pol = TargetPolicy(family=Family.LOGISTIC)
    assert target_ratio_from_x1(pol, ZERO_COEFFS, 0.0) == 0.5
    # arm contrast 4.5 - 7.5 + (4.7 - 1.7) x1
    theta = ModelCoefficients(4.5, 4.7, 7.5, 1.7, 2.9, 1.4)
    assert target_ratio_from_x1(pol, theta, 1.0) == 0.5
    assert target_ratio_from_x1(pol, theta, -1.0) == 0.2  # floor clamp
    expected = 1.0 / (1.0 + math.exp(1.5))
    assert target_ratio_from_x1(pol, theta, 0.0) == pytest.approx(max(expected, 0.2))


def test_probit_ratio_matches_normal_cdf():
    pol = TargetPolicy(family=Family.PROBIT)
    theta = ModelCoefficients(1.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    got = target_ratio_from_x1(pol, theta, 0.0)
    want = 0.5 * (1.0 + math.erf(0.5 / math.sqrt(2.0)))
    assert got == pytest.approx(want, abs=1e-12)
    big = ModelCoefficients(30.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert target_ratio_from_x1(pol, big, 0.0) == 0.8  # ceiling clamp


def test_target_ratio_uses_only_x1():
    # neither x2, x3 nor their shared coefficients move the ratio that
    # the allocation rule targets
    pol = TargetPolicy(family=Family.LOGISTIC)
    theta = ModelCoefficients(1.0, 2.0, 0.5, -1.0, 3.0, 3.0)
    b = target_ratio_from_x1(pol, theta, 1.0)
    assert target_ratio_from_x1(pol, ModelCoefficients(1.0, 2.0, 0.5, -1.0, -4.0, 0.0), 1.0) == b
    assert allocation_prob(pol, theta, (0.0, 0.0, 0.0, 0.0), CovariateVector(1.0, 0.9, -0.9)) == b


def test_policy_validation():
    # the upper clamp is derived, never given
    assert TargetPolicy(Family.CRD, clamp_lo=0.3).clamp_hi == 0.7
    assert TargetPolicy(Family.CRD, clamp_lo=0.5).clamp_hi == 0.5
    with pytest.raises(TypeError):
        TargetPolicy(family=Family.CRD, clamp_lo=0.3, clamp_hi=0.7)
    for clamp_lo in (0.0, -0.1, 0.5000001, 0.8, math.nan):
        with pytest.raises(ValueError, match="need 0 < clamp_lo <= 0.5"):
            TargetPolicy(family=Family.CRD, clamp_lo=clamp_lo)
    with pytest.raises(ValueError):
        TargetPolicy(family=Family.CRD, g_floor=0.25)  # must stay below clamp_lo
    with pytest.raises(ValueError):
        TargetPolicy(family=Family.CRD, c_lambda=0.0)
    for c_lambda in (math.inf, math.nan):
        with pytest.raises(ValueError, match="c_lambda must be finite"):
            TargetPolicy(family=Family.CRD, c_lambda=c_lambda)


def test_coefficients_validation_and_round_trip():
    with pytest.raises(ValueError):
        ModelCoefficients(float("nan"), 0, 0, 0, 0, 0)
    theta = ModelCoefficients(1, 2, 3, 4, 5, 6)
    assert ModelCoefficients.from_array(theta.as_array()) == theta
    with pytest.raises(ValueError, match="expected 6 coefficients"):
        ModelCoefficients.from_array([1, 2, 3, 4, 5])


def test_derive_constants_constant_family():
    pol = TargetPolicy(family=Family.CRD)
    assert derive_constants(pol, ZERO_COEFFS) == (2.0, 8.0)


def test_derive_constants_logistic():
    pol = TargetPolicy(family=Family.LOGISTIC)
    theta = ModelCoefficients(2.0, 1.0, 0.0, -1.0, 0.0, 0.0)
    p, c = derive_constants(pol, theta)
    # widest ratio at contrast |2| + |2| = 4, clamped to 0.8
    assert target_ratio_from_x1(pol, theta, 1.0) == 0.8
    assert p == pytest.approx(1.25)
    assert c == pytest.approx(2.0 / (0.8 * 0.2))


@pytest.mark.parametrize("family", list(Family))
def test_ratio_and_constants_rows_are_the_scalar_rules(family):
    # each row's ratio and (p_theta, c_theta), from one stacked link
    # call, are target_ratio_from_x1's and derive_constants's bits: rows
    # of the family under test at three clamps, mixed with the others
    rng = np.random.default_rng(4)
    theta = np.concatenate((
        rng.normal(0.0, 3.0, (300, 6)),
        rng.normal(0.0, 200.0, (40, 6)),  # both saturations
        [[0.0, -0.0, -0.0, 0.0, 1.0, 2.0], [-0.0] * 6, [1e300, 0.0, -1e300, 0.0, 0.0, 0.0]],
    ))
    x1 = rng.choice([-1.0, 0.0, 1.0], len(theta))
    others = [TargetPolicy(family=f, clamp_lo=0.3) for f in Family]
    policies = [
        TargetPolicy(family=family, clamp_lo=(0.2, 0.35, 0.5)[r % 3]) if r % 2 else others[r % 3]
        for r in range(len(theta))
    ]
    rows = PolicyRows.of(policies)
    rho, p_theta, c_theta = target_ratio_and_constants_rows(rows, theta, x1)
    coeffs = [ModelCoefficients.from_array(t) for t in theta]
    want_rho = np.array([target_ratio_from_x1(p, c, x) for p, c, x in zip(policies, coeffs, x1)])
    want_p, want_c = np.array([derive_constants(p, c) for p, c in zip(policies, coeffs)]).T
    assert rho.tobytes() == want_rho.tobytes()
    assert p_theta.tobytes() == want_p.tobytes()
    assert c_theta.tobytes() == want_c.tobytes()
    assert target_ratio_rows(rows, theta, x1).tobytes() == want_rho.tobytes()


def test_allocation_worked_example():
    pol = TargetPolicy(family=Family.CRD)
    g = allocation_prob(pol, ZERO_COEFFS, (2.0, 0.0, 0.0, 0.0), ORIGIN)
    assert g == pytest.approx(0.25)


def test_allocation_with_zero_imbalance_is_the_ratio():
    pol = TargetPolicy(family=Family.LOGISTIC)
    theta = ModelCoefficients(1.0, 0.5, 0.0, 0.0, 0.0, 0.0)
    x = CovariateVector(1.0, 0.3, -0.2)
    g = allocation_prob(pol, theta, (0.0, 0.0, 0.0, 0.0), x)
    assert g == pytest.approx(target_ratio_from_x1(pol, theta, x.x1))


def test_allocation_clamp_engages_at_support_corner():
    # the correction saturates at p * rho * (1 - rho) = 1/2 for CRD, so
    # only a corner unit (max feature norm) with the imbalance parallel
    # to its feature vector drives the raw probability to 0 or 1
    pol = TargetPolicy(family=Family.CRD)
    corner = CovariateVector(1.0, 1.0, 1.0)
    with_lam = allocation_prob(pol, ZERO_COEFFS, (5.0, 5.0, 5.0, 5.0), corner)
    assert with_lam == pytest.approx(pol.g_floor)
    against = allocation_prob(pol, ZERO_COEFFS, (-5.0, -5.0, -5.0, -5.0), corner)
    assert against == pytest.approx(1.0 - pol.g_floor)


def test_allocation_rejects_nonfinite_imbalance():
    pol = TargetPolicy(family=Family.CRD)
    with pytest.raises(ValueError):
        allocation_prob(pol, ZERO_COEFFS, (float("inf"), 0.0, 0.0, 0.0), ORIGIN)


@given(
    coeff_st,
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.sampled_from(list(Family)),
)
def test_allocation_stays_inside_floor_band(theta, l0, l1, l2, l3, x1, x2, x3, family):
    pol = TargetPolicy(family=family)
    g = allocation_prob(pol, theta, (l0, l1, l2, l3), CovariateVector(x1, x2, x3))
    assert pol.g_floor <= g <= 1.0 - pol.g_floor


@given(coeff_st, st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from(list(Family)))
def test_target_ratio_respects_clamps(theta, x1, family):
    pol = TargetPolicy(family=family)
    rho = target_ratio_from_x1(pol, theta, x1)
    assert pol.clamp_lo <= rho <= pol.clamp_hi


def test_imbalance_increment_vector_and_scalar():
    # a unit moves the imbalance by increment_scale times its feature
    # vector phi, or times its scalar covariate z
    phi = (1.0, -1.0, 0.5, 0.0)
    up = [increment_scale(0.5, 1) * v for v in phi]
    assert up == pytest.approx((2.0, -2.0, 1.0, 0.0))
    down = increment_scale(0.25, 0) * 2.0
    # scalar feature: (t - rho) * z / (rho (1 - rho))
    assert down == pytest.approx(-0.25 * 2.0 / 0.1875)
