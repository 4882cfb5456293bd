import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbara.adapt import (
    MechanismKind,
    UpdateMechanism,
    clip_bound,
    next_theta,
    next_theta_rows,
    perfect_squares,
)
from cbara.policy import ModelCoefficients, ZERO_COEFFS

ETA = ModelCoefficients(1.0, -2.0, 0.5, 0.25, 3.0, -1.0)


def _dist(a: ModelCoefficients, b: ModelCoefficients) -> float:
    return math.sqrt(sum((u - v) ** 2 for u, v in zip(a.as_array(), b.as_array())))


def test_perfect_squares_membership():
    hits = [n for n in range(1, 150) if perfect_squares(n)]
    assert hits == [1, 4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144]


def test_direct_mechanism_tracks_the_fit():
    mech = UpdateMechanism.direct()
    assert mech.kind is MechanismKind.DIRECT
    assert next_theta(mech, 7, ZERO_COEFFS, ETA) == ETA


def test_rare_mechanism_updates_only_on_schedule():
    mech = UpdateMechanism.iru()
    assert next_theta(mech, 3, ZERO_COEFFS, ETA) == ZERO_COEFFS
    assert next_theta(mech, 4, ZERO_COEFFS, ETA) == ETA


def test_clip_bound_decays():
    mech = UpdateMechanism.clipped(1.0, 0.5)
    assert clip_bound(mech, 4) == pytest.approx(0.5)
    assert clip_bound(mech, 100) == pytest.approx(0.1)
    faster = UpdateMechanism.clipped(2.0, 1.0)
    assert clip_bound(faster, 8) == pytest.approx(0.25)


def test_step_count_must_be_positive():
    mech = UpdateMechanism.clipped(1.0, 0.5)
    with pytest.raises(ValueError, match="n must be >= 1"):
        clip_bound(mech, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        next_theta(mech, 0, ZERO_COEFFS, ETA)
    with pytest.raises(ValueError, match="n must be >= 1"):
        next_theta_rows(mech, 0, np.zeros((1, 6)), ETA.as_array()[None, :])


def test_clipped_short_move_lands_on_target():
    mech = UpdateMechanism.clipped(100.0, 0.5)
    assert next_theta(mech, 4, ZERO_COEFFS, ETA) == ETA


def test_clipped_long_move_stops_at_the_bound():
    mech = UpdateMechanism.clipped(1.0, 0.5)
    out = next_theta(mech, 4, ZERO_COEFFS, ETA)
    bound = clip_bound(mech, 4)
    assert _dist(ZERO_COEFFS, out) == pytest.approx(bound, rel=1e-12)
    # clipped point stays on the segment toward the fit
    scale = bound / _dist(ZERO_COEFFS, ETA)
    for got, want in zip(out.as_array(), ETA.as_array()):
        assert got == pytest.approx(want * scale, rel=1e-12)


def test_mechanism_validation():
    with pytest.raises(ValueError):
        UpdateMechanism.clipped(0.0, 0.5)
    with pytest.raises(ValueError):
        UpdateMechanism.clipped(1.0, 0.0)
    with pytest.raises(ValueError):
        UpdateMechanism.clipped(1.0, 1.2)
    UpdateMechanism.clipped(1.0, 1.0)  # closed right endpoint
    for c0 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="clip_c0 must be finite"):
            UpdateMechanism.clipped(c0, 0.5)


coeff_st = st.builds(ModelCoefficients, *[st.floats(-20, 20) for _ in range(6)])


@given(coeff_st, coeff_st, st.integers(1, 10**6), st.floats(0.1, 5), st.floats(0.1, 1))
def test_clipped_never_overshoots(prev, eta, n, c0, exponent):
    mech = UpdateMechanism.clipped(c0, exponent)
    out = next_theta(mech, n, prev, eta)
    assert _dist(prev, out) <= clip_bound(mech, n) + 1e-9
    assert _dist(out, eta) <= _dist(prev, eta) + 1e-9


# a row's clip distance as a multiple of the budget: well inside it,
# inside or just over the 1 - 1e-9 band of the squared budget, exactly
# on it, and far outside it
_ROW_KINDS = ("inside", "band", "exact", "far")


@st.composite
def clipped_rows(draw):
    """(mech, n, prev, eta) with rows of every _ROW_KINDS kind."""
    mech = UpdateMechanism.clipped(draw(st.floats(0.1, 5)), draw(st.floats(0.1, 1)))
    n = draw(st.integers(1, 10**6))
    bound = clip_bound(mech, n)
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=12))
    prev = np.array([draw(st.lists(st.floats(-20, 20), min_size=6, max_size=6)) for _ in kinds])
    eta = prev.copy()
    for r, kind in enumerate(kinds):
        if kind == "exact":
            # one coordinate moves from 0 by the budget: the distance is
            # sqrt(bound**2) == bound
            k = draw(st.integers(0, 5))
            prev[r, k] = 0.0
            eta[r] = prev[r]
            eta[r, k] = bound
            continue
        u = np.array(draw(st.lists(st.floats(0.1, 1) | st.floats(-1, -0.1), min_size=6,
                                   max_size=6)))
        scale = {
            "inside": draw(st.floats(0.0, 0.9)),
            "band": 1.0 + draw(st.floats(-4e-10, 4e-10)),
            "far": draw(st.floats(2.0, 1e4)),
        }[kind]
        eta[r] = prev[r] + u * (bound * scale / math.sqrt(u @ u))
    return mech, n, prev, eta


@settings(max_examples=200)
@given(clipped_rows())
@example((UpdateMechanism.clipped(1.0, 0.5), 4, np.zeros((3, 6)),
          np.array([[0.5, 0, 0, 0, 0, 0], [0, 0.5 * (1 + 3e-10), 0, 0, 0, 0], ETA.as_array()])))
def test_clipped_rows_equal_next_theta_bit_for_bit(case):
    mech, n, prev, eta = case
    got = next_theta_rows(mech, n, prev, eta)
    for r in range(len(prev)):
        want = next_theta(
            mech, n, ModelCoefficients.from_array(prev[r]), ModelCoefficients.from_array(eta[r])
        )
        assert got[r].tobytes() == want.as_array().tobytes()
