"""Targeted allocation ratios, tuning constants, and the allocation rule.

The targeted ratio rho is a link of the arm contrast at x1, clamped to
the policy's band [clamp_lo, 1 - clamp_lo]. The allocation probability
nudges each assignment against the running imbalance vector:
g = rho - p * <phi, lambda> / (scale * norm-guard), with phi =
(1, x1, x2, x3), clamped to [g_floor, 1 - g_floor]. With the symmetric
ratio clamp the pre-clamp value already lies in [0, 1].

Each rule is written once for one unit (target_ratio_from_x1,
derive_constants, _allocation_prob_raw, increment_scale) and once for
R rows at a time (the *_rows functions), which the lockstep engine
uses and which equal the scalar forms bit for bit. A step whose
parameter has just moved takes its ratios and its (p_theta, c_theta)
from one link call (target_ratio_and_constants_rows). allocation_prob
composes the scalar rule for one covariate vector. The rule's guard
max(|phi| / (rho (1 - rho)), c_theta) has one numpy owner,
_feature_guard, which allocation_prob_rows and the oracle's per-unit
weight both read; _allocation_prob_raw keeps the scalar reference.
allocation_prob_rows takes |phi| from its caller (feature_norm_rows),
so the engine forms it once per block of units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Sequence, Union

import numpy as np

from .datagen import CovariateVector

_EXP_ARG_MAX = 40.0  # monotone links saturate far before this
_SQRT2 = math.sqrt(2.0)


class Family(str, Enum):
    CRD = "crd"
    LOGISTIC = "logistic"
    PROBIT = "probit"


@dataclass(frozen=True, slots=True)
class ModelCoefficients:
    """Six-coefficient linear working model; doubles as the allocation parameter."""

    alpha1: float = 0.0
    gamma1: float = 0.0
    alpha0: float = 0.0
    gamma0: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha1", "gamma1", "alpha0", "gamma0", "beta2", "beta3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.alpha1, self.gamma1, self.alpha0, self.gamma0, self.beta2, self.beta3]
        )

    @classmethod
    def from_array(cls, arr) -> "ModelCoefficients":
        a = [float(v) for v in arr]
        if len(a) != 6:
            raise ValueError("expected 6 coefficients")
        return cls(*a)


ZERO_COEFFS = ModelCoefficients()


@dataclass(frozen=True, slots=True)
class TargetPolicy:
    """Ratio family plus clamp bounds and allocation-rule constants.

    The targeted ratio is clamped to [clamp_lo, clamp_hi], where
    clamp_lo lies in (0, 0.5] and clamp_hi is derived as 1 - clamp_lo.
    The band is symmetric because that is what keeps the pre-clamp
    allocation probability inside [0, 1].
    """

    family: Family
    clamp_lo: float = 0.2
    clamp_hi: float = field(init=False)
    c_lambda: float = 1.0
    g_floor: float = 0.01

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if not 0.0 < self.clamp_lo <= 0.5:
            raise ValueError(f"need 0 < clamp_lo <= 0.5, got {self.clamp_lo!r}")
        object.__setattr__(self, "clamp_hi", 1.0 - self.clamp_lo)
        if not (self.c_lambda > 0.0 and math.isfinite(self.c_lambda)):
            raise ValueError("c_lambda must be finite and > 0")
        if not (0.0 < self.g_floor < self.clamp_lo):
            raise ValueError("need 0 < g_floor < clamp_lo")


def _link(policy: TargetPolicy, delta: float) -> float:
    """Clamped link applied to a treatment-effect difference delta."""
    fam = policy.family
    if fam is Family.CRD:
        return 0.5
    if fam is Family.LOGISTIC:
        u = min(max(-delta / 2.0, -_EXP_ARG_MAX), _EXP_ARG_MAX)
        raw = 1.0 / (1.0 + math.exp(u))
    else:  # probit
        u = min(max(delta / 3.0, -_EXP_ARG_MAX), _EXP_ARG_MAX)
        raw = 0.5 * (1.0 + math.erf(u / _SQRT2))
    return min(max(raw, policy.clamp_lo), policy.clamp_hi)


def target_ratio_from_x1(policy: TargetPolicy, theta: ModelCoefficients, x1: float) -> float:
    """Targeted treatment probability for a unit with covariate x1 under
    parameter theta.

    Only the arm contrast matters: delta = (alpha1 - alpha0)
    + x1 * (gamma1 - gamma0); the shared x2/x3 terms cancel, so x1 is
    the only covariate the ratio reads.
    """
    delta = (theta.alpha1 - theta.alpha0) + x1 * (theta.gamma1 - theta.gamma0)
    return _link(policy, delta)


def sum_columns(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding its entries left to right as a
    scalar loop does. np.add.accumulate is defined as that loop, in one
    call; numpy's own reduction may group the terms differently."""
    return np.add.accumulate(a, axis=-1)[..., -1]


def row_groups(keys: Sequence[Hashable]) -> list[tuple[Hashable, Union[slice, np.ndarray]]]:
    """(key, rows) for each distinct key, in order of first appearance;
    rows indexes the entries holding the key, and is slice(None) when
    every entry does."""
    groups: dict[Hashable, list[int]] = {}
    for r, key in enumerate(keys):
        groups.setdefault(key, []).append(r)
    if len(groups) == 1:
        return [(keys[0], slice(None))]
    return [(key, np.array(rows)) for key, rows in groups.items()]


@dataclass(frozen=True, slots=True, eq=False)
class PolicyRows:
    """The policies of R rows, as the *_rows functions read them.

    links holds (family, rows, clamp_lo, clamp_hi) for each family
    present, rows as in row_groups and the clamps one entry per row of
    the family. c_lambda and g_floor hold one entry per row.
    """

    links: tuple[tuple[Family, Union[slice, np.ndarray], np.ndarray, np.ndarray], ...]
    c_lambda: np.ndarray
    g_floor: np.ndarray

    @classmethod
    def of(cls, policies: Sequence[TargetPolicy]) -> "PolicyRows":
        lo = np.array([p.clamp_lo for p in policies])
        hi = np.array([p.clamp_hi for p in policies])
        links = tuple(
            (family, rows, lo[rows], hi[rows])
            for family, rows in row_groups([p.family for p in policies])
        )
        return cls(
            links,
            np.array([p.c_lambda for p in policies]),
            np.array([p.g_floor for p in policies]),
        )


def _family_link(
    family: Family, delta: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """_link of one family at each entry of delta, whose last axis
    runs over the family's rows. The clamps and 1 / (1 + e) run in
    numpy; only exp and erf need libm's bits, so they are called once
    per entry, and every value equals _link's."""
    if family is Family.CRD:
        return np.full(delta.shape, 0.5)
    if family is Family.LOGISTIC:
        # d / -2.0 is -d / 2.0 bit for bit: negation is exact
        u = np.minimum(np.maximum(delta / -2.0, -_EXP_ARG_MAX), _EXP_ARG_MAX)
        e = np.array(list(map(math.exp, u.ravel().tolist()))).reshape(u.shape)
        raw = 1.0 / (1.0 + e)
    else:  # probit
        u = np.minimum(np.maximum(delta / 3.0, -_EXP_ARG_MAX), _EXP_ARG_MAX) / _SQRT2
        raw = 0.5 * (1.0 + np.array(list(map(math.erf, u.ravel().tolist()))).reshape(u.shape))
    return np.minimum(np.maximum(raw, lo), hi)


def _link_rows(policy: PolicyRows, delta: np.ndarray) -> np.ndarray:
    """_link of row r's policy at delta[..., r], for every row: the last
    axis of delta runs over the rows."""
    out = np.empty(delta.shape)
    for family, rows, lo, hi in policy.links:
        out[..., rows] = _family_link(family, delta[..., rows], lo, hi)
    return out


def _contrasts(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's arm contrasts (alpha1 - alpha0, gamma1 - gamma0)."""
    return theta[:, 0] - theta[:, 2], theta[:, 1] - theta[:, 3]


def target_ratio_rows(policy: PolicyRows, theta: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """target_ratio_from_x1 for row r of theta (R, 6) at x1[r]."""
    alpha, gamma = _contrasts(theta)
    return _link_rows(policy, alpha + x1 * gamma)


def derive_constants(policy: TargetPolicy, theta: ModelCoefficients) -> tuple[float, float]:
    """(p_theta, c_theta) for the allocation rule.

    rho_max, the largest targeted ratio over the covariate support, is
    attained at x1 = sign-matched +-1, so the closed form
    link(|alpha1 - alpha0| + |gamma1 - gamma0|) is exact for the
    three-point x1 support; p_theta = 1 / rho_max and
    c_theta = 2 / (rho_max * (1 - rho_max)), 2 being the largest
    feature norm on the covariate support.
    """
    delta_max = abs(theta.alpha1 - theta.alpha0) + abs(theta.gamma1 - theta.gamma0)
    rho_max = _link(policy, delta_max)
    p_theta = 1.0 / rho_max
    c_theta = 2.0 / (rho_max * (1.0 - rho_max))
    return p_theta, c_theta


def target_ratio_and_constants_rows(
    policy: PolicyRows, theta: np.ndarray, x1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, p_theta, c_theta) for each row of theta (R, 6): rho[r] is
    target_ratio_rows's, and (p_theta[r], c_theta[r]) is derive_constants
    of row r, all from one _link_rows call on the stacked contrasts."""
    alpha, gamma = _contrasts(theta)
    delta = np.concatenate((alpha + x1 * gamma, np.abs(alpha) + np.abs(gamma)))
    rho, rho_max = _link_rows(policy, delta.reshape(2, -1))
    return rho, 1.0 / rho_max, 2.0 / (rho_max * (1.0 - rho_max))


def _allocation_prob_raw(
    rho: float,
    p_theta: float,
    c_theta: float,
    c_lambda: float,
    phi: tuple[float, float, float, float],
    lam: tuple[float, float, float, float],
) -> float:
    """Pre-clamp allocation probability; shared by the public op and the engine."""
    f0, f1, f2, f3 = phi
    l0, l1, l2, l3 = lam
    dot = f0 * l0 + f1 * l1 + f2 * l2 + f3 * l3
    phi_norm = math.sqrt(f0 * f0 + f1 * f1 + f2 * f2 + f3 * f3)
    lam_norm = math.sqrt(l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3)
    denom = max(phi_norm / (rho * (1.0 - rho)), c_theta) * max(lam_norm, c_lambda)
    return rho - p_theta * dot / denom


def _feature_guard(
    phi_norm: np.ndarray, rho: np.ndarray, c_theta, out: np.ndarray | None = None
) -> np.ndarray:
    """The allocation rule's feature-norm guard, elementwise, into out
    when given (out may be phi_norm)."""
    return np.maximum(phi_norm / (rho * (1.0 - rho)), c_theta, out=out)


def clamp_allocation(raw: float, g_floor: float) -> float:
    """Clamp a pre-clamp allocation probability to [g_floor, 1 - g_floor]."""
    return min(max(raw, g_floor), 1.0 - g_floor)


def feature_norm_rows(phi: np.ndarray) -> np.ndarray:
    """|phi| over the last axis of phi, summed left to right as in
    _allocation_prob_raw, one feature at a time, so that no temporary
    is the size of phi."""
    total = phi[..., 0] * phi[..., 0]
    for j in range(1, phi.shape[-1]):
        total += phi[..., j] * phi[..., j]
    return np.sqrt(total, out=total)


def allocation_prob_rows(
    policy: PolicyRows,
    rho: np.ndarray,
    p_theta: np.ndarray,
    c_theta: np.ndarray,
    phi: np.ndarray,
    phi_norm: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """Clamped allocation probability for R rows at once: row r is
    clamp_allocation(_allocation_prob_raw(...)) of rho[r], p_theta[r],
    c_theta[r], phi[r] and lam[r] (phi and lam are (R, 4)), with every
    sum taken left to right as there. phi_norm is feature_norm_rows of
    phi."""
    dot = sum_columns(phi * lam)
    lam_norm = np.sqrt(sum_columns(lam * lam))
    # a huge c_lambda overflows to inf, as in the scalar rule: raw = rho, its limit
    with np.errstate(over="ignore"):
        denom = _feature_guard(phi_norm, rho, c_theta) * np.maximum(lam_norm, policy.c_lambda)
    raw = rho - p_theta * dot / denom
    return np.minimum(np.maximum(raw, policy.g_floor), 1.0 - policy.g_floor)


def allocation_prob(
    policy: TargetPolicy,
    theta: ModelCoefficients,
    lam,
    x: CovariateVector,
) -> float:
    """Allocation probability g(lambda, x): the targeted ratio pushed
    against the current imbalance, clamped to [g_floor, 1 - g_floor]."""
    l0, l1, l2, l3 = (float(v) for v in lam)
    for v in (l0, l1, l2, l3):
        if not math.isfinite(v):
            raise ValueError("imbalance vector must be finite")
    rho = target_ratio_from_x1(policy, theta, x.x1)
    p_theta, c_theta = derive_constants(policy, theta)
    raw = _allocation_prob_raw(
        rho, p_theta, c_theta, policy.c_lambda, (1.0, x.x1, x.x2, x.x3), (l0, l1, l2, l3)
    )
    return clamp_allocation(raw, policy.g_floor)


def increment_scale(rho: float, t: int) -> float:
    """(t - rho) / (rho * (1 - rho)), the weight of one unit's imbalance step."""
    return (t - rho) / (rho * (1.0 - rho))
