"""Synthetic unit generation for the simulation scenarios.

Units are i.i.d. draws of (covariates, both potential outcomes, an
additional covariate z*). Covariates come from a correlated trivariate
Gaussian pushed through three monotone transforms so that x1 is a
three-point discrete variable and x2, x3 are bounded in [-1, 1].

x3 is 2*ndtr(g) - 1 with scipy's ndtr, the package's one use of scipy.
Importing this module does not load scipy: _load_ndtr imports
scipy.special at a process's first draw of a scenario with x3 (A or
B), so a process that never draws such units, as on a config error or
a DiscreteTest-only run, never pays that import. A process that draws
pays it once, at its first draw; the bits are the same ufunc's. The
harness calls _load_ndtr before it forks a pool, so that the workers
inherit the loaded module.

draw_unit_arrays builds its arrays in place: x1 from two masked writes,
x2 and x3 transformed where they are made, the (n, 3) normals dropped
before z* is formed, then z*, y1 and y0 through one scratch vector,
each sum taken in the written formula's order, so the bits are those of
the one-expression form. A draw of n units so holds at most 7 n-sized
float arrays at once, 6 of them its output.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ScenarioId(str, Enum):
    A = "A"
    B = "B"
    DISCRETE = "DiscreteTest"


# per-arm outcome coefficients: (intercept, x1 slope, x2 slope, x3 slope)
_ARM_COEFFS = {
    ScenarioId.A: ((4.5, 4.7, 2.9, 1.4), (7.5, 1.7, 2.9, 1.4)),
    ScenarioId.B: ((4.5, 4.7, -0.6, -0.6), (7.5, 1.7, 2.9, 1.4)),
}
# discrete test scenario: x2 = x3 = 0, outcome equations as in A
_ARM_COEFFS[ScenarioId.DISCRETE] = _ARM_COEFFS[ScenarioId.A]

_CORR = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
_CHOL = np.linalg.cholesky(_CORR)

# the support of x1, in order; draw_unit_arrays yields these and no other
X1_ATOMS = (-1.0, 0.0, 1.0)

# quantile thresholds putting mass 0.25 / 0.5 / 0.25 on x1 = -1 / 0 / 1
_Q25 = statistics.NormalDist().inv_cdf(0.25)
_Q75 = -_Q25

_ZSTAR_NOISE_SD = 0.2
_NOISE_SD_MAX = 1e6


@dataclass(frozen=True, slots=True)
class Scenario:
    """Named outcome scenario plus the optional shared outcome noise.

    The base outcome surfaces carry no noise term; a positive
    outcome_noise_sd adds one shared Normal(0, sd^2) draw to both
    potential outcomes of a unit (sensitivity runs only). The sd is at
    most _NOISE_SD_MAX: responses are O(10) in every scenario, and at
    that bound every square the estimators and summaries take stays far
    inside float range.
    """

    id: ScenarioId
    outcome_noise_sd: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.id, ScenarioId):
            object.__setattr__(self, "id", ScenarioId(self.id))
        if not 0.0 <= self.outcome_noise_sd < math.inf:
            raise ValueError(
                f"outcome noise sd must be finite and >= 0, got {self.outcome_noise_sd}"
            )
        if self.outcome_noise_sd > _NOISE_SD_MAX:
            raise ValueError(
                f"outcome_noise_sd must be <= {_NOISE_SD_MAX:g}, got {self.outcome_noise_sd}"
            )


@dataclass(frozen=True, slots=True)
class CovariateVector:
    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        if self.x1 not in X1_ATOMS:
            raise ValueError(f"x1 must be one of -1, 0, 1, got {self.x1}")
        if not (abs(self.x2) <= 1.0 and abs(self.x3) <= 1.0):
            raise ValueError("x2 and x3 must lie in [-1, 1]")


def _load_ndtr():
    """scipy's normal cdf; the first call imports scipy.special."""
    from scipy.special import ndtr

    return ndtr


def draw_unit_arrays(
    scenario: Scenario, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n units as (x1, x2, x3, y1, y0, zstar) arrays. With g the
    correlated normals and each sum taken left to right:

      x1 = -1 where g1 < Q25, 1 where g1 > Q75, else 0;
      x2 = clip(g2, -2, 2) / 2,  x3 = 2 ndtr(g3) - 1  (0 in DiscreteTest);
      z* = tanh(0.8 x1 + (0.5 x2) x2 - 0.3 x3 + (0.1 x1) x3) + 0.2 eps_z;
      y  = i + s x1 + b2 x2 + b3 x3, per arm, plus sd eps shared by
           both arms when the scenario has outcome noise.

    Draw order per call: n*3 correlated normals, n z*-noise normals,
    then (only when the scenario has outcome noise) n shared-noise
    normals. A fixed call pattern makes streams reproducible per seed.
    """
    g = rng.standard_normal((n, 3)) @ _CHOL.T
    x1 = np.zeros(n)
    x1[g[:, 0] < _Q25] = -1.0
    x1[g[:, 0] > _Q75] = 1.0
    if scenario.id is ScenarioId.DISCRETE:
        x2 = np.zeros(n)
        x3 = np.zeros(n)
    else:
        x2 = np.clip(g[:, 1], -2.0, 2.0)
        x2 /= 2.0
        x3 = _load_ndtr()(g[:, 2])
        x3 *= 2.0
        x3 -= 1.0
    del g
    # one scratch vector t; each sum is taken in the formula's order
    t = np.empty(n)
    zstar = np.multiply(0.8, x1)
    zstar += np.multiply(np.multiply(0.5, x2, out=t), x2, out=t)
    zstar -= np.multiply(0.3, x3, out=t)
    zstar += np.multiply(np.multiply(0.1, x1, out=t), x3, out=t)
    np.tanh(zstar, out=zstar)
    zstar += np.multiply(_ZSTAR_NOISE_SD, rng.standard_normal(out=t), out=t)

    ys = []
    for i, s, b2, b3 in _ARM_COEFFS[scenario.id]:
        # s x1 + i is i + s x1 to the bit: IEEE addition commutes
        y = np.multiply(s, x1)
        y += i
        y += np.multiply(b2, x2, out=t)
        y += np.multiply(b3, x3, out=t)
        ys.append(y)
    y1, y0 = ys
    if scenario.outcome_noise_sd > 0.0:
        eps = np.multiply(scenario.outcome_noise_sd, rng.standard_normal(out=t), out=t)
        y1 += eps
        y0 += eps
    return x1, x2, x3, y1, y0, zstar


def true_ate(scenario: Scenario) -> float:
    """Population mean of Y(1) - Y(0), exact from the scenario coefficients.

    All three covariates have mean zero (x1 by the 0.25/0.5/0.25
    construction, x2 and x3 by symmetry of their transforms), so only
    the intercept difference survives.
    """
    (i1, *_), (i0, *_) = _ARM_COEFFS[scenario.id]
    return i1 - i0
