"""Update mechanisms for the allocation parameter.

Three ways to turn the estimate sequence into the parameter sequence:
direct reuse, reuse on an increasingly rare index set (the perfect
squares), and norm-clipped steps with budget c0 * n**(-exponent).
The rare-set density and the vanishing clip budget each force the
cumulative parameter movement to be o(n), which is the slow-variation
property the allocation theory needs; the clip budget additionally has
a divergent sum (exponent <= 1), so clipped updates can still travel
arbitrarily far over time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .policy import ModelCoefficients, sum_columns


class MechanismKind(str, Enum):
    DIRECT = "direct"
    IRU = "iru"
    CLIPPED = "clipped"


def perfect_squares(n: int) -> bool:
    """Membership test for the rare-update index set {k*k}, whose
    density in [1, n] is at most n**-0.5."""
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True, slots=True)
class UpdateMechanism:
    """Parameter-update rule: kind plus the clipped kind's budget knobs.

    clip_exponent must stay in (0, 1] so the clip budgets sum to
    infinity.
    """

    kind: MechanismKind
    clip_c0: float = 1.0
    clip_exponent: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MechanismKind):
            object.__setattr__(self, "kind", MechanismKind(self.kind))
        if not (self.clip_c0 > 0.0 and math.isfinite(self.clip_c0)):
            raise ValueError("clip_c0 must be finite and > 0")
        if not 0.0 < self.clip_exponent <= 1.0:
            raise ValueError("clip_exponent must lie in (0, 1]")

    @classmethod
    def direct(cls) -> "UpdateMechanism":
        return cls(kind=MechanismKind.DIRECT)

    @classmethod
    def iru(cls) -> "UpdateMechanism":
        return cls(kind=MechanismKind.IRU)

    @classmethod
    def clipped(cls, c0: float = 1.0, exponent: float = 0.5) -> "UpdateMechanism":
        return cls(kind=MechanismKind.CLIPPED, clip_c0=c0, clip_exponent=exponent)


def clip_bound(mech: UpdateMechanism, n: int) -> float:
    """Movement budget c0 * n**(-exponent) at step count n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return mech.clip_c0 * n ** (-mech.clip_exponent)


def next_theta(
    mech: UpdateMechanism,
    n: int,
    theta_prev: ModelCoefficients,
    eta_n: ModelCoefficients,
) -> ModelCoefficients:
    """Advance the allocation parameter given the fresh estimate eta_n.

    n counts responses available at this update (n >= 1). Direct
    returns eta_n. The rare mechanism returns eta_n only when n is a
    perfect square and otherwise holds theta_prev. Clipped moves
    from theta_prev toward eta_n, truncating the step to norm
    clip_bound(mech, n); a within-budget step lands on eta_n exactly,
    so the parameter never overshoots the estimate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kind = mech.kind
    if kind is MechanismKind.DIRECT:
        return eta_n
    if kind is MechanismKind.IRU:
        return eta_n if perfect_squares(n) else theta_prev

    prev = theta_prev.as_array()
    delta = eta_n.as_array() - prev
    dist = float(np.linalg.norm(delta))
    bound = clip_bound(mech, n)
    if dist <= bound:
        return eta_n
    return ModelCoefficients.from_array(prev + delta * (bound / dist))


def next_theta_rows(
    mech: UpdateMechanism, n: int, prev: np.ndarray, eta: np.ndarray
) -> np.ndarray:
    """next_theta for each row of prev and eta (R, 6), all at step count n.

    A clipped row whose squared distance, summed in any order, is below
    the squared budget by a margin far wider than rounding lands on eta.
    Every other row takes its distance from one stacked matmul of its
    (1, 6) and (6, 1) views. Each of those products is a vector dot,
    which numpy's matmul hands to the same dot kernel as v @ v, and
    np.linalg.norm gives next_theta sqrt(v @ v); so the distance, and
    the clipped row, match next_theta bit for bit, where a batched norm
    (a sum over the squared columns) can differ in the last bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kind = mech.kind
    if kind is MechanismKind.DIRECT:
        return eta
    if kind is MechanismKind.IRU:
        return eta if perfect_squares(n) else prev
    delta = eta - prev
    bound = clip_bound(mech, n)
    near = np.flatnonzero(sum_columns(delta * delta) > bound * bound * (1.0 - 1e-9))
    dn = delta[near]
    dist = np.sqrt(np.matmul(dn[:, None, :], dn[:, :, None])[:, 0, 0])
    far = near[~(dist <= bound)]
    if not len(far):
        return eta
    out = eta.copy()
    out[far] = prev[far] + delta[far] * (bound / dist[~(dist <= bound)])[:, None]
    return out
