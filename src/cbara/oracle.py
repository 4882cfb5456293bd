"""Population-level ground truth for the asymptotic theory.

Expectations under the covariate/outcome law are replaced by sample
means over one large frozen draw (default one million units). That is
enough to pin the limit allocation parameter, the balance coefficient
vector, and the three asymptotic variances to the tolerances the
acceptance checks use, while keeping every quantity an ordinary finite
sum that tests can recompute independently.

Conventions. The second-derivative matrix of the fitting criterion is
negative definite for the squared-error model; everything here works
with its negation Mp = E[(d1 d1' + d0 d0') / 2], which is PSD, and the
signs of the influence vectors are chosen so the reported covariance is
unaffected. The balance linear systems all share one Gram matrix,
G = E[phi phi' w / (rho (1 - rho))], with per-unit weight
w = 1 / max(|phi| / (rho (1 - rho)), C_theta); only the right-hand side
changes with the quantity being balanced.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .adapt import UpdateMechanism
from .datagen import CovariateVector, Scenario, ScenarioId, draw_unit_arrays
from .engine import Allocation, TrialConfig, run_trial
from .estimator import Weighting, active_columns
from .policy import (
    ModelCoefficients,
    PolicyRows,
    TargetPolicy,
    allocation_prob_rows,
    derive_constants,
    feature_vector,
    target_ratio,
    target_ratio_from_x1,
)

_CHUNK = 200_000
_PINV_COND = 1e12

_X1_ATOMS = (-1.0, 0.0, 1.0)


class PopulationSample:
    """One frozen i.i.d. draw of units, stored as flat arrays."""

    __slots__ = ("scenario", "seed", "x1", "x2", "x3", "y1", "y0", "zstar")

    def __init__(self, scenario: Scenario, seed: int, m: int = 10**6) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        self.scenario = scenario
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.x1, self.x2, self.x3, self.y1, self.y0, self.zstar = draw_unit_arrays(
            scenario, m, rng
        )

    def __len__(self) -> int:
        return self.x1.shape[0]


def z_additional(pop: PopulationSample) -> np.ndarray:
    """The trial's scalar additional covariate.

    A z definition is any callable that takes the PopulationSample and
    returns one value per unit as an array.
    """
    return pop.zstar


def _eval_z(pop: PopulationSample, z_def: Callable) -> np.ndarray:
    z = np.asarray(z_def(pop), dtype=float)
    if z.shape != (len(pop),):
        raise ValueError("z_def must return one value per unit")
    return z


@dataclass(frozen=True, slots=True)
class AsymptoticReport:
    theta_star: ModelCoefficients
    a_vec: tuple[float, float, float, float]
    sigma_z_sq: float
    ipw_var: float
    mest_cov: np.ndarray


def _check_gram(g: np.ndarray) -> np.ndarray:
    """Symmetry and PSD guards for matrices headed into a solve."""
    scale = max(float(np.max(np.abs(g))), 1.0)
    if float(np.max(np.abs(g - g.T))) > 1e-10 * scale:
        raise ValueError("Gram matrix lost symmetry")
    g = (g + g.T) / 2.0
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] < -1e-8 * float(np.trace(g)):
        raise ValueError("Gram matrix is not PSD")
    return g


def _solve_gram(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve g x = rhs, falling back to the least-norm solution when g
    is ill-conditioned (the balance coefficient is only identified on
    the Gram's row space)."""
    g = _check_gram(g)
    if np.linalg.cond(g) > _PINV_COND:
        return np.linalg.pinv(g) @ rhs
    return np.linalg.solve(g, rhs)


def _rho_star(policy: TargetPolicy, theta: ModelCoefficients, x1: np.ndarray) -> np.ndarray:
    """Per-unit targeted ratio: the engine's link at the three x1 atoms,
    looked up by each unit's x1 (draw_unit_arrays only yields -1, 0, 1)."""
    atoms = np.array([target_ratio_from_x1(policy, theta, a) for a in _X1_ATOMS])
    return atoms[x1.astype(np.intp) + 1]


def _balance_weights(
    policy: TargetPolicy,
    theta: ModelCoefficients,
    pop: PopulationSample,
    rho: np.ndarray,
) -> np.ndarray:
    _, c_theta, _ = derive_constants(policy, theta)
    phi_norm = np.sqrt(1.0 + pop.x1**2 + pop.x2**2 + pop.x3**2)
    return 1.0 / np.maximum(phi_norm / (rho * (1.0 - rho)), c_theta)


def _phi_matrix(pop: PopulationSample, lo: int, hi: int) -> np.ndarray:
    return np.column_stack(
        (np.ones(hi - lo), pop.x1[lo:hi], pop.x2[lo:hi], pop.x3[lo:hi])
    )


def _design_blocks(pop: PopulationSample, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm design rows d(x,1) and d(x,0) for a chunk of units."""
    n = hi - lo
    one = np.ones(n)
    zero = np.zeros(n)
    x1 = pop.x1[lo:hi]
    x2 = pop.x2[lo:hi]
    x3 = pop.x3[lo:hi]
    d1 = np.column_stack((one, x1, zero, zero, x2, x3))
    d0 = np.column_stack((zero, zero, one, x1, x2, x3))
    return d1, d0


def _criterion_gram(pop: PopulationSample) -> tuple[np.ndarray, np.ndarray]:
    """Mp = E[(d1 d1' + d0 d0') / 2] and E[(d1 Y(1) + d0 Y(0)) / 2]: the
    population normal equations of the working model."""
    m = len(pop)
    gram = np.zeros((6, 6))
    rhs = np.zeros(6)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        d1, d0 = _design_blocks(pop, lo, hi)
        gram += 0.5 * (d1.T @ d1 + d0.T @ d0)
        rhs += 0.5 * (d1.T @ pop.y1[lo:hi] + d0.T @ pop.y0[lo:hi])
    return gram / m, rhs / m


def _solve_active(pop: PopulationSample, gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs on the scenario's active design columns; the
    rows of dropped coefficients are 0."""
    active = list(active_columns(pop.scenario))
    sub = _check_gram(gram[np.ix_(active, active)])
    eigs = np.linalg.eigvalsh(sub)
    if eigs[0] < 1e-8 * eigs[-1]:
        raise ValueError("population design is singular")
    out = np.zeros(rhs.shape)
    out[active] = np.linalg.solve(sub, rhs[active])
    return out


def oracle_theta_star(pop: PopulationSample) -> ModelCoefficients:
    """Limit of the working-model fit: population least squares over
    both potential outcomes with reference weights 1/2 per arm.

    The reference weights make the limit free of the allocation rule,
    and they multiply both sides of the normal equations by the same
    constant, so the weighted and unweighted flavors share one
    solution.
    """
    return ModelCoefficients.from_array(_solve_active(pop, *_criterion_gram(pop)))


def _balance_gram(
    pop: PopulationSample,
    policy: TargetPolicy,
    theta_star: ModelCoefficients,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, rho, w) shared by every balance linear system."""
    rho = _rho_star(policy, theta_star, pop.x1)
    w = _balance_weights(policy, theta_star, pop, rho)
    m = len(pop)
    g = np.zeros((4, 4))
    coef = w / (rho * (1.0 - rho))
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        phi = _phi_matrix(pop, lo, hi)
        g += (phi * coef[lo:hi, None]).T @ phi
    return g / m, rho, w


def balance_coeff_a(
    pop: PopulationSample,
    theta_star: ModelCoefficients,
    policy: TargetPolicy,
    z_def: Callable = z_additional,
) -> np.ndarray:
    """Coefficient vector a of the balanced drift equation for Z.

    Solves a' G = E[z phi' w / (rho (1 - rho))] with G the shared
    balance Gram; with the constant-weight guard active everywhere this
    a also minimizes sigma_z_sq over coefficient vectors.
    """
    g, rho, w = _balance_gram(pop, policy, theta_star)
    z = _eval_z(pop, z_def)
    coef = z * w / (rho * (1.0 - rho))
    m = len(pop)
    rhs = np.zeros(4)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        rhs += _phi_matrix(pop, lo, hi).T @ coef[lo:hi]
    return _solve_gram(g, rhs / m)


def sigma_z_sq(
    pop: PopulationSample,
    theta_star: ModelCoefficients,
    policy: TargetPolicy,
    a: np.ndarray,
    z_def: Callable = z_additional,
) -> float:
    """Asymptotic variance rate of the scalar imbalance:
    E[(Z - a' phi)^2 / (rho (1 - rho))]."""
    rho = _rho_star(policy, theta_star, pop.x1)
    z = _eval_z(pop, z_def)
    a = np.asarray(a, dtype=float)
    total = 0.0
    m = len(pop)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        resid = z[lo:hi] - _phi_matrix(pop, lo, hi) @ a
        r = rho[lo:hi]
        total += float(np.sum(resid * resid / (r * (1.0 - r))))
    return total / m


def ipw_asym_var(
    pop: PopulationSample,
    theta_star: ModelCoefficients,
    policy: TargetPolicy,
    balance: bool = True,
) -> float:
    """Asymptotic variance of sqrt(N) times the IPW error.

    Var(Y(1) - Y(0)) plus the allocation term
    E[rho (1-rho) (h - a' phi / (rho (1-rho)))^2] for
    h = Y(1)/rho + Y(0)/(1-rho), with a from the balance system
    (balance=True) or a = 0 for the uncorrected comparator.
    """
    g, rho, w = _balance_gram(pop, policy, theta_star)
    h = pop.y1 / rho + pop.y0 / (1.0 - rho)
    m = len(pop)

    rhs = np.zeros(4)
    hw = h * w
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        rhs += _phi_matrix(pop, lo, hi).T @ hw[lo:hi]
    a = _solve_gram(g, rhs / m) if balance else np.zeros(4)

    diff = pop.y1 - pop.y0
    var_diff = float(np.var(diff))
    total = 0.0
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        r = rho[lo:hi]
        resid = h[lo:hi] - (_phi_matrix(pop, lo, hi) @ a) / (r * (1.0 - r))
        total += float(np.sum(r * (1.0 - r) * resid * resid))
    return var_diff + total / m


def mest_covariance(
    pop: PopulationSample,
    theta_star: ModelCoefficients,
    policy: TargetPolicy,
) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) times the fit error.

    Assembled from the influence vectors of the two arms at the limit
    parameter: the unconditional part contributes its covariance, the
    conditional part enters through the balance-corrected quadratic
    form, with the correction matrix A solved row-wise from the shared
    balance Gram. Dropped design columns get zero rows and columns.
    """
    g, rho, w = _balance_gram(pop, policy, theta_star)
    ts = theta_star.as_array()
    m = len(pop)

    minv = _solve_active(pop, _criterion_gram(pop)[0], np.eye(6))

    # One pass accumulating every other moment the covariance needs:
    #   zc_quad = E[rho (1-rho) Zc Zc'],  zc_phi = E[Zc phi'],
    #   h_mat   = E[Zc phi' w]           (A-system right side),
    #   phi_quad= E[phi phi' / (rho(1-rho))],
    #   zu_mom  = E[Zu Zu'],  zu_mean = E[Zu].
    zc_quad = np.zeros((6, 6))
    zc_phi = np.zeros((6, 4))
    h_mat = np.zeros((6, 4))
    phi_quad = np.zeros((4, 4))
    zu_mom = np.zeros((6, 6))
    zu_mean = np.zeros(6)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        d1, d0 = _design_blocks(pop, lo, hi)
        r = rho[lo:hi]
        ww = w[lo:hi]
        r1 = pop.y1[lo:hi] - d1 @ ts
        r0 = pop.y0[lo:hi] - d0 @ ts
        s1 = (r1 * d1.T).T @ (-minv.T)  # rows are (d2 criterion)^-1 score, arm 1
        s0 = (r0 * d0.T).T @ (-minv.T)
        zc = (0.5 / r)[:, None] * s1 - (0.5 / (1.0 - r))[:, None] * s0
        zu = 0.5 * (s1 + s0)
        phi = _phi_matrix(pop, lo, hi)
        rr = r * (1.0 - r)
        zc_quad += (zc * rr[:, None]).T @ zc
        zc_phi += zc.T @ phi
        h_mat += (zc * ww[:, None]).T @ phi
        phi_quad += (phi / rr[:, None]).T @ phi
        zu_mom += zu.T @ zu
        zu_mean += zu.sum(axis=0)
    for arr in (zc_quad, zc_phi, h_mat, phi_quad, zu_mom):
        arr /= m
    zu_mean /= m

    a_mat = _solve_gram(g, h_mat.T).T

    cov_u = zu_mom - np.outer(zu_mean, zu_mean)
    cond_part = (
        zc_quad
        - a_mat @ zc_phi.T
        - zc_phi @ a_mat.T
        + a_mat @ phi_quad @ a_mat.T
    )
    sigma = cov_u + cond_part
    return (sigma + sigma.T) / 2.0


def invariant_pi_g_check(
    policy: TargetPolicy,
    theta: ModelCoefficients,
    probe_xs: Sequence[CovariateVector],
    horizon: int,
    seed: int = 0,
) -> list[float]:
    """Deviation of the time-averaged allocation probability from the
    targeted ratio at each probe covariate, under the frozen-parameter
    imbalance chain.

    The chain is the trial engine with the parameter pinned at theta
    and balancing on; only the covariate stream matters, so the
    outcome scenario is fixed to the continuous one with no noise. The
    first tenth of the trajectory is discarded as chain burn-in.
    """
    if horizon < 10**5:
        raise ValueError("horizon must be at least 1e5 for a stable average")
    cfg = TrialConfig(
        n_units=horizon,
        scenario=Scenario(ScenarioId.A),
        policy=policy,
        weighting=Weighting.WEIGHTED,
        mechanism=UpdateMechanism.direct(),
        allocation=Allocation.BALANCE,
        frozen_theta=theta,
        keep_log=True,
        seed=seed,
    )
    lam = run_trial(cfg).log.lam[horizon // 10 :]

    p_theta, c_theta, _ = derive_constants(policy, theta)
    rows = PolicyRows.of([policy])
    devs: list[float] = []
    for x in probe_xs:
        rho = target_ratio(policy, theta, x)
        phi = np.broadcast_to(feature_vector(x), lam.shape)
        g = allocation_prob_rows(rows, rho, p_theta, c_theta, phi, lam)
        # summed left to right, as a scalar loop does
        devs.append(abs(float(np.cumsum(g)[-1]) / len(lam) - rho))
    return devs


def asymptotic_report(
    pop: PopulationSample,
    policy: TargetPolicy,
    z_def: Callable = z_additional,
) -> AsymptoticReport:
    """Assemble every asymptotic quantity for one (scenario, policy, Z)."""
    theta_star = oracle_theta_star(pop)
    a = balance_coeff_a(pop, theta_star, policy, z_def)
    s = sigma_z_sq(pop, theta_star, policy, a, z_def)
    ipw = ipw_asym_var(pop, theta_star, policy)
    cov = mest_covariance(pop, theta_star, policy)
    return AsymptoticReport(
        theta_star=theta_star,
        a_vec=tuple(float(v) for v in a),
        sigma_z_sq=float(s),
        ipw_var=float(ipw),
        mest_cov=cov,
    )
