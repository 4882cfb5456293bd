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

Passes. Every sum runs over slices of _CHUNK units through one chunk
view, _Rows, which forms each per-unit quantity one chunk at a time,
w from the allocation rule's own guard, and drops a chunk's vectors
before it forms the next chunk's. The view owns every chunk-sized
buffer a pass writes, each made at its first use and freed with the
view when the pass ends:

- phi's buffer;
- the design buffer, which holds d(x, 1) or d(x, 0) in turn; only the
  criterion pass makes it;
- the flat buffer: the balance pass's phi w / (rho (1 - rho)), its
  right-hand sides' weights and h's one temporary, 4 values per unit
  wide; 6 wide when the pass also sums the M-estimator moments, whose
  scaled rows, Zu and phi / (rho (1 - rho)) it then holds;
- for the M-estimator moments alone, two (chunk, 6) score buffers,
  each holding its arm's design until the score overwrites it, and
  the residual vector.

So the balance pass has no design buffer, and without the M-estimator
moments it holds no more than phi's buffer and the 4-wide flat one.
No pass allocates per chunk beyond per-unit vectors. `asymptotic_report` reads
the population in three passes, in the order the data dependencies
allow:

1. the criterion normal equations, giving theta* and Mp^-1;
2. G, the a-system right-hand sides for z and for the IPW h, and the
   M-estimator moments;
3. the residual sums behind sigma_z_sq and the IPW variance.

The public functions run the passes they need through the same
helpers, which take (policy, theta*) as they do, so each per-chunk
formula is written once; Var(Y(1) - Y(0)) is the one population-wide
reduction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .adapt import UpdateMechanism
from .datagen import X1_ATOMS, CovariateVector, Scenario, ScenarioId, draw_unit_arrays
from .engine import Allocation, TrialConfig, _check_int, run_trial
from .estimator import Weighting, active_columns, rank_deficient
from .policy import (
    ModelCoefficients,
    PolicyRows,
    TargetPolicy,
    _feature_guard,
    allocation_prob_rows,
    derive_constants,
    feature_norm_rows,
    target_ratio_from_x1,
)

_CHUNK = 200_000


class PopulationSample:
    """One frozen i.i.d. draw of units, stored as flat arrays."""

    __slots__ = ("scenario", "seed", "x1", "x2", "x3", "y1", "y0", "zstar")

    def __init__(self, scenario: Scenario, seed: int, m: int = 10**6) -> None:
        _check_int("m", m)
        _check_int("seed", seed, seed=True)
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
    """Solve g x = rhs, falling back to the least-norm solution where
    rank_deficient finds g singular (the balance coefficient is only
    identified on the Gram's row space)."""
    g = _check_gram(g)
    if rank_deficient(g):
        return np.linalg.pinv(g) @ rhs
    return np.linalg.solve(g, rhs)


def _rho_star(policy: TargetPolicy, theta: ModelCoefficients, x1: np.ndarray) -> np.ndarray:
    """Per-unit targeted ratio: the engine's link at the three x1 atoms,
    looked up by each unit's x1 (draw_unit_arrays only yields -1, 0, 1)."""
    atoms = np.array([target_ratio_from_x1(policy, theta, a) for a in X1_ATOMS])
    return atoms[x1.astype(np.intp) + 1]


# the columns of d(x, t), in order: a constant, or the name of a chunk covariate
_ARM_COLUMNS = {1: (1.0, "x1", 0.0, 0.0, "x2", "x3"), 0: (0.0, 0.0, 1.0, "x1", "x2", "x3")}


class _Rows:
    """A view of one slice of at most _CHUNK units; iterating moves it
    to the next slice and yields it. It holds the slices x1, x2, x3, y1
    and y0 and the slice's length n. On first use in a chunk it forms
    phi = (1, x1, x2, x3) and, under (policy, theta), rho,
    rr = rho (1 - rho), the weight w = 1 / _feature_guard and
    h = Y(1)/rho + Y(0)/(1 - rho); moving on drops them before the next
    chunk's are formed.

    The view owns the chunk-sized buffers, each made on first use and
    refilled in place at every chunk: phi's; the design buffer, which
    arm(t) fills with d(x, t); and the named scratch that buffer() hands
    out. They are freed with the view when its pass ends."""

    _LAZY = ("phi", "rho", "rr", "w", "h")

    def __init__(self, pop: PopulationSample, policy: TargetPolicy | None = None,
                 theta: ModelCoefficients | None = None) -> None:
        self.pop = pop
        self.policy = policy
        self.theta = theta
        self._size = min(len(pop), _CHUNK)  # rows of each chunk-sized buffer
        self._phi: np.ndarray | None = None
        self._buffers: dict[str, np.ndarray] = {}
        self._held: tuple[int, int] | None = None  # (lo, t) of the design buffer's rows

    def __iter__(self) -> Iterator["_Rows"]:
        pop, m = self.pop, len(self.pop)
        for lo in range(0, m, _CHUNK):
            for name in self._LAZY:
                self.__dict__.pop(name, None)
            self.lo, self.hi = lo, min(lo + _CHUNK, m)
            self.n = self.hi - lo
            self.x1, self.x2, self.x3, self.y1, self.y0 = (
                a[lo : self.hi] for a in (pop.x1, pop.x2, pop.x3, pop.y1, pop.y0)
            )
            yield self

    def buffer(self, name: str, width: int) -> np.ndarray:
        """The chunk's slice of the scratch buffer `name`: width values
        per unit, flat and C-ordered, contents left from earlier use.
        Each buffer is made on its first use, at the width asked, so a
        pass holds only the scratch it uses; no later use asks for more."""
        if name not in self._buffers:
            self._buffers[name] = np.empty(width * self._size)
        return self._buffers[name][: width * self.n]

    @cached_property
    def phi(self) -> np.ndarray:
        if self._phi is None:
            self._phi = np.ones((self._size, 4))
        phi = self._phi[: self.n]
        phi[:, 1] = self.x1
        phi[:, 2] = self.x2
        phi[:, 3] = self.x3
        return phi

    @cached_property
    def rho(self) -> np.ndarray:
        return _rho_star(self.policy, self.theta, self.x1)

    @cached_property
    def rr(self) -> np.ndarray:
        rr = np.subtract(1.0, self.rho)
        rr *= self.rho
        return rr

    def arm_columns(self, t: int) -> tuple[np.ndarray | float, ...]:
        """The six columns of d(x, t): (1, x1, 0, 0, x2, x3) for t = 1
        and (0, 0, 1, x1, x2, x3) for t = 0, constants as floats."""
        return tuple(getattr(self, col) if isinstance(col, str) else col for col in _ARM_COLUMNS[t])

    def write_arm(self, d: np.ndarray, t: int) -> np.ndarray:
        """d(x, t) for the chunk, written over the (n, 6) array d."""
        for k, col in enumerate(self.arm_columns(t)):
            d[:, k] = col
        return d

    def arm(self, t: int) -> np.ndarray:
        """d(x, t) for the chunk in the design buffer. Only the columns
        that differ from the rows it holds are written: both arms share
        x2 and x3, and a constant column stays across chunks."""
        d = self.buffer("design", 6).reshape(self.n, 6)
        held = self._held
        for k, (col, value) in enumerate(zip(_ARM_COLUMNS[t], self.arm_columns(t))):
            if held is None or _ARM_COLUMNS[held[1]][k] != col or (
                isinstance(col, str) and held[0] != self.lo
            ):
                d[:, k] = value
        self._held = (self.lo, t)
        return d

    @cached_property
    def w(self) -> np.ndarray:
        # |phi| = sqrt(((1 + x1^2) + x2^2) + x3^2), summed in that order
        w = np.square(self.x1)
        w += 1.0
        for x in (self.x2, self.x3):
            w += np.square(x)
        np.sqrt(w, out=w)
        _, c_theta = derive_constants(self.policy, self.theta)
        return np.divide(1.0, _feature_guard(w, self.rho, c_theta, out=w), out=w)

    @cached_property
    def h(self) -> np.ndarray:
        # h borrows the flat buffer for its one temporary, so it is not
        # formed while that buffer holds values still to be read
        h = np.divide(self.y1, self.rho)
        q = np.subtract(1.0, self.rho, out=self.buffer("flat", 1))
        h += np.divide(self.y0, q, out=q)
        return h


def _criterion_pass(pop: PopulationSample) -> tuple[np.ndarray, np.ndarray]:
    """Pass 1. Mp = E[(d1 d1' + d0 d0') / 2] and E[(d1 Y(1) + d0 Y(0)) / 2]:
    the population normal equations of the working model. The arms
    alternate in order across chunks, so a chunk's first arm is the one
    the design buffer holds: about 7 column writes per chunk, not 12."""
    gram = np.zeros((6, 6))
    rhs = np.zeros(6)
    for i, c in enumerate(_Rows(pop)):
        moments = {}
        for t in (1, 0) if i % 2 == 0 else (0, 1):
            d = c.arm(t)
            moments[t] = d.T @ d, d.T @ (c.y1 if t else c.y0)
        gram += 0.5 * (moments[1][0] + moments[0][0])
        rhs += 0.5 * (moments[1][1] + moments[0][1])
    return gram / len(pop), rhs / len(pop)


def _solve_active(pop: PopulationSample, gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs on the scenario's active design columns; the
    rows of dropped coefficients are 0."""
    active = list(active_columns(pop.scenario))
    sub = _check_gram(gram[np.ix_(active, active)])
    if rank_deficient(sub):
        raise ValueError("population design is singular")
    out = np.zeros(rhs.shape)
    out[active] = np.linalg.solve(sub, rhs[active])
    return out


class _MestSums:
    """The moments mest_covariance assembles, summed chunk by chunk, for
    the influence vectors Zc (conditional) and Zu (unconditional) at the
    limit parameter:
      zc_quad = E[rho (1-rho) Zc Zc'],  zc_phi = E[Zc phi'],
      h_mat   = E[Zc phi' w]           (A-system right side),
      phi_quad= E[phi phi' / (rho(1-rho))],
      zu_mom  = E[Zu Zu'],  zu_mean = E[Zu].

    add() writes every chunk-sized value into the chunk view's scratch
    and makes no design buffer; it runs first in its chunk. Each arm's
    d(x, t) goes into its score buffer s_t, where only the residual
    r = y - d theta* reads it before the score overwrites it; r goes
    into the vector "r"; the scaled rows r d(x, t)' go into the flat
    buffer as a (6, n) block, which then holds zu as (n, 6) and
    phi / rr as (n, 4). s1 becomes Zc, s0 then holds Zc rr and Zc w,
    and "r" holds 0.5 / rho and 0.5 / (1 - rho) once the residuals
    are spent."""

    def __init__(self, theta_star: ModelCoefficients, minv: np.ndarray) -> None:
        self.ts = theta_star.as_array()
        self.neg_minv_t = -minv.T
        self.zc_quad = np.zeros((6, 6))
        self.zc_phi = np.zeros((6, 4))
        self.h_mat = np.zeros((6, 4))
        self.phi_quad = np.zeros((4, 4))
        self.zu_mom = np.zeros((6, 6))
        self.zu_mean = np.zeros(6)

    def add(self, c: _Rows) -> None:
        n = c.n
        r = c.buffer("r", 1)
        flat = c.buffer("flat", 6)
        rows = flat.reshape(6, n)
        s1, s0 = (c.buffer(name, 6).reshape(n, 6) for name in ("s1", "s0"))
        for t, y, s in ((1, c.y1, s1), (0, c.y0, s0)):
            np.subtract(y, np.matmul(c.write_arm(s, t), self.ts, out=r), out=r)
            for k, col in enumerate(c.arm_columns(t)):
                np.multiply(r, col, out=rows[k])
            # rows of s are the (d2 criterion)^-1 score of arm t
            np.matmul(rows.T, self.neg_minv_t, out=s)
        zu = np.add(s1, s0, out=flat.reshape(n, 6))
        zu *= 0.5
        self.zu_mom += zu.T @ zu
        self.zu_mean += zu.sum(axis=0)
        s1 *= np.divide(0.5, c.rho, out=r)[:, None]
        s0 *= np.divide(0.5, np.subtract(1.0, c.rho, out=r), out=r)[:, None]
        zc = np.subtract(s1, s0, out=s1)
        self.zc_quad += np.multiply(zc, c.rr[:, None], out=s0).T @ zc
        self.zc_phi += zc.T @ c.phi
        self.h_mat += np.multiply(zc, c.w[:, None], out=s0).T @ c.phi
        phi_rr = np.divide(c.phi, c.rr[:, None], out=flat[: 4 * n].reshape(n, 4))
        self.phi_quad += phi_rr.T @ c.phi

    def covariance(self, g: np.ndarray, m: int) -> np.ndarray:
        """The covariance from the sums over m units, with the
        correction matrix A solved row-wise from the balance Gram g."""
        zc_quad, zc_phi, h_mat, phi_quad, zu_mom = (
            arr / m for arr in (self.zc_quad, self.zc_phi, self.h_mat, self.phi_quad, self.zu_mom)
        )
        zu_mean = self.zu_mean / m
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


def _balance_pass(
    pop: PopulationSample,
    policy: TargetPolicy,
    theta: ModelCoefficients,
    z: np.ndarray | None = None,
    ipw: bool = False,
    mest: _MestSums | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass 2, at rho and w under (policy, theta). The balance Gram
    G = E[phi phi' w / (rho (1-rho))] and, when asked, the a-system
    right-hand sides E[phi z w / (rho (1-rho))] for z and E[phi h w]
    for the IPW h, as (G, z side, h side); a side not asked for stays
    0. The M-estimator moments go into mest."""
    g = np.zeros((4, 4))
    z_rhs = np.zeros(4)
    h_rhs = np.zeros(4)
    for c in _Rows(pop, policy, theta):
        if mest is not None:
            mest.add(c)  # first, so that it makes the flat buffer 6 wide
        # phi w / rr goes into the flat buffer, which then holds each
        # right-hand side's weights in turn
        flat = c.buffer("flat", 4)
        g += np.multiply(c.phi, (c.w / c.rr)[:, None], out=flat.reshape(c.n, 4)).T @ c.phi
        if z is not None:
            v = np.multiply(z[c.lo : c.hi], c.w, out=flat[: c.n])
            z_rhs += c.phi.T @ np.divide(v, c.rr, out=v)
        if ipw:
            h_rhs += c.phi.T @ np.multiply(c.h, c.w, out=flat[: c.n])
    m = len(pop)
    return g / m, z_rhs / m, h_rhs / m


def _residual_pass(
    pop: PopulationSample,
    policy: TargetPolicy,
    theta: ModelCoefficients,
    z: np.ndarray | None = None,
    a: np.ndarray | None = None,
    a_ipw: np.ndarray | None = None,
) -> tuple[float, float]:
    """Pass 3, at rho under (policy, theta). The means of
    (z - a' phi)^2 / (rho (1-rho)), when z is given, and of
    rho (1-rho) (h - a_ipw' phi / (rho (1-rho)))^2, when a_ipw is
    given; 0 otherwise."""
    s_z = s_ipw = 0.0
    for c in _Rows(pop, policy, theta):
        # each residual goes into the flat buffer, after h is formed
        if z is not None:
            resid = np.subtract(z[c.lo : c.hi], c.phi @ a, out=c.buffer("flat", 1))
            s_z += float(np.sum(np.divide(resid * resid, c.rr, out=resid)))
        if a_ipw is not None:
            resid = np.subtract(c.h, (c.phi @ a_ipw) / c.rr, out=c.buffer("flat", 1))
            s_ipw += float(np.sum(np.multiply(c.rr * resid, resid, out=resid)))
    m = len(pop)
    return s_z / m, s_ipw / m


def _ipw_var(pop: PopulationSample, allocation_term: float) -> float:
    """Var(Y(1) - Y(0)) plus the allocation term from _residual_pass."""
    return float(np.var(pop.y1 - pop.y0)) + allocation_term


def oracle_theta_star(pop: PopulationSample) -> ModelCoefficients:
    """Limit of the working-model fit: population least squares over
    both potential outcomes with reference weights 1/2 per arm.

    The reference weights make the limit free of the allocation rule,
    and they multiply both sides of the normal equations by the same
    constant, so the weighted and unweighted flavors share one
    solution.
    """
    return ModelCoefficients.from_array(_solve_active(pop, *_criterion_pass(pop)))


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
    z = _eval_z(pop, z_def)
    g, z_rhs, _ = _balance_pass(pop, policy, theta_star, z=z)
    return _solve_gram(g, z_rhs)


def sigma_z_sq(
    pop: PopulationSample,
    theta_star: ModelCoefficients,
    policy: TargetPolicy,
    a: np.ndarray,
    z_def: Callable = z_additional,
) -> float:
    """Asymptotic variance rate of the scalar imbalance:
    E[(Z - a' phi)^2 / (rho (1 - rho))]."""
    z = _eval_z(pop, z_def)
    return _residual_pass(pop, policy, theta_star, z=z, a=np.asarray(a, dtype=float))[0]


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
    (balance=True) or a = 0 for the uncorrected comparator, which needs
    no balance system.
    """
    a = np.zeros(4)
    if balance:
        g, _, h_rhs = _balance_pass(pop, policy, theta_star, ipw=True)
        a = _solve_gram(g, h_rhs)
    return _ipw_var(pop, _residual_pass(pop, policy, theta_star, a_ipw=a)[1])


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
    minv = _solve_active(pop, _criterion_pass(pop)[0], np.eye(6))
    mest = _MestSums(theta_star, minv)
    g, _, _ = _balance_pass(pop, policy, theta_star, mest=mest)
    return mest.covariance(g, len(pop))


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

    p_theta, c_theta = derive_constants(policy, theta)
    rows = PolicyRows.of([policy])
    devs: list[float] = []
    for x in probe_xs:
        rho = target_ratio_from_x1(policy, theta, x.x1)
        phi = np.broadcast_to((1.0, x.x1, x.x2, x.x3), lam.shape)
        # the probe's one norm, broadcast over the chain's steps
        g = allocation_prob_rows(rows, rho, p_theta, c_theta, phi, feature_norm_rows(phi[:1]), lam)
        # summed left to right, as a scalar loop does
        devs.append(abs(float(np.cumsum(g)[-1]) / len(lam) - rho))
    return devs


def asymptotic_report(
    pop: PopulationSample,
    policy: TargetPolicy,
    z_def: Callable = z_additional,
) -> AsymptoticReport:
    """Assemble every asymptotic quantity for one (scenario, policy, Z),
    bit for bit as the public functions give them, in three passes."""
    gram, rhs = _criterion_pass(pop)
    theta_star = ModelCoefficients.from_array(_solve_active(pop, gram, rhs))
    z = _eval_z(pop, z_def)
    mest = _MestSums(theta_star, _solve_active(pop, gram, np.eye(6)))
    g, z_rhs, h_rhs = _balance_pass(pop, policy, theta_star, z=z, ipw=True, mest=mest)
    a = _solve_gram(g, z_rhs)
    s_z, s_ipw = _residual_pass(pop, policy, theta_star, z=z, a=a, a_ipw=_solve_gram(g, h_rhs))
    return AsymptoticReport(
        theta_star=theta_star,
        a_vec=tuple(float(v) for v in a),
        sigma_z_sq=s_z,
        ipw_var=_ipw_var(pop, s_ipw),
        mest_cov=mest.covariance(g, len(pop)),
    )
