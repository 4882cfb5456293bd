"""Sequential trial engine: arrival, estimation, adaptation, allocation.

One call to run_trial plays out a whole trial. Each step draws a unit,
refits the working model on the responses available so far (post
burn-in, both arms seen, honoring the response delay), advances the
allocation parameter through the configured update mechanism, allocates
by the targeted ratio (optionally imbalance-corrected), and pushes the
feature and scalar imbalance increments.

There are two paths. run_trial plays one trial with scalar per-step
bookkeeping; it is the reference. run_lockstep plays R trials together,
one step at a time, with the state held as (R,), (R, 4), (R, 6) and
(R, 6, 6) arrays. Every formula is evaluated elementwise in run_trial's
order, so its results, step log included, equal run_trial's bit for
bit. It costs more than run_trial for one trial and less per trial for
several, so the harness sends shards of two or more trials to it and a
single trial to run_trial.

A lockstep batch may hold any configs that share a step schedule
(step_schedule): the same n_units, burn_in, response_delay, keep_log,
fitted columns (active_columns of the scenario, so DiscreteTest runs
apart from A and B) and whether theta is frozen. Everything else is
per row: seed, scenario (outcome noise included), policy (family,
clamps, c_lambda, g_floor), weighting, update mechanism, allocation
and frozen theta. Each knob is held one way, as one entry per row,
also when every row has the same value. Rows that share a family or a
mechanism are served by one call per step (row_groups). Work that no
row needs is skipped: an all-direct batch never computes the balance
rule, and a batch without clipped rows keeps no clip budget.

The two paths differ only in the per-step arithmetic and in the form
of the response-release rule. The rest has one owner each: _draw_block
is the one reader of a trial's generator (a block of units, then one
uniform per unit), _count_atoms adds a block's units and treated units
at each x1 atom, and _result builds the TrialResult, its TrialStats,
step log and clip budget check included, once from a trial's end state.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .adapt import MechanismKind, UpdateMechanism, clip_bound, next_theta, next_theta_rows
from .datagen import X1_ATOMS, Scenario, draw_unit_arrays
from .estimator import FitAccumulator, FitStack, Weighting, active_columns
from .policy import (
    ModelCoefficients,
    PolicyRows,
    TargetPolicy,
    ZERO_COEFFS,
    _allocation_prob_raw,
    allocation_prob_rows,
    clamp_allocation,
    derive_constants,
    derive_constants_rows,
    increment_scale,
    row_groups,
    sum_columns,
    target_ratio_from_x1,
    target_ratio_rows,
)

_BLOCK = 256


def _check_int(name: str, value, low: int = 1, seed: bool = False) -> None:
    """Raise a ValueError naming the field unless value is an int (a
    bool is not) that is >= low or, for a seed, in [0, 2**64)."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not (is_int and (0 <= value < 2**64 if seed else value >= low)):
        rule = "in [0, 2**64)" if seed else f">= {low}"
        raise ValueError(f"{name} must be an integer {rule}, got {value!r}")


class Allocation(str, Enum):
    DIRECT = "direct"
    BALANCE = "balance"


@dataclass(frozen=True, slots=True)
class TrialConfig:
    """Everything that determines one trial, including its rng seed.

    frozen_theta is an escape hatch for asymptotic checks: when set,
    the allocation parameter is pinned at that value for the whole
    trial, no fitting or burn-in takes place, and allocation follows
    the pinned targeted ratio from step one.

    keep_log trades the step log for speed and memory; summary fields
    are unaffected.
    """

    n_units: int
    scenario: Scenario
    policy: TargetPolicy
    weighting: Weighting
    mechanism: UpdateMechanism
    allocation: Allocation
    burn_in: int = 20
    response_delay: int = 0
    seed: int = 0
    frozen_theta: Optional[ModelCoefficients] = None
    keep_log: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.allocation, Allocation):
            object.__setattr__(self, "allocation", Allocation(self.allocation))
        if not isinstance(self.weighting, Weighting):
            object.__setattr__(self, "weighting", Weighting(self.weighting))
        _check_int("n_units", self.n_units)
        _check_int("burn_in", self.burn_in, 2)
        _check_int("response_delay", self.response_delay, 0)
        _check_int("seed", self.seed, seed=True)
        if self.n_units <= self.burn_in:
            raise ValueError("n_units must exceed burn_in")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class StepLog:
    """Per-step columns of one trial; row i is step i + 1.

    x1..zstar, psi and t (0 or 1) have shape (N,), lam (N, 4) and theta
    (N, 6). lam and psi are the imbalance after the step; theta is the
    allocation parameter the step was allocated under. An unlogged
    trial has N = 0. Two logs are equal when every column has the same
    dtype, shape and bytes, so -0.0 and 0.0 differ.
    """

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    rho: np.ndarray
    g: np.ndarray
    t: np.ndarray
    y: np.ndarray
    zstar: np.ndarray
    lam: np.ndarray
    psi: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __repr__(self) -> str:
        return f"StepLog({len(self)} steps)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepLog):
            return NotImplemented
        return all(
            (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            for x, y in ((getattr(self, f), getattr(other, f)) for f in self.__slots__)
        )


# a logged step as one row, in StepLog's field order: x1, x2, x3, rho,
# g, t, y, zstar, lam (4), psi, theta (6)
_LOG_WIDTH = 19


def step_schedule(cfg: TrialConfig) -> tuple:
    """What every config of one run_lockstep batch must share."""
    return (
        cfg.n_units,
        cfg.burn_in,
        cfg.response_delay,
        cfg.frozen_theta is not None,
        cfg.keep_log,
        active_columns(cfg.scenario),
    )


def _step_log(rows: np.ndarray) -> StepLog:
    """Columns of an (N, _LOG_WIDTH) array of logged steps."""
    c = rows.T.copy()
    lam, theta = rows[:, 8:12].copy(), rows[:, 13:].copy()
    return StepLog(*c[:5], c[5].astype(np.int64), c[6], c[7], lam, c[12], theta)


_NO_LOG = _step_log(np.empty((0, _LOG_WIDTH)))


class TrialStats(NamedTuple):
    """The per-trial numbers every aggregate is built from: |Lambda_N|,
    Psi_N, the sd of the targeted ratios, the IPW estimate, the largest
    per-update clip budget violation (0 up to rounding) and the largest
    allocation parameter norm."""

    lambda_norm: float
    psi: float
    psi_abs: float
    mean_response: float
    target_sd: float
    ipw: float
    clip_excess: float
    theta_max_norm: float


Lambda = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class TrialResult:
    """One trial's statistics, its final Lambda_N, the adaptation
    trajectory's totals (parameter movement, clip budget, fitted steps),
    its units and treated units at each x1 atom (in X1_ATOMS order) and
    (optionally) the step log.

    Every statistic is recomputable from the log when it is kept.
    """

    log: StepLog
    stats: TrialStats
    lam: Lambda
    theta_final: ModelCoefficients
    theta_move_sum: float
    clip_bound_sum: float
    n_fit_steps: int
    atom_units: tuple[int, int, int]
    atom_treated: tuple[int, int, int]


def _norm(values) -> float:
    """Euclidean norm, summed left to right."""
    return math.sqrt(sum(v * v for v in values))


def _result(
    log, n, lam, psi, sum_y, sum_rho, sum_rho_sq, ipw_sum, clip_excess, theta_max_norm,
    theta, move_sum, bound_sum, clipped, n_fit_steps, atoms,
) -> TrialResult:
    """A trial's record from its end state after n steps, each number a
    Python or numpy scalar: log holds its logged steps (none when
    unlogged) and atoms its (units, treated) counts per x1 atom. Raises
    unless a clipped trial's parameter moved no farther in total than
    the sum of its per-update clip budgets, up to rounding."""
    move_sum, bound_sum = float(move_sum), float(bound_sum)
    if clipped and move_sum > bound_sum + 1e-9:
        raise RuntimeError(
            f"clipped updates exceeded their cumulative budget: {move_sum} > {bound_sum}"
        )
    lam = tuple(float(v) for v in lam)
    psi = float(psi)
    rho_var = float(sum_rho_sq) / n - (float(sum_rho) / n) ** 2
    stats = TrialStats(
        lambda_norm=_norm(lam),
        psi=psi,
        psi_abs=abs(psi),
        mean_response=float(sum_y) / n,
        target_sd=math.sqrt(rho_var) if rho_var > 0.0 else 0.0,
        ipw=float(ipw_sum) / n,
        clip_excess=float(clip_excess),
        theta_max_norm=float(theta_max_norm),
    )
    return TrialResult(
        log=_step_log(log) if len(log) else _NO_LOG,
        stats=stats,
        lam=lam,
        theta_final=ModelCoefficients.from_array(theta),
        theta_move_sum=move_sum,
        clip_bound_sum=bound_sum,
        n_fit_steps=int(n_fit_steps),
        atom_units=tuple(atoms[0].tolist()),
        atom_treated=tuple(atoms[1].tolist()),
    )


def _draw_block(scenario: Scenario, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """A block of n units, then one uniform per unit, as (x1, x2, x3,
    y1, y0, zstar, u): the one place either engine reads a trial's
    generator, so both consume it in the same order."""
    return (*draw_unit_arrays(scenario, n, rng), rng.random(n))


def _count_atoms(x1: np.ndarray, treated: np.ndarray, atoms: np.ndarray) -> None:
    """Add a block's units and treated units at each x1 atom to atoms[0]
    and atoms[1]; x1 and treated are (bn,) or (bn, R)."""
    for a, atom in enumerate(X1_ATOMS):
        at = x1 == atom
        atoms[0, a] += np.count_nonzero(at, axis=0)
        atoms[1, a] += np.count_nonzero(at & treated, axis=0)


def run_trial(cfg: TrialConfig) -> TrialResult:
    """Play out one trial and return its log and summaries.

    Identical configs (seed included) give bit-identical results: the
    rng is consumed in a fixed pattern (unit blocks, then one uniform
    per allocation) regardless of the trajectory taken.
    """
    rng = np.random.default_rng(cfg.seed)
    pol = cfg.policy
    mech = cfg.mechanism
    scenario = cfg.scenario
    balance = cfg.allocation is Allocation.BALANCE
    clipped = mech.kind is MechanismKind.CLIPPED
    frozen = cfg.frozen_theta is not None
    keep_log = cfg.keep_log
    burn = cfg.burn_in
    delay = cfg.response_delay
    n_units = cfg.n_units
    g_floor = pol.g_floor
    c_lambda = pol.c_lambda

    theta = cfg.frozen_theta if frozen else ZERO_COEFFS
    p_theta, c_theta = derive_constants(pol, theta)
    theta_row = tuple(theta.as_array().tolist())

    acc = FitAccumulator(weighting=cfg.weighting, active=active_columns(scenario))
    pending: list[tuple[float, float, float, int, float, float]] = []
    released = 0

    l0 = l1 = l2 = l3 = 0.0
    psi = 0.0
    sum_y = 0.0
    sum_rho = 0.0
    sum_rho_sq = 0.0
    ipw_sum = 0.0
    theta_max_norm = _norm(theta_row)
    theta_move_sum = 0.0
    clip_bound_sum = 0.0
    clip_step_excess = 0.0
    n_fit_steps = 0
    atoms = np.zeros((2, len(X1_ATOMS)), dtype=np.int64)
    log = array("d")

    i = 0
    while i < n_units:
        bn = min(_BLOCK, n_units - i)
        ax1, ax2, ax3, ay1, ay0, az, au = _draw_block(scenario, bn, rng)
        lx1 = ax1.tolist()
        lx2 = ax2.tolist()
        lx3 = ax3.tolist()
        ly1 = ay1.tolist()
        ly0 = ay0.tolist()
        lz = az.tolist()
        us = au.tolist()
        # step k's arm, counted per atom after the block
        block_t = [0] * bn

        for k in range(bn):
            x1 = lx1[k]
            x2 = lx2[k]
            x3 = lx3[k]

            if not frozen and i >= burn:
                # responses of units with index <= i - delay are in hand
                target = i - delay + 1
                if target > i:
                    target = i
                while released < target:
                    row = pending[released]
                    acc.add(row[0], row[1], row[2], row[3], row[4], row[5])
                    released += 1
                if acc.has_both_arms:
                    fit = acc.fit(fallback=theta)
                    n_fit_steps += 1
                    if fit.rank_ok:
                        new_theta = next_theta(mech, acc.n, theta, fit.eta)
                        new_row = tuple(new_theta.as_array().tolist())
                        move = _norm([a - b for a, b in zip(new_row, theta_row)])
                        if move > 0.0:
                            theta_move_sum += move
                            theta = new_theta
                            p_theta, c_theta = derive_constants(pol, theta)
                            theta_row = new_row
                            norm = _norm(theta_row)
                            if norm > theta_max_norm:
                                theta_max_norm = norm
                        if clipped:
                            budget = clip_bound(mech, acc.n)
                            clip_bound_sum += budget
                            if move - budget > clip_step_excess:
                                clip_step_excess = move - budget

            if not frozen and i < burn:
                rho_used = 0.5
                g = 0.5
            else:
                rho_used = target_ratio_from_x1(pol, theta, x1)
                if balance:
                    raw = _allocation_prob_raw(
                        rho_used,
                        p_theta,
                        c_theta,
                        c_lambda,
                        (1.0, x1, x2, x3),
                        (l0, l1, l2, l3),
                    )
                    g = clamp_allocation(raw, g_floor)
                else:
                    g = rho_used

            t = 1 if us[k] < g else 0
            block_t[k] = t
            y = ly1[k] if t else ly0[k]
            z = lz[k]

            scale = increment_scale(rho_used, t)
            l0 += scale
            l1 += scale * x1
            l2 += scale * x2
            l3 += scale * x3
            psi += scale * z

            sum_y += y
            sum_rho += rho_used
            sum_rho_sq += rho_used * rho_used
            if t:
                ipw_sum += y / rho_used
            else:
                ipw_sum -= y / (1.0 - rho_used)

            if not frozen:
                pending.append((x1, x2, x3, t, y, rho_used))
            if keep_log:
                log.extend((x1, x2, x3, rho_used, g, t, y, z, l0, l1, l2, l3, psi, *theta_row))
            i += 1
        _count_atoms(ax1, np.array(block_t, dtype=bool), atoms)

    return _result(
        np.frombuffer(log).reshape(-1, _LOG_WIDTH), n_units, (l0, l1, l2, l3), psi, sum_y,
        sum_rho, sum_rho_sq, ipw_sum, clip_step_excess, theta_max_norm, theta_row,
        theta_move_sum, clip_bound_sum, clipped, n_fit_steps, atoms,
    )


def _next_theta_rows(mechs, n: int, prev: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """next_theta_rows with each row under its own mechanism, one call
    per mechanism; mechs is row_groups of the rows' mechanisms."""
    new = np.empty_like(prev)
    for mech, rows in mechs:
        new[rows] = next_theta_rows(mech, n, prev[rows], eta[rows])
    return new


def _clip_budgets(clips, n: int, reps: int) -> np.ndarray:
    """clip_bound at step count n for each row, (R,) with 0 where a row
    does not clip; clips is row_groups of the rows' mechanisms, clipped
    ones only."""
    budget = np.zeros(reps)
    for mech, rows in clips:
        budget[rows] = clip_bound(mech, n)
    return budget


def run_lockstep(configs: Sequence[TrialConfig]) -> list[TrialResult]:
    """Play out trials that share a step schedule together, one step at
    a time.

    Row r keeps its own generator, consumed as in run_trial (a block of
    units, then one uniform per unit), and its own scenario, policy,
    weighting, mechanism, allocation and frozen theta; every formula is
    evaluated elementwise in run_trial's order, so result r equals
    run_trial(configs[r]) bit for bit, step log included.
    """
    if not configs:
        raise ValueError("configs must be nonempty")
    cfg = configs[0]
    schedule = step_schedule(cfg)
    if any(step_schedule(c) != schedule for c in configs):
        raise ValueError("lockstep configs must share a step schedule")
    reps = len(configs)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    pol = PolicyRows.of([c.policy for c in configs])
    mechs = row_groups([c.mechanism for c in configs])
    clips = [(m, rows) for m, rows in mechs if m.kind is MechanismKind.CLIPPED]
    clipped = np.array([c.mechanism.kind is MechanismKind.CLIPPED for c in configs])
    balance = np.array([c.allocation is Allocation.BALANCE for c in configs])
    any_balance = balance.any()
    frozen = cfg.frozen_theta is not None
    keep_log = cfg.keep_log
    burn = cfg.burn_in
    n_units = cfg.n_units
    # row j's response is in hand from step j + lag on (run_trial's
    # release rule); rows in hand by step burn are added at once, later
    # ones wait in a ring of lag slots
    lag = max(cfg.response_delay, 1)

    theta = np.zeros((reps, 6))
    if frozen:
        theta[:] = [c.frozen_theta.as_array() for c in configs]
    p_theta, c_theta = derive_constants_rows(pol, theta)
    acc = FitStack([c.weighting for c in configs], active_columns(cfg.scenario))
    pending: list[tuple[np.ndarray, ...]] = [()] * min(lag, n_units)

    lam = np.zeros((reps, 4))
    psi = np.zeros(reps)
    sum_y = np.zeros(reps)
    sum_rho = np.zeros(reps)
    sum_rho_sq = np.zeros(reps)
    ipw_sum = np.zeros(reps)
    theta_max_norm = np.sqrt(sum_columns(theta * theta))
    theta_move_sum = np.zeros(reps)
    clip_bound_sum = np.zeros(reps)
    clip_step_excess = np.zeros(reps)
    n_fit_steps = np.zeros(reps, dtype=np.int64)
    atoms = np.zeros((2, len(X1_ATOMS), reps), dtype=np.int64)
    half = np.full(reps, 0.5)
    log = np.empty((n_units if keep_log else 0, _LOG_WIDTH, reps))

    i = 0
    while i < n_units:
        bn = min(_BLOCK, n_units - i)
        # (bn, reps) per quantity, so that step k reads row k; a fresh
        # buffer per block, since pending rows keep views into it
        draws = np.empty((7, bn, reps))
        for r, (c, rng) in enumerate(zip(configs, rngs)):
            draws[:, :, r] = _draw_block(c.scenario, bn, rng)
        ax1, ax2, ax3, ay1, ay0, az, au = draws
        aphi = np.stack((np.ones_like(ax1), ax1, ax2, ax3), axis=2)
        # step k's treatment of each row, counted per atom after the block
        block_treated = np.empty((bn, reps), dtype=bool)

        for k in range(bn):
            x1 = ax1[k]

            if not frozen and i >= burn:
                if i > burn and i >= lag:
                    acc.add(*pending[(i - lag) % lag])
                both = acc.has_both_arms
                if both.any():
                    n_fit_steps += both
                    # a trial without a fit keeps eta = theta, so it does not move
                    ok, eta = acc.fit(both, theta)
                    new = _next_theta_rows(mechs, acc.n, theta, eta)
                    step = new - theta
                    move = np.sqrt(sum_columns(step * step))
                    theta_move_sum += move
                    went = move > 0.0
                    if went.any():
                        theta = np.where(went[:, None], new, theta)
                        if any_balance:
                            p_theta, c_theta = derive_constants_rows(pol, theta)
                        norm = np.sqrt(sum_columns(theta * theta))
                        theta_max_norm = np.maximum(theta_max_norm, norm)
                    if clips:
                        budget = _clip_budgets(clips, acc.n, reps)
                        live = ok & clipped
                        # a huge clip_c0 sums to inf, as Python floats do in run_trial
                        with np.errstate(over="ignore"):
                            np.add(clip_bound_sum, budget, out=clip_bound_sum, where=live)
                        clip_step_excess = np.where(
                            live, np.maximum(clip_step_excess, move - budget), clip_step_excess
                        )

            if not frozen and i < burn:
                rho = g = half
            else:
                rho = target_ratio_rows(pol, theta, x1)
                if any_balance:
                    g = allocation_prob_rows(pol, rho, p_theta, c_theta, aphi[k], lam)
                    g = np.where(balance, g, rho)
                else:
                    g = rho

            treated = np.less(au[k], g, out=block_treated[k])
            t = treated.astype(np.float64)
            y = np.where(treated, ay1[k], ay0[k])

            scale = increment_scale(rho, t)
            lam += scale[:, None] * aphi[k]
            psi += scale * az[k]

            sum_y += y
            sum_rho += rho
            sum_rho_sq += rho * rho
            ipw_sum += np.where(treated, y / rho, -y / (1.0 - rho))

            if keep_log:
                log[i, :8] = (x1, ax2[k], ax3[k], rho, g, t, y, az[k])
                log[i, 8:12] = lam.T
                log[i, 12] = psi
                log[i, 13:] = theta.T
            if not frozen:
                if i + lag <= burn:
                    acc.add(x1, ax2[k], ax3[k], t, y, rho)
                elif i + lag < n_units:
                    pending[i % lag] = (x1, ax2[k], ax3[k], t, y, rho)
            i += 1

        _count_atoms(ax1, block_treated, atoms)

    return [
        _result(
            log[:, :, r], n_units, lam[r], psi[r], sum_y[r], sum_rho[r], sum_rho_sq[r],
            ipw_sum[r], clip_step_excess[r], theta_max_norm[r], theta[r], theta_move_sum[r],
            clip_bound_sum[r], clipped[r], n_fit_steps[r], atoms[:, :, r],
        )
        for r in range(reps)
    ]
