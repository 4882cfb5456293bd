"""Sequential trial engine: arrival, estimation, adaptation, allocation.

One call to run_trial plays out a whole trial. Each step draws a unit,
refits the working model on the responses available so far (post
burn-in, both arms seen, honoring the response delay), advances the
allocation parameter through the configured update mechanism, allocates
by the targeted ratio (optionally imbalance-corrected), and pushes the
feature and scalar imbalance increments.

There are two paths on one block skeleton. run_trial plays one trial
with scalar per-step arithmetic; it is the reference. run_lockstep plays
R trials together, one step at a time, with the state held as (R,),
(R, 4), (R, 6) and (R, 6, 6) arrays. Every formula is evaluated
elementwise in run_trial's order, so its results, step log included,
equal run_trial's bit for bit. It costs more than run_trial for one
trial and less per trial for several, so the harness sends shards of
two or more trials to it and a single trial to run_trial.

Both take their units in blocks of 256 steps, as (bn, R) arrays (R = 1
for run_trial), and add a block's terms of the running sums (y, rho,
rho * rho, the IPW terms and the psi increments) after its steps, each
elementwise as one step forms it, with np.add.accumulate, which adds
one step at a time, in step order. So every sum is a step-by-step
running sum, and the step log reads its columns, psi after each step
included, from the same block arrays. run_lockstep also forms |phi| of
every unit once per block. Both fit through the estimator's cached rank
certificate, so a refit factors nothing while a trial's Gram stays
inside its certified trace.

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

The two paths differ only in the per-step fit, update, ratio,
allocation and imbalance arithmetic. The rest has one owner each:
_draw_block reads a trial's generator (a block of units, then one
uniform per unit); both release responses through a ring of
max(response_delay, 1) slots; _end_block closes a block (per-atom
counts, running sums, the log columns no step writes); and _result
builds the TrialResult, its TrialStats, step log and clip budget check
included.
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
from .estimator import FitAccumulator, FitStack, Weighting, _ipw_terms, active_columns
from .policy import (
    ModelCoefficients,
    PolicyRows,
    TargetPolicy,
    ZERO_COEFFS,
    _allocation_prob_raw,
    allocation_prob_rows,
    clamp_allocation,
    derive_constants,
    feature_norm_rows,
    increment_scale,
    row_groups,
    sum_columns,
    target_ratio_and_constants_rows,
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
    log, n, lam, sums, clip_excess, theta_max_norm, theta, move_sum, bound_sum, clipped,
    n_fit_steps, atoms,
) -> TrialResult:
    """A trial's record from its end state after n steps, each number a
    Python or numpy scalar: log holds its logged steps (none when
    unlogged), sums its (5,) running sums of y, rho, rho * rho, the IPW
    terms and psi, and atoms its (units, treated) counts per x1 atom.
    Raises unless a clipped trial's parameter moved no farther in total
    than the sum of its per-update clip budgets, up to rounding."""
    move_sum, bound_sum = float(move_sum), float(bound_sum)
    if clipped and move_sum > bound_sum + 1e-9:
        raise RuntimeError(
            f"clipped updates exceeded their cumulative budget: {move_sum} > {bound_sum}"
        )
    lam = tuple(float(v) for v in lam)
    sum_y, sum_rho, sum_rho_sq, ipw_sum, psi = sums.tolist()
    rho_var = sum_rho_sq / n - (sum_rho / n) ** 2
    stats = TrialStats(
        lambda_norm=_norm(lam),
        psi=psi,
        psi_abs=abs(psi),
        mean_response=sum_y / n,
        target_sd=math.sqrt(rho_var) if rho_var > 0.0 else 0.0,
        ipw=ipw_sum / n,
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


def _draw_block(scenarios: Sequence[Scenario], rngs, n: int) -> np.ndarray:
    """A block of n units of each of R trials as one (8, n, R) buffer:
    phi's constant 1, x1, x2, x3, y1, y0, zstar and one uniform per
    unit. It is the one place either engine reads a trial's generator:
    row r's units, then its uniforms, from rngs[r]."""
    draws = np.empty((8, n, len(rngs)))
    draws[0] = 1.0
    for r, (scenario, rng) in enumerate(zip(scenarios, rngs)):
        draws[1:, :, r] = (*draw_unit_arrays(scenario, n, rng), rng.random(n))
    return draws


def _count_atoms(x1: np.ndarray, treated: np.ndarray, atoms: np.ndarray) -> None:
    """Add a block's units and treated units at each x1 atom to atoms[0]
    and atoms[1], each (3, R); x1 and treated are (bn, R)."""
    for a, atom in enumerate(X1_ATOMS):
        at = x1 == atom
        atoms[0, a] += np.count_nonzero(at, axis=0)
        atoms[1, a] += np.count_nonzero(at & treated, axis=0)


def _block_terms(treated, y, rho, z):
    """A block's (bn, R) terms of the running sums of y, rho, rho * rho,
    the IPW estimate and psi, in that order, each elementwise as a
    scalar step forms it; made one at a time, so that few are held."""
    yield y
    yield rho
    yield rho * rho
    yield _ipw_terms(treated, y, rho)
    # a bool t enters t - rho as 0.0 or 1.0
    yield increment_scale(rho, treated) * z


def _add_in_order(total: np.ndarray, terms: np.ndarray, partial: np.ndarray) -> None:
    """Add terms (bn, R) to total (R,) one step at a time, as a running
    sum does, and leave total after each step in partial[1:] (partial is
    (bn + 1, R)); np.add.accumulate adds sequentially."""
    partial[0] = total
    partial[1:] = terms
    np.add.accumulate(partial, axis=0, out=partial)
    total[:] = partial[-1]


def _end_block(draws, rho, treated, sums, atoms, steps) -> None:
    """Close a block: count its units and treated units per x1 atom,
    add its terms to the running sums (5, R) in step order and, unless
    steps is None, fill the x1..x3, rho, t, y, zstar and psi columns of
    steps, the block's (bn, _LOG_WIDTH, R) rows of the log. draws is
    the block's _draw_block buffer; rho and treated are its steps'
    (bn, R) ratios and arms."""
    _, x1, _, _, y1, y0, z, _ = draws
    _count_atoms(x1, treated, atoms)
    y = np.where(treated, y1, y0)
    partial = np.empty((len(rho) + 1, rho.shape[1]))
    for total, terms in zip(sums, _block_terms(treated, y, rho, z)):
        _add_in_order(total, terms, partial)
    if steps is not None:
        steps[:, :3] = draws[1:4].transpose(1, 0, 2)
        steps[:, 3] = rho
        steps[:, 5] = treated
        steps[:, 6] = y
        steps[:, 7] = z
        # the psi terms were added last: partial holds psi after each step
        steps[:, 12] = partial[1:]


# the log columns a step itself writes, in StepLog's order: g, lam (4)
# and theta (6); _end_block fills the rest
_STEP_COLUMNS = [4, 8, 9, 10, 11, *range(13, _LOG_WIDTH)]


def run_trial(cfg: TrialConfig) -> TrialResult:
    """Play out one trial and return its log and summaries.

    Identical configs (seed included) give bit-identical results: the
    rng is consumed in a fixed pattern (unit blocks, then one uniform
    per allocation) regardless of the trajectory taken.
    """
    rng = np.random.default_rng(cfg.seed)
    pol = cfg.policy
    mech = cfg.mechanism
    balance = cfg.allocation is Allocation.BALANCE
    clipped = mech.kind is MechanismKind.CLIPPED
    frozen = cfg.frozen_theta is not None
    keep_log = cfg.keep_log
    burn = cfg.burn_in
    n_units = cfg.n_units
    g_floor = pol.g_floor
    c_lambda = pol.c_lambda
    # row j's response is in hand from step j + lag on, as in run_lockstep
    lag = max(cfg.response_delay, 1)

    theta = cfg.frozen_theta if frozen else ZERO_COEFFS
    p_theta, c_theta = derive_constants(pol, theta)
    theta_row = tuple(theta.as_array().tolist())

    acc = FitAccumulator(weighting=cfg.weighting, active=active_columns(cfg.scenario))
    pending: list[tuple] = [()] * min(lag, n_units)

    l0 = l1 = l2 = l3 = 0.0
    sums = np.zeros((5, 1))
    theta_max_norm = _norm(theta_row)
    theta_move_sum = 0.0
    clip_bound_sum = 0.0
    clip_step_excess = 0.0
    n_fit_steps = 0
    atoms = np.zeros((2, len(X1_ATOMS), 1), dtype=np.int64)
    log = np.empty((n_units if keep_log else 0, _LOG_WIDTH, 1))

    i = 0
    while i < n_units:
        start = i
        bn = min(_BLOCK, n_units - i)
        draws = _draw_block((cfg.scenario,), (rng,), bn)
        lx1, lx2, lx3, ly1, ly0, _, us = draws[1:, :, 0].tolist()
        # step k's ratio and arm, read after the block, and its _STEP_COLUMNS
        block_rho = [0.0] * bn
        block_t = [0] * bn
        block_log = array("d")

        for k in range(bn):
            x1 = lx1[k]
            x2 = lx2[k]
            x3 = lx3[k]

            if not frozen and i >= burn:
                if i > burn and i >= lag:
                    acc.add(*pending[(i - lag) % lag])
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
            block_rho[k] = rho_used
            block_t[k] = t

            scale = increment_scale(rho_used, t)
            l0 += scale
            l1 += scale * x1
            l2 += scale * x2
            l3 += scale * x3

            if keep_log:
                block_log.extend((g, l0, l1, l2, l3, *theta_row))
            if not frozen:
                y = ly1[k] if t else ly0[k]
                if i + lag <= burn:
                    acc.add(x1, x2, x3, t, y, rho_used)
                elif i + lag < n_units:
                    pending[i % lag] = (x1, x2, x3, t, y, rho_used)
            i += 1

        steps = None
        if keep_log:
            steps = log[start:i]
            steps[:, _STEP_COLUMNS, 0] = np.frombuffer(block_log).reshape(bn, -1)
        treated = np.array(block_t, dtype=bool)[:, None]
        _end_block(draws, np.array(block_rho)[:, None], treated, sums, atoms, steps)

    return _result(
        log[:, :, 0], n_units, (l0, l1, l2, l3), sums[:, 0], clip_step_excess, theta_max_norm,
        theta_row, theta_move_sum, clip_bound_sum, clipped, n_fit_steps, atoms[:, :, 0],
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
    run_trial(configs[r]) bit for bit, step log included. A step after
    theta moved takes its ratios and the rule's (p_theta, c_theta) from
    one link call; a frozen batch forms (p_theta, c_theta) once.
    """
    if not configs:
        raise ValueError("configs must be nonempty")
    cfg = configs[0]
    schedule = step_schedule(cfg)
    if any(step_schedule(c) != schedule for c in configs):
        raise ValueError("lockstep configs must share a step schedule")
    reps = len(configs)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    scenarios = [c.scenario for c in configs]
    pol = PolicyRows.of([c.policy for c in configs])
    mechs = row_groups([c.mechanism for c in configs])
    clips = [(m, rows) for m, rows in mechs if m.kind is MechanismKind.CLIPPED]
    clipped = np.array([c.mechanism.kind is MechanismKind.CLIPPED for c in configs])
    balance = np.array([c.allocation is Allocation.BALANCE for c in configs])
    any_balance = balance.any()
    # some rows balance and some allocate directly
    mixed = any_balance and not balance.all()
    frozen = cfg.frozen_theta is not None
    keep_log = cfg.keep_log
    burn = cfg.burn_in
    n_units = cfg.n_units
    # row j's response is in hand from step j + lag on; rows in hand by
    # step burn are added at once, later ones wait in a ring of lag slots
    lag = max(cfg.response_delay, 1)

    theta = np.zeros((reps, 6))
    if frozen:
        theta[:] = [c.frozen_theta.as_array() for c in configs]
    # the allocation rule's (p_theta, c_theta) are formed with the ratios
    # at the first allocation and at the first one after theta moves
    constants_due = any_balance
    acc = FitStack([c.weighting for c in configs], active_columns(cfg.scenario))
    pending: list[tuple[np.ndarray, ...]] = [()] * min(lag, n_units)

    lam = np.zeros((reps, 4))
    # the running sums of y, rho, rho * rho, the IPW terms and the psi
    # increments, taken once per block
    sums = np.zeros((5, reps))
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
        start = i
        bn = min(_BLOCK, n_units - i)
        # (bn, reps) per quantity, so that step k reads row k, after phi's
        # constant 1: phi[k] is step k's (reps, 4) feature rows. A fresh
        # buffer per block, since pending rows keep views into it
        draws = _draw_block(scenarios, rngs, bn)
        _, ax1, ax2, ax3, ay1, ay0, az, au = draws
        phi = draws[:4].transpose(1, 2, 0)
        phi_norm = feature_norm_rows(phi)
        # step k's ratio and treatment of each row, read after the block
        block_rho = np.empty((bn, reps))
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
                        constants_due = any_balance
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
                if constants_due:
                    rho, p_theta, c_theta = target_ratio_and_constants_rows(pol, theta, x1)
                    constants_due = False
                else:
                    rho = target_ratio_rows(pol, theta, x1)
                if any_balance:
                    g = allocation_prob_rows(pol, rho, p_theta, c_theta, phi[k], phi_norm[k], lam)
                    if mixed:
                        g = np.where(balance, g, rho)
                else:
                    g = rho

            block_rho[k] = rho
            treated = np.less(au[k], g, out=block_treated[k])
            t = treated.astype(np.float64)
            lam += increment_scale(rho, t)[:, None] * phi[k]

            if keep_log:
                log[i, 4] = g
                log[i, 8:12] = lam.T
                log[i, 13:] = theta.T
            if not frozen:
                y = np.where(treated, ay1[k], ay0[k])
                if i + lag <= burn:
                    acc.add(x1, ax2[k], ax3[k], t, y, rho)
                elif i + lag < n_units:
                    pending[i % lag] = (x1, ax2[k], ax3[k], t, y, rho)
            i += 1

        steps = log[start:i] if keep_log else None
        _end_block(draws, block_rho, block_treated, sums, atoms, steps)

    return [
        _result(
            log[:, :, r], n_units, lam[r], sums[:, r], clip_step_excess[r], theta_max_norm[r],
            theta[r], theta_move_sum[r], clip_bound_sum[r], clipped[r], n_fit_steps[r],
            atoms[:, :, r],
        )
        for r in range(reps)
    ]
