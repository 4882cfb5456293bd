"""Working-model fitting and the inverse-propensity-weighted ATE.

The working model is linear with per-arm intercept and x1 slope plus
shared x2/x3 terms. Fitting it by weighted least squares with weights
(1/2) / rho_used(t | x) maximizes the reference-ratio-weighted Gaussian
criterion exactly, so no iterative solver is involved.

Weights are pinned at allocation time (each row carries the targeted
ratio in force when its unit was assigned), which is what makes the
running cross-product accumulator exact: past rows never get
reweighted.

Every fit asks the eigenvalue rank test whether its normal matrix is
usable: rank_deficient, which compares the eigvalsh extremes. The
oracle calls it directly. FitAccumulator and FitStack reach it through
_grown_rank_deficient, which holds the one certificate: a lower bound
on each trial's smallest eigenvalue, cached from an earlier step, that
decides most fits without a factorization and sends the rest to
rank_deficient.

That cache rests on monotonicity. add only ever adds w d d' with
w > 0, a positive semidefinite rank-one term, so a trial's Gram A_n
never loses eigenvalue mass: lambda_min(A_n) >= lambda_min(A_m) for
n >= m. A Cholesky factor of A_m - c tr(A_m) I (c = _WIDE_SHIFT)
proves lambda_min(A_m) > c tr(A_m) =: floor. While a later Gram keeps
2 * _RANK_RTOL * tr(A_n) <= floor, it has lambda_min > 2 * _RANK_RTOL
* tr >= 2 * _RANK_RTOL * lambda_max, so the test passes it, with a
factor-2 margin over its _RANK_RTOL comparison, and no
factorization runs until the trace has grown c / (2 * _RANK_RTOL) =
5e4-fold. Rounding stays inside that margin: each of the n rank-one
terms is formed and added with relative error eps = 2**-53 per
operation, and |w d_p d_q| <= (w d_p**2 + w d_q**2) / 2, so the stored
Gram differs from an exactly grown one by a symmetric error of norm at
most about 6 * n * eps * tr. That stays below half the margin,
_RANK_RTOL * tr, while n < _RANK_RTOL / (6 * eps), about 1.5e7 fitted
rows, far more than any trial here.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .datagen import Scenario, ScenarioId
from .policy import ModelCoefficients, ZERO_COEFFS

_RANK_RTOL = 1e-8
# the cached certificate's shift, in units of the trace; the Grams of
# the shipped workloads have lambda_min / trace >= 0.014
_WIDE_SHIFT = 1e-3

_ALL_COLS = (0, 1, 2, 3, 4, 5)
_ARM_COLS = (0, 1, 2, 3)


def active_columns(scenario: Scenario) -> tuple[int, ...]:
    """Design columns the working model is fitted on: the DiscreteTest
    scenario has x2 = x3 = 0, so its shared x2/x3 columns are dropped."""
    return _ARM_COLS if scenario.id is ScenarioId.DISCRETE else _ALL_COLS


def _cholesky_certifies(gram: np.ndarray, shift: np.ndarray) -> bool:
    """The cached certificate's test: True when every matrix of the
    stack, with its diagonal lowered by its entry of shift, has a finite
    Cholesky factor; then each has lambda_min > shift, up to
    O(eps * |A|) rounding. np.linalg.cholesky fails for the whole stack
    at once."""
    try:
        factor = np.linalg.cholesky(gram - shift[..., None, None] * np.eye(gram.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    # a NaN entry can leave the factor NaN without an error
    return bool(np.isfinite(factor).all())


def rank_deficient(gram: np.ndarray) -> np.ndarray:
    """The rank test of every fit: True where a symmetric normal matrix,
    or each of a stack of them, has no positive eigenvalue or a smallest
    eigenvalue below _RANK_RTOL times its largest, by eigvalsh. A NaN
    eigenvalue fails both comparisons, so it is not counted as
    deficient."""
    eigs = np.linalg.eigvalsh(gram)
    return (eigs[..., -1] <= 0.0) | (eigs[..., 0] < _RANK_RTOL * eigs[..., -1])


def _grown_rank_deficient(gram: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """rank_deficient of a stack of Grams (m, k, k), each of which has
    only grown by positive semidefinite terms since its entry of floor
    (m,) was set; floor holds a certified lower bound on each smallest
    eigenvalue, -inf where none is, and is raised in place.

    A Gram whose 2 * _RANK_RTOL * trace is at most its floor passes
    without a factorization (see the module docstring). The rest, the
    stale ones, which include a non-finite trace, try the wide
    certificate together; if it holds, their floors become _WIDE_SHIFT
    * trace. A stale stack it cannot certify goes whole to
    rank_deficient.
    """
    trace = gram.diagonal(0, -2, -1).sum(-1)
    stale = ~(2.0 * _RANK_RTOL * trace <= floor)
    if not stale.any():
        return stale
    sub = gram[stale]
    shift = _WIDE_SHIFT * trace[stale]
    # a finite trace of a grown Gram has a finite diagonal
    if np.isfinite(shift).all() and _cholesky_certifies(sub, shift):
        floor[stale] = shift
        return np.zeros(len(stale), dtype=bool)
    stale[stale] = rank_deficient(sub)
    return stale


class Weighting(str, Enum):
    WEIGHTED = "weighted"
    UNWEIGHTED = "unweighted"


@dataclass(frozen=True, slots=True)
class FitResult:
    eta: ModelCoefficients
    rank_ok: bool
    n_used: int


class FitAccumulator:
    """Running normal equations Sum(w d d^T) / Sum(w d y) for one trial.

    add() exploits that a design row has only four nonzero entries
    (its arm block plus the shared x2/x3 tail), so each update touches
    ten Gram cells. Single-writer: owned by one trial engine.

    active restricts the solve to the listed design columns; excluded
    coefficients are reported as 0. The default keeps all six.
    """

    __slots__ = ("weighting", "active", "_g", "_b", "_floor", "n", "n_treated")

    def __init__(
        self,
        weighting: Weighting = Weighting.WEIGHTED,
        active: Sequence[int] = _ALL_COLS,
    ) -> None:
        self.weighting = Weighting(weighting)
        act = tuple(sorted(set(int(c) for c in active)))
        if not act or act[0] < 0 or act[-1] > 5:
            raise ValueError("active must name design columns in 0..5")
        if not {0, 1, 2, 3} <= set(act):
            raise ValueError("the per-arm columns 0..3 cannot be dropped")
        self.active = act
        self._g = [[0.0] * 6 for _ in range(6)]
        self._b = [0.0] * 6
        self._floor = np.full(1, -np.inf)
        self.n = 0
        self.n_treated = 0

    @property
    def has_both_arms(self) -> bool:
        return 0 < self.n_treated < self.n

    def add(self, x1: float, x2: float, x3: float, t: int, y: float, rho_used: float) -> None:
        if t == 1:
            idx = (0, 1, 4, 5)
            w = 0.5 / rho_used if self.weighting is Weighting.WEIGHTED else 1.0
            self.n_treated += 1
        else:
            idx = (2, 3, 4, 5)
            w = 0.5 / (1.0 - rho_used) if self.weighting is Weighting.WEIGHTED else 1.0
        vals = (1.0, x1, x2, x3)
        g = self._g
        b = self._b
        for a in range(4):
            ia = idx[a]
            va = w * vals[a]
            b[ia] += va * y
            row = g[ia]
            for c in range(a, 4):
                row[idx[c]] += va * vals[c]
        self.n += 1

    def fit(self, fallback: ModelCoefficients = ZERO_COEFFS) -> FitResult:
        """Solve the accumulated normal equations.

        Falls back to the supplied coefficients with rank_ok = false
        when the rank test (_grown_rank_deficient) finds the
        (active-column) normal matrix deficient.
        """
        if self.n == 0:
            raise ValueError("no rows accumulated")
        upper = np.array(self._g)
        full = upper + upper.T - np.diag(np.diagonal(upper))
        act = self.active
        sub = full[np.ix_(act, act)]
        if _grown_rank_deficient(sub[None], self._floor)[0]:
            return FitResult(eta=fallback, rank_ok=False, n_used=self.n)
        rhs = np.array(self._b)[list(act)]
        sol = np.linalg.solve(sub, rhs)
        eta = [0.0] * 6
        for pos, col in enumerate(act):
            eta[col] = float(sol[pos])
        return FitResult(eta=ModelCoefficients.from_array(eta), rank_ok=True, n_used=self.n)


class FitStack:
    """FitAccumulator for R trials fed in step: one row per trial per add.

    Each add takes the outer product of the weighted design row with
    the design row, one (6, 6) product per trial, and fit reads only its
    upper triangle (cell (p, q), p <= q, sums w d_p times d_q), mirrored.
    A row's other-arm cells get exact zeros, so each upper cell sums the
    same terms in the same order as in FitAccumulator.add, and fit
    solves the symmetric matrices FitAccumulator.fit solves. weighted
    marks the trials whose weightings entry is WEIGHTED; an unweighted
    trial's rows are multiplied by 1.0, which leaves them exact. All
    trials share the active columns.
    """

    __slots__ = ("weighted", "active", "_cells", "_u", "_b", "_floor", "n", "n_treated")

    def __init__(self, weightings: Sequence[Weighting], active: Sequence[int]) -> None:
        reps = len(weightings)
        self.weighted = np.array([Weighting(w) is Weighting.WEIGHTED for w in weightings])
        act = np.array(active)
        # all six columns as a slice, so that fit selects them by view
        self.active = slice(None) if tuple(active) == _ALL_COLS else act
        # cell (p, q) of the active Gram is flat cell (min, max) of the products
        self._cells = np.minimum.outer(act, act) * 6 + np.maximum.outer(act, act)
        self._u = np.zeros((reps, 36))
        self._b = np.zeros((reps, 6))
        self._floor = np.full(reps, -np.inf)
        self.n = 0
        self.n_treated = np.zeros(reps, dtype=np.int64)

    @property
    def has_both_arms(self) -> np.ndarray:
        return (0 < self.n_treated) & (self.n_treated < self.n)

    def add(
        self,
        x1: np.ndarray,
        x2: np.ndarray,
        x3: np.ndarray,
        t: np.ndarray,
        y: np.ndarray,
        rho_used: np.ndarray,
    ) -> None:
        """Add one row per trial; t is 1.0 (treated) or 0.0 per trial."""
        d = np.empty((len(t), 6))
        d[:, 0] = t
        np.subtract(1.0, t, out=d[:, 2])
        # columns 1 and 3: t * x1 and (1 - t) * x1
        np.multiply(d[:, 0:4:2], x1[:, None], out=d[:, 1:4:2])
        d[:, 4] = x2
        d[:, 5] = x3
        treated = t == 1.0
        # an unweighted trial's weight is 1.0, as in FitAccumulator
        w = np.where(self.weighted, 0.5 / np.where(treated, rho_used, 1.0 - rho_used), 1.0)
        wd = d * w[:, None]
        self._u += (wd[:, :, None] * d[:, None, :]).reshape(-1, 36)
        self._b += wd * y[:, None]
        self.n += 1
        self.n_treated += treated

    def fit(self, rows: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the normal equations of the trials marked in rows.

        Returns (ok, eta): ok marks the trials in rows that pass
        the rank test (_grown_rank_deficient). Row r of eta holds trial
        r's coefficients (0 outside the active columns) where ok[r], and
        fallback[r] elsewhere. Only the rows asked for are tested, so a
        trial outside rows cannot keep the certificate from deciding.
        When every row is asked for and passes, nothing is copied but
        the Gram cells the solve reads.
        """
        act = self.active
        every = rows.all()
        # a slice selects every row by view
        pick = slice(None) if every else rows
        sym = self._u[pick][:, self._cells]
        floor = self._floor[pick]
        passed = ~_grown_rank_deficient(sym, floor)
        self._floor[pick] = floor
        if every:
            ok = passed
        else:
            ok = rows.copy()
            ok[rows] = passed
        if ok.all():
            eta = np.zeros_like(fallback)
            eta[:, act] = np.linalg.solve(sym, self._b[:, act, None])[:, :, 0]
        else:
            eta = fallback.copy()
            if passed.any():
                sol = np.zeros((int(passed.sum()), 6))
                sol[:, act] = np.linalg.solve(sym[passed], self._b[ok][:, act, None])[:, :, 0]
                eta[ok] = sol
        if not np.isfinite(eta).all():
            raise ValueError("fitted coefficients must be finite")
        return ok, eta


def _check_columns(t, rho_used) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(t)
    rho_used = np.asarray(rho_used, dtype=float)
    if len(t) == 0:
        raise ValueError("rows must be nonempty")
    if not np.isin(t, (0, 1)).all():
        raise ValueError("t must be 0 or 1")
    if not ((0.0 < rho_used) & (rho_used < 1.0)).all():
        raise ValueError("rho_used must lie strictly inside (0, 1)")
    return t, rho_used


def fit_working_model(
    x1: np.ndarray,
    x2: np.ndarray,
    x3: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
    rho_used: np.ndarray,
    weighting: Weighting = Weighting.WEIGHTED,
    fallback: ModelCoefficients = ZERO_COEFFS,
    active: Sequence[int] = _ALL_COLS,
) -> FitResult:
    """Weighted least-squares fit of the working model over the rows
    given as columns: covariates, arm (0 or 1), response, and the
    targeted ratio in force when each unit was allocated."""
    t, rho_used = _check_columns(t, rho_used)
    acc = FitAccumulator(weighting=weighting, active=active)
    for row in zip(*(np.asarray(c).tolist() for c in (x1, x2, x3, t, y, rho_used))):
        acc.add(*row)
    return acc.fit(fallback=fallback)


def _ipw_terms(treated, y, rho):
    """Each unit's IPW term, elementwise: y / rho where treated, else
    -y / (1 - rho). ipw_ate and the engines' running sums both read it."""
    return np.where(treated, y / rho, -y / (1.0 - rho))


def ipw_ate(t: np.ndarray, y: np.ndarray, rho_used: np.ndarray) -> float:
    """(1/N) Sum of t*y/rho - (1-t)*y/(1-rho), summed left to right."""
    t, rho_used = _check_columns(t, rho_used)
    y = np.asarray(y, dtype=float)
    return float(np.cumsum(_ipw_terms(t == 1, y, rho_used))[-1]) / len(t)
