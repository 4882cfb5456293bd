"""The benchmark's four workloads, each built from a seed.

A workload's fixed work is a short list of parts; the timed phase runs
the parts round-robin and ``wall_s`` is the sum over parts of the
median part time. Each part's output is checked on every run: the
invariants hold for any seed, and at ``DEFAULT_SEED`` the values must
match ``reference.json``.

Importing this module imports cbara, so ``run.py`` times the import as
part of set-up.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from cbara import (
    Allocation,
    CovariateVector,
    Family,
    ModelCoefficients,
    ReplicationPlan,
    Scenario,
    ScenarioId,
    TargetPolicy,
    TrialConfig,
    UpdateMechanism,
    Weighting,
    split_seed,
)
# Layer entry points are called through their modules, so that the
# tracer's wrappers on those module attributes see the calls.
from cbara import cli, engine, harness, oracle

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

DEFAULT_SEED = 0

# Outcome coefficients of scenario A; the working model is exactly
# specified there, so the oracle's limit equals them to solver precision.
TRUTH_A = (4.5, 4.7, 7.5, 1.7, 2.9, 1.4)

CLIP_EXCESS_MAX = 1e-12
DEVIATION_MAX = 0.01
THETA_STAR_TOL = 1e-8


class AdaptiveReplicate:
    """harness.collect on one plan of the paper's main procedure."""

    name = "adaptive-replicate"
    op_name = "trial"
    n_units = 800
    # Values pass through LAPACK (6x6 eigvalsh/solve) and BLAS (the
    # covariate Cholesky product), whose kernels are chosen at run time.
    tolerance_reason = "LAPACK/BLAS kernels are selected per CPU at run time"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.reps = 2 if smoke else 10
        cfg = TrialConfig(
            n_units=self.n_units,
            scenario=Scenario(ScenarioId.A),
            policy=TargetPolicy(family=Family.LOGISTIC),
            weighting=Weighting.WEIGHTED,
            mechanism=UpdateMechanism.clipped(1.0, 0.5),
            allocation=Allocation.BALANCE,
            keep_log=False,
        )
        self.parts = [ReplicationPlan(base_config=cfg, n_reps=self.reps, base_seed=seed)]
        self.ops_per_part = [self.reps]
        self.steps_per_part = [self.reps * self.n_units]
        self.traced_iterations = 2 if smoke else 10

    def warm_up(self) -> None:
        harness.collect(self.parts[0])

    def run(self, k: int):
        return harness.collect(self.parts[k])

    def check(self, k: int, out) -> list[str]:
        bad = []
        if len(out) != self.reps:
            bad.append(f"expected {self.reps} trials, got {len(out)}")
        for i, stats in enumerate(out):
            if stats.clip_excess > CLIP_EXCESS_MAX:
                bad.append(f"trial {i}: clip_excess {stats.clip_excess!r} > {CLIP_EXCESS_MAX}")
            if not all(math.isfinite(v) for v in stats):
                bad.append(f"trial {i}: non-finite statistic {tuple(stats)!r}")
        return bad

    def record(self, k: int, out) -> list:
        return [list(stats) for stats in out]


class FrozenChain:
    """oracle.invariant_pi_g_check the way criterion 9 calls it."""

    name = "frozen-chain"
    op_name = "invariant check (one logged trial and the probe loop)"
    tolerance_reason = "BLAS kernels for the covariate Cholesky product are selected per CPU"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.horizon = 100_000 if smoke else 200_000
        self.policy = TargetPolicy(family=Family.LOGISTIC)
        self.probes = [
            CovariateVector(-1.0, -0.5, 0.3),
            CovariateVector(0.0, 0.0, 0.0),
            CovariateVector(1.0, 0.7, -0.6),
        ]
        thetas = [
            ModelCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            ModelCoefficients(*TRUTH_A),
            ModelCoefficients(2.0, 1.0, 0.0, -1.0, 0.5, -0.5),
        ]
        if smoke:
            thetas = thetas[:1]
        self.parts = [(theta, split_seed(seed, k)) for k, theta in enumerate(thetas, start=17)]
        self.ops_per_part = [1] * len(self.parts)
        self.steps_per_part = [self.horizon] * len(self.parts)
        self.traced_iterations = 1
        self._warm_cfg = TrialConfig(
            n_units=5_000,
            scenario=Scenario(ScenarioId.A),
            policy=self.policy,
            weighting=Weighting.WEIGHTED,
            mechanism=UpdateMechanism.direct(),
            allocation=Allocation.BALANCE,
            frozen_theta=thetas[-1],
            seed=seed,
        )

    def warm_up(self) -> None:
        engine.run_trial(self._warm_cfg)

    def run(self, k: int):
        theta, seed = self.parts[k]
        return oracle.invariant_pi_g_check(self.policy, theta, self.probes, self.horizon, seed=seed)

    def check(self, k: int, out) -> list[str]:
        if len(out) != len(self.probes):
            return [f"expected {len(self.probes)} deviations, got {len(out)}"]
        return [
            f"theta {k} probe {i}: deviation {d!r} not below {DEVIATION_MAX}"
            for i, d in enumerate(out)
            if not (math.isfinite(d) and d < DEVIATION_MAX)
        ]

    def record(self, k: int, out) -> list:
        return [float(d) for d in out]


class OracleReport:
    """PopulationSample(A, 1e6) and the logistic asymptotic report."""

    name = "oracle-report"
    op_name = "oracle report"
    tolerance_reason = "BLAS reductions over 200k-row chunks may change summation order per CPU"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.m = 100_000 if smoke else 1_000_000
        self.scenario = Scenario(ScenarioId.A)
        self.policy = TargetPolicy(family=Family.LOGISTIC)
        self.seed = seed
        self.parts = [None]
        self.ops_per_part = [1]
        self.steps_per_part = [0]
        self.traced_iterations = 1

    def warm_up(self) -> None:
        self.run(0)

    def run(self, k: int):
        pop = oracle.PopulationSample(self.scenario, seed=self.seed, m=self.m)
        return oracle.asymptotic_report(pop, self.policy)

    def check(self, k: int, out) -> list[str]:
        bad = []
        theta = out.theta_star.as_array()
        err = float(np.max(np.abs(theta - np.array(TRUTH_A))))
        if not err <= THETA_STAR_TOL:
            bad.append(f"theta_star off the truth by {err!r} > {THETA_STAR_TOL}")
        values = [*out.a_vec, out.sigma_z_sq, out.ipw_var, *out.mest_cov.ravel()]
        if not all(math.isfinite(v) for v in values):
            bad.append("non-finite oracle quantity")
            return bad
        cov = out.mest_cov
        if cov.shape != (6, 6) or not np.array_equal(cov, cov.T):
            bad.append("mest_cov is not symmetric")
        else:
            eig = np.linalg.eigvalsh(cov)
            if eig[0] < -1e-10 * max(float(np.trace(cov)), 1.0):
                bad.append(f"mest_cov is not PSD: smallest eigenvalue {eig[0]!r}")
        return bad

    def record(self, k: int, out) -> list:
        return [
            [float(v) for v in out.theta_star.as_array()],
            [float(v) for v in out.a_vec],
            float(out.sigma_z_sq),
            float(out.ipw_var),
            [[float(v) for v in row] for row in out.mest_cov],
        ]


class TableGrid:
    """cbara table1 through cli.main: 24 plans on a 2-process pool."""

    name = "table-grid"
    op_name = "grid cell"
    rows = 12
    reps = 8  # as in table_grid.cfg
    tolerance_reason = "LAPACK/BLAS kernels are selected per CPU at run time"

    def __init__(self, seed: int, smoke: bool) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.out_path = OUT_DIR / "table-grid.csv"
        reps = 2 if smoke else self.reps
        self.argv = [
            "table1",
            "--config", str(HERE / "table_grid.cfg"),
            "--seed", str(seed),
            "--raw",
            "--out", str(self.out_path),
        ]
        if smoke:
            self.argv += ["--reps", str(reps)]
        self.parts = [self.argv]
        self.ops_per_part = [2 * self.rows]
        self.steps_per_part = [2 * self.rows * reps * 200]
        self.traced_iterations = 1

    def warm_up(self) -> None:
        self.run(0)

    def run(self, k: int):
        code = cli.main(self.parts[k])
        if code != 0:
            raise RuntimeError(f"cbara table1 exited with {code}")
        return self.out_path.read_text(encoding="utf-8")

    def check(self, k: int, out) -> list[str]:
        lines = out.splitlines()
        if len(lines) != 1 + self.rows:
            return [f"expected a header and {self.rows} rows, got {len(lines)} lines"]
        bad = []
        width = len(lines[0].split(","))
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if len(cells) != width:
                bad.append(f"row {i}: {len(cells)} cells, header has {width}")
                continue
            for cell in [cells[0], *cells[4:]]:
                try:
                    ok = math.isfinite(float(cell))
                except ValueError:
                    ok = False
                if not ok:
                    bad.append(f"row {i}: cell {cell!r} is not a finite number")
        return bad

    def record(self, k: int, out) -> list:
        rows = []
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            rows.append(cells[1:4] + [float(v) for v in [cells[0], *cells[4:]]])
        return [out.splitlines()[0]] + rows


WORKLOADS = {w.name: w for w in (AdaptiveReplicate, FrozenChain, OracleReport, TableGrid)}


def compare(ref, got, rel: float, path: str = "") -> list[str]:
    """Differences between nested lists of floats and strings; floats
    match when bit-exact or within rel of each other."""
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: shape differs"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, rel, f"{path}[{i}]")
        return out
    if isinstance(ref, str):
        return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]
    if ref == got or abs(ref - got) <= rel * max(abs(ref), abs(got)):
        return []
    return [f"{path}: {got!r} != {ref!r}"]
