"""Covariate-balanced response-adaptive randomization.

Sequential trial allocation that pursues an estimated targeted ratio
while actively correcting covariate imbalance, with the estimation,
adaptation, and verification machinery around it: a working-model
estimator, parameter-update mechanisms, a trial engine, a replication
harness, and a population oracle for the asymptotic theory.
"""
from .adapt import MechanismKind, UpdateMechanism, clip_bound, next_theta, perfect_squares
from .datagen import CovariateVector, Scenario, ScenarioId, draw_unit_arrays, true_ate
from .engine import (
    Allocation,
    StepLog,
    TrialConfig,
    TrialResult,
    TrialStats,
    run_trial,
)
from .estimator import (
    FitAccumulator,
    FitResult,
    Weighting,
    fit_working_model,
    ipw_ate,
)
from .harness import (
    MetricsSummary,
    ReplicationPlan,
    aggregate_grid,
    collect,
    run_replications,
    split_seed,
    summarize,
)
from .oracle import (
    AsymptoticReport,
    PopulationSample,
    asymptotic_report,
    balance_coeff_a,
    invariant_pi_g_check,
    ipw_asym_var,
    mest_covariance,
    oracle_theta_star,
    sigma_z_sq,
    z_additional,
)
from .policy import (
    Family,
    ModelCoefficients,
    TargetPolicy,
    ZERO_COEFFS,
    allocation_prob,
    derive_constants,
    target_ratio_from_x1,
)
from .acceptance import CRITERION_NAMES, CriterionResult, run_acceptance
from .cli import RunSpec, emit_tables, grid_plans, parse_config, render_config

__version__ = "0.1.0"
