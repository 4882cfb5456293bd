"""Command-line front end: config parsing, orchestration, emission.

Configuration is a flat key-value document, one `key = value` per
line, `#` starting a comment. Grid axes (sizes, scenarios, families,
weightings) take comma-separated lists; everything else is scalar.
Flags override config values; the CBARA_SEED environment variable
overrides every other seed source.

Subcommands:
  run     one replication plan, long-format metric rows
  table1  the full size x scenario x family x weighting grid
  table2  alias of table1 (one merged schema carries both tables)
  oracle  asymptotic quantities for the configured scenario and family
  check   acceptance criteria, one PASS/FAIL line each
  trace   per-step log of a single trial

Trace columns, in order: Step, X1, X2, X3, Rho, G, T, Y, ZStar,
Lam1..Lam4, Psi, Alpha1, Gamma1, Alpha0, Gamma0, Beta2, Beta3.

Every failure, be it a bad flag, a bad config value or an error during
the run, prints one machine-readable line `cbara-error: <message>` to
stderr and no traceback. The exit status is 2 for a bad value, 1 for
any other failure, and 0 only when all requested work completed (for
`check`: when every criterion passed). An output path that cannot be
opened for writing fails before any work starts.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .adapt import UpdateMechanism
from .datagen import Scenario, ScenarioId
from .engine import Allocation, TrialConfig, _check_int, run_trial
from .estimator import Weighting
from .harness import (
    MetricsSummary,
    ReplicationPlan,
    aggregate_grid,
    run_replications,
    split_seed,
)
from .oracle import PopulationSample, asymptotic_report
from .policy import Family, TargetPolicy

_UPDATE_CHOICES = ("auto", "direct", "iru", "clipped")
_FORMAT_CHOICES = ("csv", "tsv")

_SCENARIO_NAMES = {s.value: s for s in ScenarioId}


@dataclass(frozen=True, slots=True)
class RunSpec:
    """Fully resolved configuration for any subcommand."""

    n: int = 200
    scenario: ScenarioId = ScenarioId.A
    noise_sd: float = 0.0
    family: Family = Family.CRD
    clamp_lo: float = 0.2
    c_lambda: float = 1.0
    g_floor: float = 0.01
    mechanism: Allocation = Allocation.DIRECT
    update: str = "auto"
    clip_c0: float = 1.0
    clip_exponent: float = 0.5
    weighting: Weighting = Weighting.WEIGHTED
    burn_in: int = 20
    response_delay: int = 0
    reps: int = 100
    seed: int = 0
    parallelism: int = 1
    out: str = ""
    format: str = "csv"
    oracle_m: int = 1_000_000
    sizes: tuple[int, ...] = (200, 800)
    scenarios: tuple[ScenarioId, ...] = (ScenarioId.A, ScenarioId.B)
    families: tuple[Family, ...] = (Family.CRD, Family.LOGISTIC, Family.PROBIT)
    weightings: tuple[Weighting, ...] = (Weighting.WEIGHTED, Weighting.UNWEIGHTED)


def _parse_scenario(raw: str) -> ScenarioId:
    if raw not in _SCENARIO_NAMES:
        raise ValueError(
            f"unknown scenario {raw!r}; expected one of {sorted(_SCENARIO_NAMES)}"
        )
    return _SCENARIO_NAMES[raw]


def _parse_choice(raw: str, choices: Sequence[str], key: str) -> str:
    low = raw.lower()
    if low not in choices:
        raise ValueError(f"{key} must be one of {list(choices)}, got {raw!r}")
    return low


def _enum_parser(enum, key: str):
    """Parser of one member of enum, named by its value in any case."""
    choices = [member.value for member in enum]
    return lambda raw: enum(_parse_choice(raw, choices, key))


def _list_parser(item):
    """Parser of a comma-separated list of item, blank entries skipped."""
    return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())


_PARSERS = {
    "n": int,
    "scenario": _parse_scenario,
    "noise_sd": float,
    "family": _enum_parser(Family, "family"),
    "clamp_lo": float,
    "c_lambda": float,
    "g_floor": float,
    "mechanism": _enum_parser(Allocation, "mechanism"),
    "update": lambda raw: _parse_choice(raw, _UPDATE_CHOICES, "update"),
    "clip_c0": float,
    "clip_exponent": float,
    "weighting": _enum_parser(Weighting, "weighting"),
    "burn_in": int,
    "response_delay": int,
    "reps": int,
    "seed": int,
    "parallelism": int,
    "out": str,
    "format": lambda raw: _parse_choice(raw, _FORMAT_CHOICES, "format"),
    "oracle_m": int,
    "sizes": _list_parser(int),
    "scenarios": _list_parser(_parse_scenario),
    "families": _list_parser(_enum_parser(Family, "families")),
    "weightings": _list_parser(_enum_parser(Weighting, "weightings")),
}


def parse_config(text: str) -> RunSpec:
    """Parse a flat key-value document into a validated RunSpec."""
    spec = RunSpec(**_config_values(text))
    validate_spec(spec)
    return spec


def _config_values(text: str) -> dict:
    """The values a config document sets, by key, parsed but not
    range-checked."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw_value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return values


def validate_spec(spec: RunSpec) -> None:
    """Range checks beyond type parsing; raises ValueError."""
    to_policy(spec)  # clamp and allocation-rule checks live there
    _check_int("reps", spec.reps)
    _check_int("parallelism", spec.parallelism)
    _check_int("seed", spec.seed, seed=True)
    _check_int("oracle_m", spec.oracle_m)
    Scenario(spec.scenario, spec.noise_sd)  # noise sd checks live there
    for axis in ("sizes", "scenarios", "families", "weightings"):
        values = getattr(spec, axis)
        if not values:
            raise ValueError("grid axes must be nonempty")
        for k, value in enumerate(values):
            if value in values[:k]:
                name = getattr(value, "value", value)
                raise ValueError(f"{axis} repeats {name}: each grid cell must be distinct")
    # clip knob validation via a throwaway mechanism
    UpdateMechanism.clipped(spec.clip_c0, spec.clip_exponent)


def render_config(spec: RunSpec) -> str:
    """Canonical text form; parse_config(render_config(s)) == s."""

    def fmt(value) -> str:
        if isinstance(value, tuple):
            return ", ".join(fmt(v) for v in value)
        if isinstance(value, (ScenarioId, Family, Weighting, Allocation)):
            return value.value
        return str(value)

    lines = [f"{f.name} = {fmt(getattr(spec, f.name))}" for f in fields(RunSpec)]
    return "\n".join(lines) + "\n"


def to_policy(spec: RunSpec) -> TargetPolicy:
    return TargetPolicy(
        family=spec.family,
        clamp_lo=spec.clamp_lo,
        c_lambda=spec.c_lambda,
        g_floor=spec.g_floor,
    )


def update_mechanism_for(spec: RunSpec) -> UpdateMechanism:
    """Resolve the update mechanism, pairing clipped updates with the
    balancing allocation by default."""
    choice = spec.update
    if choice == "auto":
        choice = "clipped" if spec.mechanism is Allocation.BALANCE else "direct"
    if choice == "direct":
        return UpdateMechanism.direct()
    if choice == "iru":
        return UpdateMechanism.iru()
    return UpdateMechanism.clipped(spec.clip_c0, spec.clip_exponent)


def to_trial_config(spec: RunSpec) -> TrialConfig:
    return TrialConfig(
        n_units=spec.n,
        scenario=Scenario(spec.scenario, spec.noise_sd),
        policy=to_policy(spec),
        weighting=spec.weighting,
        mechanism=update_mechanism_for(spec),
        allocation=spec.mechanism,
        burn_in=spec.burn_in,
        response_delay=spec.response_delay,
        seed=spec.seed,
    )


def grid_plans(spec: RunSpec) -> list[ReplicationPlan]:
    """Plans for the full table grid, rows ordered by (size, scenario,
    family, weighting) with the direct/balance pair adjacent. Each cell
    gets an independent base seed split from spec.seed."""
    cells = itertools.product(
        spec.sizes,
        spec.scenarios,
        spec.families,
        spec.weightings,
        (Allocation.DIRECT, Allocation.BALANCE),
    )
    return [
        ReplicationPlan(
            base_config=to_trial_config(
                replace(spec, n=size, scenario=scen, family=fam, weighting=wgt, mechanism=alloc)
            ),
            n_reps=spec.reps,
            base_seed=split_seed(spec.seed, idx),
        )
        for idx, (size, scen, fam, wgt, alloc) in enumerate(cells)
    ]


def _fmt_value(value, raw: bool) -> str:
    if value is None:
        return "NA"
    if isinstance(value, int):
        return str(value)
    if raw:
        return repr(float(value))
    text = f"{float(value):.3f}"
    return "0.000" if text == "-0.000" else text


_TABLE_METRICS = (
    ("Response", "mean_response"),
    ("Lambda", "mean_lambda_norm"),
    ("Psi", "mean_psi_abs"),
    ("TargetSD", "mean_target_sd"),
    ("MSE_W", "ipw_mse"),
)


_PROCEDURE_LABELS = {Family.CRD: "CRD", Family.LOGISTIC: "Logistic", Family.PROBIT: "Probit"}


def _cell(cfg: TrialConfig) -> tuple:
    """The grid cell a config belongs to: size, scenario, family, weighting."""
    return cfg.n_units, cfg.scenario.id, cfg.policy.family, cfg.weighting


def emit_tables(
    plans: Sequence[ReplicationPlan],
    summaries: Sequence[MetricsSummary],
    fmt: str = "csv",
    raw: bool = False,
) -> str:
    """One table row per adjacent (direct, balance) pair of plans, in
    the order grid_plans lists them, from the plans' summaries.

    Columns: Size, Model, Procedure, Estimation, read from the plan's
    config, then metric pairs (Response, Lambda, Psi, TargetSD, MSE_W)
    each as _D and _B, then the matching _SE columns. Three-decimal
    rendering unless raw. Raises ValueError for a format other than
    csv or tsv, and when plans and summaries do not line up as
    direct/balance pairs of one cell.
    """
    if fmt not in _FORMAT_CHOICES:
        raise ValueError(f"format must be one of {list(_FORMAT_CHOICES)}, got {fmt!r}")
    cfgs = [plan.base_config for plan in plans]
    if (
        not cfgs
        or len(cfgs) % 2
        or len(summaries) != len(cfgs)
        or any(
            (d.allocation, b.allocation) != (Allocation.DIRECT, Allocation.BALANCE)
            or _cell(d) != _cell(b)
            for d, b in zip(cfgs[::2], cfgs[1::2])
        )
    ):
        raise ValueError("plans and summaries must line up as (direct, balance) pairs of one cell")
    header = ["Size", "Model", "Procedure", "Estimation"]
    for suffix in ("", "_SE"):
        header += [f"{name}_{arm}{suffix}" for name, _ in _TABLE_METRICS for arm in "DB"]

    rows = []
    for cfg, d, b in zip(cfgs[::2], summaries[::2], summaries[1::2]):
        cells = [
            str(cfg.n_units),
            cfg.scenario.id.value,
            _PROCEDURE_LABELS[cfg.policy.family],
            cfg.weighting.value.capitalize(),
        ]
        for suffix in ("", "_se"):
            cells += [
                _fmt_value(getattr(arm, attr + suffix), raw)
                for _, attr in _TABLE_METRICS
                for arm in (d, b)
            ]
        rows.append(cells)
    return _render(header, rows, fmt)


def _render(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    """The header line, then one line per row, cells joined by fmt's separator."""
    sep = "," if fmt == "csv" else "\t"
    return "".join(sep.join(cells) + "\n" for cells in (header, *rows))


def _emit_run(summary: MetricsSummary, fmt: str, raw: bool) -> str:
    rows = [
        [name] + [_fmt_value(getattr(summary, attr + suffix), raw) for suffix in ("", "_se")]
        for name, attr in _TABLE_METRICS + (("Bias", "ipw_bias"),)
    ]
    return _render(("Metric", "Value", "SE"), rows, fmt)


def _emit_trace(cfg: TrialConfig, fmt: str, raw: bool) -> str:
    log = run_trial(cfg).log
    header = (
        "Step,X1,X2,X3,Rho,G,T,Y,ZStar,Lam1,Lam2,Lam3,Lam4,Psi,"
        "Alpha1,Gamma1,Alpha0,Gamma0,Beta2,Beta3"
    ).split(",")
    # the trace columns after Step, in order; T is printed as an integer
    table = np.column_stack(
        (log.x1, log.x2, log.x3, log.rho, log.g, log.t, log.y, log.zstar, log.lam, log.psi,
         log.theta)
    )
    rows = []
    for step, (row, t) in enumerate(zip(table.tolist(), log.t.tolist()), start=1):
        cells = [str(step)] + [_fmt_value(v, raw) for v in row]
        cells[6] = str(t)
        rows.append(cells)
    return _render(header, rows, fmt)


def _emit_oracle(spec: RunSpec) -> str:
    pop = PopulationSample(
        Scenario(spec.scenario, spec.noise_sd), seed=spec.seed, m=spec.oracle_m
    )
    report = asymptotic_report(pop, to_policy(spec))
    theta = report.theta_star
    values = [
        (f"theta_star.{name}", getattr(theta, name))
        for name in ("alpha1", "gamma1", "alpha0", "gamma0", "beta2", "beta3")
    ]
    values += [(f"a_vec.{i}", v) for i, v in enumerate(report.a_vec, start=1)]
    values += [("sigma_z_sq", report.sigma_z_sq), ("ipw_var", report.ipw_var)]
    values += [
        (f"mest_cov.{i + 1}.{j + 1}", report.mest_cov[i, j]) for i in range(6) for j in range(i, 6)
    ]
    key = [spec.scenario.value, spec.family.value, "zstar"]
    rows = [key + [quantity, repr(float(value))] for quantity, value in values]
    return _render(("Scenario", "Family", "Z", "Quantity", "Value"), rows, spec.format)


def _check_out(out: str) -> None:
    """Fail now, before any work, if the output path cannot be opened
    for writing. Opening for append leaves an existing file as it is,
    and a file this check creates is removed again."""
    if out:
        existed = os.path.lexists(out)
        with open(out, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(out)


def _write_out(text: str, out: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec(args: argparse.Namespace) -> tuple[RunSpec, bool]:
    """The spec a command runs, and whether --seed, CBARA_SEED or the
    config file sets its seed. The file's values are validated on their
    own, then again with the flags and CBARA_SEED over them."""
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    values = _config_values(text)
    validate_spec(RunSpec(**values))
    values.update(
        (key, getattr(args, key))
        for key in ("reps", "seed", "parallelism", "format", "out")
        if getattr(args, key) is not None
    )
    env_seed = os.environ.get("CBARA_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"CBARA_SEED must be an integer, got {env_seed!r}") from None
    spec = RunSpec(**values)
    validate_spec(spec)
    return spec, "seed" in values


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad command line as a ValueError instead of printing
    usage and exiting, so it ends in the one cbara-error line."""

    def error(self, message: str):
        raise ValueError(message)


def main(argv: Optional[Sequence[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to key=value config file")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", default=None, choices=_FORMAT_CHOICES)
    common.add_argument("--reps", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--parallelism", type=int, default=None)
    common.add_argument("--raw", action="store_true", help="full-precision values")

    parser = _ArgumentParser(
        prog="cbara",
        description="Covariate-balanced response-adaptive trial simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one replication plan"),
        ("table1", "reproduce the full metrics grid"),
        ("table2", "alias of table1 (shared schema)"),
        ("oracle", "asymptotic quantities for one configuration"),
        ("check", "run the acceptance criteria"),
        ("trace", "per-step log of one trial"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)

    try:
        args = parser.parse_args(argv)
        spec, seed_given = _load_spec(args)
        _check_out(spec.out)
        code = 0
        if args.command == "run":
            plan = ReplicationPlan(to_trial_config(spec), spec.reps, spec.seed)
            text = _emit_run(run_replications(plan, spec.parallelism), spec.format, args.raw)
        elif args.command in ("table1", "table2"):
            plans = grid_plans(spec)
            summaries = aggregate_grid(plans, spec.parallelism)
            text = emit_tables(plans, summaries, spec.format, args.raw)
        elif args.command == "oracle":
            text = _emit_oracle(spec)
        elif args.command == "trace":
            text = _emit_trace(to_trial_config(spec), spec.format, args.raw)
        else:
            from .acceptance import run_acceptance

            # without a seed source the criteria keep their pinned base seed
            kwargs = {"seed": spec.seed} if seed_given else {}
            results = run_acceptance(parallelism=spec.parallelism, **kwargs)
            lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
            n_fail = sum(1 for r in results if not r.passed)
            lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
            text, code = "\n".join(lines) + "\n", int(n_fail > 0)
        _write_out(text, spec.out)
        return code
    except Exception as exc:  # the one error boundary: no traceback escapes
        print(f"cbara-error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
