import itertools
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cbara.acceptance import CriterionResult
from cbara.cli import (
    RunSpec,
    emit_tables,
    grid_plans,
    main,
    parse_config,
    render_config,
    to_trial_config,
    update_mechanism_for,
)
from cbara.adapt import MechanismKind
from cbara.datagen import Scenario, ScenarioId
from cbara.engine import Allocation
from cbara.estimator import Weighting
from cbara.harness import MetricsSummary, split_seed
from cbara.policy import Family, TargetPolicy


def test_empty_config_is_all_defaults():
    assert parse_config("") == RunSpec()


def test_round_trip_default_and_custom():
    for spec in (
        RunSpec(),
        RunSpec(
            n=500,
            scenario=ScenarioId.B,
            noise_sd=1.0,
            family=Family.PROBIT,
            mechanism=Allocation.BALANCE,
            update="iru",
            clip_c0=2.5,
            clip_exponent=0.75,
            weighting=Weighting.WEIGHTED,
            burn_in=30,
            response_delay=5,
            reps=12,
            seed=314,
            parallelism=2,
            out="grid.csv",
            format="tsv",
            oracle_m=5000,
            sizes=(100, 400, 1600),
            scenarios=(ScenarioId.DISCRETE,),
            families=(Family.LOGISTIC,),
            weightings=(Weighting.WEIGHTED,),
        ),
    ):
        assert parse_config(render_config(spec)) == spec


def test_comments_and_blank_lines_ignored():
    text = """
# full-line comment
n = 300   # trailing comment
scenario = B
"""
    spec = parse_config(text)
    assert spec.n == 300
    assert spec.scenario is ScenarioId.B


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1.*unknown key"):
        parse_config("horizon = 10")
    with pytest.raises(ValueError, match="line 2.*duplicate"):
        parse_config("n = 10\nn = 20")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("n ten")
    with pytest.raises(ValueError, match="family"):
        parse_config("family = cauchy")


def test_asymmetric_clamp_rejected(tmp_path, capsys):
    # the upper clamp follows from the lower one and cannot be set
    assert to_trial_config(parse_config("clamp_lo = 0.3")).policy.clamp_hi == 0.7
    cfg = tmp_path / "clamp.cfg"
    cfg.write_text("clamp_lo = 0.3\nclamp_hi = 0.7\n")
    assert main(["run", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cbara-error: line 2: unknown key 'clamp_hi'\n"


def test_update_pairing_follows_allocation():
    balance = RunSpec(mechanism=Allocation.BALANCE)
    direct = RunSpec(mechanism=Allocation.DIRECT)
    assert update_mechanism_for(balance).kind is MechanismKind.CLIPPED
    assert update_mechanism_for(direct).kind is MechanismKind.DIRECT
    assert update_mechanism_for(replace(direct, update="iru")).kind is MechanismKind.IRU
    assert update_mechanism_for(replace(balance, update="iru")).kind is MechanismKind.IRU


def test_trial_config_override_fields():
    spec = parse_config("n = 90\nnoise_sd = 0.5\nscenario = B")
    cfg = to_trial_config(replace(spec, mechanism=Allocation.BALANCE, n=120))
    assert cfg.n_units == 120
    assert cfg.scenario.outcome_noise_sd == 0.5
    assert cfg.scenario.id is ScenarioId.B
    assert cfg.allocation is Allocation.BALANCE


def test_grid_plans_order_and_seeding():
    spec = RunSpec(
        sizes=(200, 800),
        scenarios=(ScenarioId.A,),
        families=(Family.CRD, Family.LOGISTIC),
        weightings=(Weighting.WEIGHTED,),
        reps=3,
        seed=55,
    )
    plans = grid_plans(spec)
    assert len(plans) == 2 * 1 * 2 * 1 * 2
    # size varies slowest, the direct/balance pair fastest
    assert [p.base_config.n_units for p in plans] == [200] * 4 + [800] * 4
    assert [p.base_config.allocation.value for p in plans] == ["direct", "balance"] * 4
    assert [p.base_seed for p in plans] == [split_seed(55, i) for i in range(8)]
    assert all(p.n_reps == 3 for p in plans)


def _fake_summary(v: float, se=0.01) -> MetricsSummary:
    return MetricsSummary(
        n_reps=4,
        mean_lambda_norm=v,
        mean_psi_abs=v + 1,
        mean_response=6.0,
        mean_target_sd=-0.0001,  # rounds to negative zero before normalization
        ipw_bias=-0.0001,
        ipw_mse=v / 10,
        max_clip_excess=0.0,
        mean_lambda_norm_se=se,
        mean_psi_abs_se=se,
        mean_response_se=se,
        mean_target_sd_se=None,
        ipw_bias_se=se,
        ipw_mse_se=se,
    )


def _pair(size=200):
    """The direct and balance plans of one grid cell, and fake summaries."""
    spec = RunSpec(
        sizes=(size,),
        scenarios=(ScenarioId.A,),
        families=(Family.CRD,),
        weightings=(Weighting.UNWEIGHTED,),
        reps=2,
    )
    return grid_plans(spec), [_fake_summary(37.0), _fake_summary(8.0)]


def test_emit_tables_golden_row():
    # the row's labels come from the plans' configs
    text = emit_tables(*_pair(), fmt="csv")
    lines = text.splitlines()
    assert lines[0].startswith("Size,Model,Procedure,Estimation,Response_D,Response_B,")
    assert lines[0].count(",") == 23
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[:4] == ["200", "A", "CRD", "Unweighted"]
    assert cells[4] == "6.000" and cells[6] == "37.000" and cells[7] == "8.000"
    assert "NA" in cells  # absent standard error renders as NA
    assert text.endswith("\n")
    assert "-0.000" not in text  # negative zero is normalized


def test_emit_tables_tsv_and_raw():
    text = emit_tables(*_pair(), fmt="tsv", raw=True)
    assert "\t" in text and "," not in text.splitlines()[0]
    assert "37.0" in text


def _with_balance(plans, **cfg_kw):
    """The direct plan of a pair and its balance plan with cfg_kw set."""
    direct, balance = plans
    return [direct, replace(balance, base_config=replace(balance.base_config, **cfg_kw))]


def test_emit_tables_requires_complete_pairs():
    plans, summaries = _pair()
    for bad_plans, bad_summaries in [
        ([], []),
        (plans[:1], summaries[:1]),
        (plans, summaries[:1]),
        (plans[::-1], summaries),
        (plans + plans[:1], summaries + summaries[:1]),
        (_with_balance(plans, n_units=300), summaries),
        (_with_balance(plans, scenario=Scenario(ScenarioId.B)), summaries),
        (_with_balance(plans, policy=TargetPolicy(family=Family.PROBIT)), summaries),
        (_with_balance(plans, weighting=Weighting.WEIGHTED), summaries),
    ]:
        with pytest.raises(ValueError, match=r"line up as \(direct, balance\) pairs of one cell"):
            emit_tables(bad_plans, bad_summaries)
    # any format but csv and tsv is refused, as --format refuses it
    with pytest.raises(ValueError, match="format must be one of \\['csv', 'tsv'\\], got 'xml'"):
        emit_tables(plans, summaries, fmt="xml")


def _run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("CBARA_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cbara", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


CFG_SMALL = "n = 60\nreps = 4\nseed = 9\n"


def test_cli_run_outputs_metric_rows(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_SMALL)
    proc = _run_cli(["run", "--config", str(cfg)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Metric,Value,SE"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["Response", "Lambda", "Psi", "TargetSD", "MSE_W", "Bias"]
    rerun = _run_cli(["run", "--config", str(cfg)])
    assert rerun.stdout == proc.stdout


def test_cli_seed_sources(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_SMALL)
    base = _run_cli(["run", "--config", str(cfg)])
    flagged = _run_cli(["run", "--config", str(cfg), "--seed", "10"])
    assert flagged.stdout != base.stdout
    env_run = _run_cli(
        ["run", "--config", str(cfg), "--seed", "10"], env_extra={"CBARA_SEED": "9"}
    )
    # the environment beats the flag, restoring the config-seed output
    assert env_run.stdout == base.stdout
    bad = _run_cli(["run", "--config", str(cfg)], env_extra={"CBARA_SEED": "x"})
    assert bad.returncode == 2
    assert bad.stderr.startswith("cbara-error:")


def _check_seeds(monkeypatch, argv_list):
    """The seed keyword `cbara check` hands run_acceptance per argv;
    None when it passes none and the pinned seed stays."""
    seen = []

    def fake_run_acceptance(parallelism=1, **kwargs):
        seen.append(kwargs.get("seed"))
        return [CriterionResult("criterion-01-imbalance-table", True, "ok")]

    monkeypatch.setattr("cbara.acceptance.run_acceptance", fake_run_acceptance)
    for argv in argv_list:
        assert main(["check", *argv]) == 0
    return seen


def test_check_passes_the_flag_and_config_seed(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("CBARA_SEED", raising=False)
    seeded, unseeded = tmp_path / "seeded.cfg", tmp_path / "unseeded.cfg"
    seeded.write_text("seed = 0\n")
    unseeded.write_text("reps = 3\n")
    seen = _check_seeds(monkeypatch, [
        [],
        ["--seed", "5"],
        ["--config", str(seeded)],
        ["--config", str(unseeded)],
        ["--config", str(seeded), "--seed", "6"],
    ])
    assert seen == [None, 5, 0, None, 6]
    assert capsys.readouterr().out.endswith("1/1 criteria passed\n")


def test_check_passes_the_environment_seed(monkeypatch, capsys):
    monkeypatch.setenv("CBARA_SEED", "7")
    assert _check_seeds(monkeypatch, [[], ["--seed", "5"]]) == [7, 7]


def test_run_and_table_hand_their_worker_count_to_the_call(monkeypatch, tmp_path, capsys):
    # the config's width, or the flag's over it, goes to the harness call
    widths = []

    def run_replications(plan, parallelism):
        widths.append(("run", parallelism))
        return _fake_summary(1.0)

    def aggregate_grid(plans, parallelism):
        widths.append(("table1", parallelism))
        return [_fake_summary(1.0)] * len(plans)

    monkeypatch.setattr("cbara.cli.run_replications", run_replications)
    monkeypatch.setattr("cbara.cli.aggregate_grid", aggregate_grid)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("parallelism = 3\n")
    for command in ("run", "table1"):
        assert main([command, "--config", str(cfg)]) == 0
        assert main([command, "--config", str(cfg), "--parallelism", "5"]) == 0
    capsys.readouterr()
    assert widths == [("run", 3), ("run", 5), ("table1", 3), ("table1", 5)]


def test_cli_table_grid(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "n = 60\nreps = 3\nsizes = 60\nscenarios = A\nfamilies = crd\n"
        "weightings = unweighted\nseed = 3\n"
    )
    out = tmp_path / "grid.csv"
    proc = _run_cli(["table1", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:4] == ["60", "A", "CRD", "Unweighted"]
    tsv = _run_cli(["table2", "--config", str(cfg), "--format", "tsv"])
    assert tsv.returncode == 0
    assert "\t" in tsv.stdout


def test_cli_table_rows_follow_the_grid_order(tmp_path, capsys):
    # 2 sizes x 2 scenarios x 2 families x 2 weightings: 16 rows, one per
    # direct/balance pair, size varying slowest and weighting fastest
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "reps = 2\nsizes = 40, 60\nscenarios = A, B\nfamilies = crd, probit\n"
        "weightings = weighted, unweighted\n"
    )
    assert main(["table1", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = itertools.product(["40", "60"], ["A", "B"], ["CRD", "Probit"],
                                 ["Weighted", "Unweighted"])
    assert [line.split(",")[:4] for line in lines[1:]] == [list(cell) for cell in expected]


def test_cli_trace_rows(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("n = 40\nseed = 2\nmechanism = balance\nfamily = logistic\n")
    proc = _run_cli(["trace", "--config", str(cfg)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split(",")[:6] == ["Step", "X1", "X2", "X3", "Rho", "G"]
    assert len(lines) == 41
    assert lines[1].split(",")[0] == "1"


def test_cli_oracle_rows(tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text("oracle_m = 20000\nseed = 4\nfamily = logistic\n")
    proc = _run_cli(["oracle", "--config", str(cfg)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Scenario,Family,Z,Quantity,Value"
    quantities = {ln.split(",")[3] for ln in lines[1:]}
    assert "theta_star.alpha1" in quantities
    assert "sigma_z_sq" in quantities
    assert "ipw_var" in quantities
    for ln in lines[1:]:
        float(ln.split(",")[4])  # every value parses


def test_cli_oracle_discrete_scenario(tmp_path):
    # the criterion Gram's x2/x3 rows are zero there; they are dropped
    cfg = tmp_path / "o.cfg"
    cfg.write_text("scenario = DiscreteTest\nnoise_sd = 1\noracle_m = 20000\nfamily = logistic\n")
    proc = _run_cli(["oracle", "--config", str(cfg), "--raw"])
    assert proc.returncode == 0, proc.stderr
    cov = {}
    for ln in proc.stdout.splitlines()[1:]:
        quantity, value = ln.split(",")[3:]
        if quantity.startswith("mest_cov."):
            i, j = (int(v) - 1 for v in quantity.split(".")[1:])
            cov[i, j] = cov[j, i] = float(value)
    sig = np.array([[cov[i, j] for j in range(6)] for i in range(6)])
    assert (sig[4:] == 0.0).all()
    assert np.linalg.eigvalsh(sig)[0] >= -1e-12 * np.abs(sig).max()


def test_cli_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    proc = _run_cli(["run", "--config", str(cfg)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("cbara-error:")
    assert "nonsense" in proc.stderr


@pytest.mark.parametrize("line, message", [
    ("sizes = 60, 80, 60", "sizes repeats 60"),
    ("scenarios = A, B, A", "scenarios repeats A"),
    ("families = crd, crd", "families repeats crd"),
    ("weightings = weighted, unweighted, unweighted", "weightings repeats unweighted"),
])
def test_repeated_grid_value_is_rejected_before_any_trial(monkeypatch, tmp_path, capsys,
                                                          line, message):
    def no_trials(plans):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("cbara.cli.aggregate_grid", no_trials)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"reps = 2\n{line}\n")
    assert main(["table1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cbara-error: {message}")
    assert err.count("\n") == 1


def test_a_huge_c_lambda_runs_without_warnings(tmp_path):
    # the lockstep norm guard overflows to inf at c_lambda = 1e308, which
    # gives the rule's limit rho, as c_lambda = 1e300 does on these units
    out = {}
    for c_lambda in ("1e308", "1e300"):
        cfg = tmp_path / f"{c_lambda}.cfg"
        cfg.write_text(f"c_lambda = {c_lambda}\nmechanism = balance\nn = 60\nreps = 2\n")
        proc = _run_cli(["run", "--config", str(cfg)], env_extra={"PYTHONWARNINGS": "error"})
        assert (proc.returncode, proc.stderr) == (0, "")
        out[c_lambda] = proc.stdout
    assert out["1e308"] == out["1e300"]


@pytest.mark.parametrize("line, message", [
    ("c_lambda = inf", "c_lambda must be finite"),
    ("clip_c0 = inf", "clip_c0 must be finite"),
])
def test_cli_rejects_a_nonfinite_knob(tmp_path, line, message):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"reps = 2\nsizes = 60\nfamilies = crd\n{line}\n")
    proc = _run_cli(["table1", "--config", str(cfg)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"cbara-error: {message}")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "table1", "oracle", "trace"])
def test_infinite_noise_is_rejected_before_any_trial(monkeypatch, tmp_path, capsys, command):
    def no_work(*_):
        raise AssertionError("work started")

    for name in ("run_replications", "aggregate_grid", "run_trial", "PopulationSample"):
        monkeypatch.setattr(f"cbara.cli.{name}", no_work)
    cfg = tmp_path / "noise.cfg"
    # a finite sd so large that squared responses overflow is refused
    # like an infinite one, whatever the replication count
    for text, message in [
        ("reps = 2\nnoise_sd = inf\n", "outcome noise sd must be finite and >= 0, got inf"),
        ("n = 60\nreps = 1\nnoise_sd = 1e200\n", "outcome_noise_sd must be <= 1e+06, got 1e+200"),
        ("n = 60\nreps = 4\nnoise_sd = 1e200\n", "outcome_noise_sd must be <= 1e+06, got 1e+200"),
    ]:
        cfg.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg)]) == 2
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cbara-error: {message}\n"


def test_main_returns_exit_code(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("reps = 0\n")
    # a bad config value, bad flags and a missing subcommand alike
    for argv in (
        ["run", "--config", str(cfg)],
        ["run", "--reps", "x"],
        ["run", "--format", "xml"],
        [],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("cbara-error:") and err.count("\n") == 1, (argv, err)
    with pytest.raises(SystemExit) as help_exit:
        main(["run", "--help"])
    assert help_exit.value.code == 0


def test_run_failure_is_one_error_line(monkeypatch, capsys):
    def failing(*_, **__):
        raise ArithmeticError("injected trial failure")

    def out_of_memory(*_, **__):
        raise MemoryError("injected allocation failure")

    # the two replications run as one lockstep shard, which is rerun
    # trial by trial to name the failing seed
    monkeypatch.setattr("cbara.harness.run_lockstep", failing)
    monkeypatch.setattr("cbara.harness.run_trial", failing)
    monkeypatch.setattr("cbara.cli.PopulationSample", out_of_memory)
    for argv, message in (
        (["run", "--reps", "2"], "injected trial failure"),
        (["oracle"], "injected allocation failure"),
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cbara-error:") and err.count("\n") == 1, err
        assert message in err
        assert "Traceback" not in err
