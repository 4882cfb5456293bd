"""The tools under tools/ still run against the package: each exits 0
and prints its CSV header, its rows and a closing machine line."""
import json

from conftest import ROOT, run_python


def _assert_tool_runs(tool, args, header):
    proc = run_python([str(ROOT / "tools" / tool), *args])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 2
    assert lines[-1].startswith("# machine: ")
    return lines


def test_lockstep_cost_runs(tmp_path):
    # one grid cell: a direct and a balance plan of two 40-unit trials
    cfg = tmp_path / "one_cell.cfg"
    cfg.write_text("sizes = 40\nscenarios = A\nfamilies = crd\nweightings = weighted\nreps = 2\n")
    out = tmp_path / "lockstep.json"
    lines = _assert_tool_runs(
        "lockstep_cost.py", ["--repeats", "1", "--config", str(cfg), "--json", str(out)],
        "batch,rows,n_units,us_per_trial_step",
    )
    # the JSON holds the printed rows: two plans, one batch of both, then
    # the adaptive-replicate shape in lockstep and its first trial alone
    written = json.loads(out.read_text())
    assert written["machine"] == lines[-1]
    assert [row["batch"] for row in written["batches"]] == ["grid 1/1"]
    assert [row["batch"] for row in written["shapes"]] == [
        "adaptive-replicate", "adaptive-replicate run_trial",
    ]
    rows = written["plans"] + written["batches"] + written["shapes"]
    assert [
        f"{r['batch']},{r['rows']},{r['n_units']},{r['us_per_trial_step']:.2f}" for r in rows
    ] == lines[1:-1]
    assert [r["rows"] for r in rows] == [2, 2, 4, 10, 1]
    assert [r["n_units"] for r in written["shapes"]] == [800, 800]
    assert all(r["us_per_trial_step"] > 0 for r in rows)


def test_oracle_cost_runs(tmp_path):
    out = tmp_path / "oracle.json"
    lines = _assert_tool_runs(
        "oracle_cost.py", ["--m", "2000", "--repeats", "1", "--json", str(out)],
        "call,m,seconds,peak_mb",
    )
    # the JSON holds the printed rows, each call with its traced peak,
    # and the report process's peak RSS
    written = json.loads(out.read_text())
    assert written["machine"] == lines[-1]
    assert lines[-2] == f"# rss_mb: {written['rss_mb']:.2f}"
    assert written["rss_mb"] > 0
    rows = written["calls"]
    assert [
        f"{r['call']},{r['m']},{r['seconds']:.4f},{r['peak_mb']:.2f}" for r in rows
    ] == lines[1:-2]
    assert rows[1]["call"] == "asymptotic_report"
    assert all(r["m"] == 2000 and r["peak_mb"] > 0 for r in rows)


def test_output_digest_runs():
    lines = _assert_tool_runs("output_digest.py", [], "command,sha256")
    digests = dict(line.rsplit(",", 1) for line in lines[1:-1])
    # 2 table1, 3 run, 1 trace and 10 oracle commands
    assert len(digests) == 16
    grid = "--config perfbench/table_grid.cfg"
    run = "--config [family = logistic; mechanism = balance; n = 200; reps = 9]"
    # the bytes do not depend on the worker count
    for prefix, config in [("table1 --raw", grid), ("run --raw", run)]:
        one, two = (digests[f"{prefix} --parallelism {p} {config}"] for p in (1, 2))
        assert one == two


def test_startup_cost_runs():
    lines = _assert_tool_runs("startup_cost.py", ["--repeats", "1"], "phase,seconds")
    assert [line.split(",")[0] for line in lines[1:-1]] == [
        "import_numpy", "import_cbara", "first_draw_A_256", "second_draw_A_256",
        "cli_error_exit",
    ]
