#!/usr/bin/env python3
"""cbara benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload adaptive-replicate --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): adaptive-replicate, oracle-report and
table-grid, which BENCHMARK.json gates, and frozen-chain, which it does
not: that workload's medians drifted by up to a third between sets of
runs on a 2-core shared host, more than a bound may allow, so it is
run by hand. The process is fresh, so ``setup_s``
covers importing cbara and building the workload's configs. After a
warm-up, the parts of the workload's fixed work run round-robin for
``--seconds``; ``wall_s`` is the sum over parts of the median part time,
and ``peak_rss_mb`` is this process's peak RSS. Between parts, fresh
child processes repeat the set-up, spread evenly through the timed
phase, and ``setup_s`` is the median over them and this process.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
same untraced phase, then the fixed work a set number of times with the
tracer installed, and reports the per-layer metrics, including the
tracing overhead against the untraced phase. ``--smoke`` runs every
workload at its smallest size, once.

Every output is checked. Standard output lists the metrics by name
with their units, including metrics that apply only to some workloads
(such as steps_per_s, or engine.step_records on frozen-chain), and ends
with one JSON line (correct, attempted, failed, metrics) whose metrics
are the ones BENCHMARK.json names for the mode; the exit status is 1
when a check failed. The
benchmark refuses to run (status 2, no result) unless ``src/cbara``
sits next to its directory. Full results, the machine description and
the traced spans go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("adaptive-replicate", "frozen-chain", "oracle-report", "table-grid")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 11
REFERENCE_REL_TOL = 1e-12


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest size, one pass")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's outputs as the reference for its seed")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 bits")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def build(name: str, seed: int, smoke: bool):
    """Import cbara from this checkout and build the workload: set-up."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import cbara
    import workloads

    wl = workloads.WORKLOADS[name](seed, smoke)
    elapsed = perf_counter() - t0
    if not Path(cbara.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: cbara imported from {cbara.__file__}, not {SRC}")
    return wl, elapsed


def setup_probe(args) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed)]
        + (["--smoke"] if args.smoke else []),
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def timed_phase(wl, seconds: int, smoke: bool, probe, n_probes: int) -> dict:
    """Run the parts round-robin for ``seconds`` of work (one pass when
    smoke), at least once each; check every output. Between parts,
    ``probe`` runs ``n_probes`` times spread evenly through the phase;
    its time does not count as work."""
    n_parts = len(wl.parts)
    times: list[list[float]] = [[] for _ in range(n_parts)]
    first: dict[int, list] = {}
    problems: list[str] = []
    probes: list[float] = []
    attempted = failed = 0
    t_start = perf_counter()
    probe_s = 0.0
    i = 0
    while True:
        k = i % n_parts
        attempted += wl.ops_per_part[k]
        t0 = perf_counter()
        try:
            out = wl.run(k)
        except Exception as exc:  # counted as failed operations, reported below
            failed += wl.ops_per_part[k]
            problems.append(f"part {k} raised {type(exc).__name__}: {exc}")
        else:
            times[k].append(perf_counter() - t0)
            problems += wl.check(k, out)
            rec = wl.record(k, out)
            if k not in first:
                first[k] = rec
            elif rec != first[k]:
                problems.append(f"part {k}: output changed between repeats")
        i += 1
        worked = perf_counter() - t_start - probe_s
        done = i >= n_parts and (smoke or worked >= seconds)
        due = n_probes if done else min(n_probes, int(worked * n_probes / seconds))
        while len(probes) < due:
            t0 = perf_counter()
            probes.append(probe())
            probe_s += perf_counter() - t0
        if done:
            break
    return {"times": times, "first": first, "problems": problems,
            "attempted": attempted, "failed": failed, "setup_probes_s": probes,
            "elapsed_s": perf_counter() - t_start - probe_s}


def check_reference(args, wl, first: dict) -> tuple[list[str], str]:
    """Compare the outputs at the default seed with reference.json."""
    import workloads

    if args.smoke or args.seed != workloads.DEFAULT_SEED:
        return [], "not applicable (reference is for the default seed at full size)"
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    got = [first.get(k) for k in range(len(wl.parts))]
    if args.record_reference:
        refs[wl.name] = {"seed": args.seed, "parts": got}
        REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
        return [], "recorded"
    if wl.name not in refs:
        return [f"no reference recorded for {wl.name}"], "missing"
    ref = refs[wl.name]["parts"]
    if not workloads.compare(ref, got, 0.0):
        return [], "bit-exact"
    diffs = workloads.compare(ref, got, REFERENCE_REL_TOL)
    if diffs:
        return [f"reference mismatch: {d}" for d in diffs[:10]], "mismatch"
    return [], f"within {REFERENCE_REL_TOL} relative ({wl.tolerance_reason})"


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, cwd=ROOT)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cbara").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def end_to_end(wl, setup_samples, phase, rss_self, rss_children) -> dict:
    """Untraced metrics as {name: (value, unit, note)}; the first three
    are the benchmark's end-to-end metrics, the rest are printed only."""
    from tracer import quantile  # imports numpy, so not before set-up

    times = phase["times"]
    all_times = [t for ts in times for t in ts]
    if all(times):
        wall = sum(statistics.median(ts) for ts in times)
    else:
        wall = phase["elapsed_s"]
    steps = sum(s * len(ts) for s, ts in zip(wl.steps_per_part, times))
    ops = sum(o * len(ts) for o, ts in zip(wl.ops_per_part, times))
    op_ms = [t * 1e3 / o for ts, o in zip(times, wl.ops_per_part) for t in ts]
    m = {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "wall_s": (wall, "s",
                   f"fixed work, sum over {len(times)} part(s) of the median part time"),
        "peak_rss_mb": (rss_self, "MB", "this process"),
    }
    if steps:
        m["steps_per_s"] = (steps / sum(all_times), "1/s", f"{steps} allocation steps")
    m["op_ms_p50"] = (quantile(op_ms, 50), "ms",
                      f"per {wl.op_name}: {ops} in {len(op_ms)} timed calls, each call's time "
                      "divided by its operations")
    if len(op_ms) >= 100:
        m["op_ms_p90"] = (quantile(op_ms, 90), "ms", f"{len(op_ms)} calls")
    m["ops_failed_frac"] = (phase["failed"] / phase["attempted"], "frac",
                            f"{phase['failed']} of {phase['attempted']} operations raised")
    if wl.name == "table-grid":
        m["children_peak_rss_mb"] = (rss_children, "MB", "largest pool worker, warm-up")
    return m


def traced_phase(wl, wall_s: float):
    import tracer as tracing

    tr = tracing.Tracer()
    problems: list[str] = []
    tr.install()
    t0 = perf_counter()
    try:
        for _ in range(wl.traced_iterations):
            for k in range(len(wl.parts)):
                problems += wl.check(k, wl.run(k))
    finally:
        tr.restore()
    traced = (perf_counter() - t0) / wl.traced_iterations
    metrics = tracing.layer_metrics(tr, traced / wall_s - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}.npz"
    tr.dump(str(spans_path))
    return metrics, problems, {"traced_fixed_work_s": traced,
                               "iterations": wl.traced_iterations,
                               "spans": len(tr.start),
                               "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cbara" / "__init__.py").is_file():
        print(f"perfbench: no cbara source tree at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.pop("CBARA_SEED", None)  # the CLI would let it override --seed
    if args.probe_setup:
        _, elapsed = build(args.workload, args.seed, args.smoke)
        print(repr(elapsed))
        return 0

    load_start = os.getloadavg()
    wl, setup_first = build(args.workload, args.seed, args.smoke)
    wl.warm_up()
    # Read before any set-up probe is reaped: only pool workers so far.
    rss_children = peak_rss_mb(resource.RUSAGE_CHILDREN)
    n_probes = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES - 1
    phase = timed_phase(wl, args.seconds, args.smoke, lambda: setup_probe(args), n_probes)
    problems = list(phase["problems"])
    ref_problems, ref_status = check_reference(args, wl, phase["first"])
    problems += ref_problems
    rss_self = peak_rss_mb(resource.RUSAGE_SELF)

    traced_info = None
    setup_samples = [setup_first, *phase["setup_probes_s"]]
    e2e = end_to_end(wl, setup_samples, phase, rss_self, rss_children)
    if args.trace:
        layer, traced_problems, traced_info = traced_phase(wl, e2e["wall_s"][0])
        problems += traced_problems
        metrics = layer
    else:
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    gated = {m["name"] for m in BENCH["per_layer" if args.trace else "end_to_end"]}
    correct = not problems and phase["failed"] == 0

    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": {**machine_info(), "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
        "setup_samples_s": setup_samples,
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
        "per_layer": ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
                      if args.trace else None),
        "traced": traced_info,
        "part_times_s": phase["times"],
        "reference": ref_status,
        "problems": problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    for key, value in result["machine"].items():
        print(f"# {key}: {value}")
    print(f"# reference: {ref_status}")
    for text in problems:
        print(f"# CHECK FAILED: {text}")
    for name, (value, unit, note) in e2e.items():
        print(f"{name} = {value!r} {unit}  ({note})")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in gated},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
