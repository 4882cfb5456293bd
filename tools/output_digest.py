#!/usr/bin/env python3
"""SHA-256 digests of the bytes a fixed list of `cbara` commands writes.

Runs each command through cli.main, with CBARA_SEED unset and the
output sent to a file in a temporary directory, and prints one
`command,sha256` row per command, then a closing line that describes
the machine. The commands:

  table1 --raw on perfbench/table_grid.cfg at --parallelism 1 and 2;
  run --raw (logistic family, balance allocation, n 200, 9 reps) at
    --parallelism 1 and 2, and at --reps 1;
  trace --raw on the same config;
  oracle --raw for each family x scenario {A, B, DiscreteTest} at
    oracle_m = 20000, one chunk of the oracle's passes;
  oracle --raw (logistic family, scenario B) at oracle_m = 400001, two
    full chunks and a one-unit one.

A command's config, when it is not perfbench/table_grid.cfg, is named
in its row by the keys it sets. Two checkouts that print the same rows
write the same bytes for these commands. It takes a few seconds.

Run from the repo root:

    PYTHONPATH=src python tools/output_digest.py
"""
from __future__ import annotations

import hashlib
import os
import pathlib
import tempfile

from cbara import cli
from machine import machine_line

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE_GRID = "perfbench/table_grid.cfg"
RUN_CONFIG = "family = logistic\nmechanism = balance\nn = 200\nreps = 9\n"


def commands() -> list[tuple[str, list[str]]]:
    """(config text or a path under the repo root, arguments) per command."""
    out = [(TABLE_GRID, ["table1", "--raw", "--parallelism", p]) for p in ("1", "2")]
    out += [(RUN_CONFIG, ["run", "--raw", "--parallelism", p]) for p in ("1", "2")]
    out += [(RUN_CONFIG, ["run", "--raw", "--reps", "1"]), (RUN_CONFIG, ["trace", "--raw"])]
    out += [
        (f"family = {family}\nscenario = {scenario}\noracle_m = 20000\n", ["oracle", "--raw"])
        for family in ("crd", "logistic", "probit")
        for scenario in ("A", "B", "DiscreteTest")
    ]
    out.append(("family = logistic\nscenario = B\noracle_m = 400001\n", ["oracle", "--raw"]))
    return out


def main() -> None:
    os.environ.pop("CBARA_SEED", None)
    print("command,sha256")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        for config, args in commands():
            if config == TABLE_GRID:
                config_path, name = str(ROOT / TABLE_GRID), TABLE_GRID
            else:
                config_path = os.path.join(tmp, "config")
                with open(config_path, "w", encoding="utf-8") as fh:
                    fh.write(config)
                name = "[" + "; ".join(config.splitlines()) + "]"
            code = cli.main([*args, "--config", config_path, "--out", out_path])
            if code != 0:
                raise SystemExit(f"output_digest: {' '.join(args)} exited with {code}")
            with open(out_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{' '.join(args)} --config {name},{digest}")
    print(machine_line())


if __name__ == "__main__":
    main()
