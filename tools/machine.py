"""The closing line of every tool under tools/: the machine it ran on.

    # machine: <cpu model> (<arch>), <n> cpus, python <v>, numpy <v>

followed by `, <name> <version>` for each further package a tool names.
"""
from __future__ import annotations

import os
import platform

import numpy as np


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def machine_line(**versions: str) -> str:
    versions = {"python": platform.python_version(), "numpy": np.__version__, **versions}
    named = ", ".join(f"{name} {version}" for name, version in versions.items())
    return f"# machine: {cpu_model()} ({platform.machine()}), {os.cpu_count()} cpus, {named}"
