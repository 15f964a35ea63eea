"""The environment block printed with every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys


def _git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        build = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        build = "unknown"
    return {
        "build": build,
        "threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def environment(root: str) -> dict:
    import numpy as np

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(root),
    }
