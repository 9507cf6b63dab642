"""Environment fingerprint recorded with every result.

The calibration is a fixed piece of work shaped like the program's own
(small matrix products plus Python-level loops), timed before and after a
run, so a host that slowed down during a run shows in the result.
"""

import ctypes
import os
import platform
import statistics
import subprocess
import time

import numpy as np


def blas_info():
    """BLAS name and version as numpy reports them, and its thread count."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (TypeError, KeyError, ValueError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Ask the OpenBLAS library numpy loaded; None when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state(root):
    """(commit, dirty) of the checkout at root; (None, None) outside git.

    Only a .git directly in root is consulted, so git never searches the
    directories above the checkout."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None, None
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"), GIT_WORK_TREE=root)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=20)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None, None
    if commit.returncode != 0 or status.returncode != 0:
        return None, None
    return commit.stdout.strip(), bool(status.stdout.strip())


def calibrate(repeats=5):
    """Median seconds of a fixed work unit; same work on every host."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 128))
    w = rng.standard_normal((256, 128))
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(300):
            z = a @ w.T
            g = np.tanh(z[:, :128]) * (1.0 / (1.0 + np.exp(-z[:, 128:])))
            acc += float(g[0, 0])
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])    # the first warms up


def snapshot():
    """Load average and calibration time at one moment."""
    return {"loadavg": list(os.getloadavg()), "calibration_s": calibrate()}


def fingerprint(root):
    commit, dirty = git_state(root)
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": affinity,
        "git_commit": commit,
        "git_dirty": dirty,
    }
