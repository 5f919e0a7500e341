"""Machine and library record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

# The OpenBLAS builds numpy and scipy ship with, and the symbols that report
# their runtime configuration and thread count.
_BLAS_LIBS = (
    ("numpy", "scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_runtime(pkg, config_sym, threads_sym):
    """(config string, thread count) of the OpenBLAS loaded by `pkg`, read
    from the library itself; (None, None) when it is not a bundled OpenBLAS."""
    mod = sys.modules.get(pkg)
    if mod is None:
        return None, None
    libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), f"{pkg}.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        if not (hasattr(lib, config_sym) and hasattr(lib, threads_sym)):
            continue
        get_config = getattr(lib, config_sym)
        get_config.restype = ctypes.c_char_p
        get_config.argtypes = []
        get_threads = getattr(lib, threads_sym)
        get_threads.restype = ctypes.c_int
        get_threads.argtypes = []
        return get_config().decode(), int(get_threads())
    return None, None


def git_commit(root):
    """HEAD of the checkout at `root`, read from .git without running git;
    "unknown" outside a git working tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def record(root, blas_threads, workload, seed, instance_seed):
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": blas_threads,
        "git_commit": git_commit(root),
        "workload": workload,
        "seed": seed,
        "instance_seed": instance_seed,
    }
    for pkg, config_sym, threads_sym in _BLAS_LIBS:
        build = sys.modules[pkg].show_config(mode="dicts")["Build Dependencies"]["blas"]
        config, threads = _blas_runtime(pkg, config_sym, threads_sym)
        env[f"{pkg}_blas"] = f"{build.get('name')} {build.get('version')}"
        env[f"{pkg}_blas_runtime"] = config
        env[f"{pkg}_blas_threads"] = threads
    return env
