"""The stamp printed with every result: CPUs, versions, BLAS build and
thread settings, and the commit the numbers belong to.

threadpoolctl is not a dependency, so the BLAS thread count is asked of the
OpenBLAS library numpy loaded, through its own exported functions.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _openblas() -> dict:
    """Thread count and config string of the OpenBLAS that numpy wheels
    bundle in ``numpy.libs`` (symbols ``scipy_openblas_*64_``).  Returns an
    empty dict when numpy links some other BLAS."""
    import numpy as np

    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(np.__file__) + ".libs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if threads is None or config is None:
            continue
        threads.argtypes, threads.restype = [], ctypes.c_int
        config.argtypes, config.restype = [], ctypes.c_char_p
        return {"library": os.path.basename(path), "threads": threads(),
                "config": config().decode().strip()}
    return {}


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": {k: blas.get(k) for k in
                       ("name", "version", "openblas configuration")},
        "blas_runtime": _openblas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(root),
    }
