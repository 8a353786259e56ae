"""What a benchmark run ran on: interpreter, numpy, BLAS and its thread
count, CPU count and model, and the source commit when there is one."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Run BLAS single-threaded; must run before numpy is imported.

    The engine's products are small (at most 544 x 128 outputs), so on a
    2-core Xeon a second BLAS thread saved no wall time (lora-k4: 5.8 s
    with two threads, 6.1 s with one, within noise) but doubled CPU time,
    and its spin-waits made an operation up to four times slower whenever
    another process wanted the same cores.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _loaded_blas_path() -> str | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            for line in f:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "blas" in name or "mkl_rt" in name:
                    return path
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads the loaded BLAS library reports, when it can be asked."""
    path = _loaded_blas_path()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for sym in _THREAD_QUERIES:
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; "none" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def collect(root: Path) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "commit": git_commit(root),
    }
