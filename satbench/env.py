"""Process environment for benchmark runs: BLAS pinning, import path, record.

Import this module, and call :func:`prepare`, before anything imports numpy:
OpenBLAS reads its thread count once, when it is loaded.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The satkit sources are not next to the benchmark."""


def prepare() -> None:
    """Pin BLAS to one thread and put ``src/`` first on the import path."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (SRC / "satkit" / "__init__.py").is_file():
        raise MissingProgram(f"no satkit package under {SRC}")
    sys.path.insert(0, str(SRC))


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned setting if it cannot be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(seed: int) -> dict:
    """What a result depends on besides the code: backend, libraries, machine, seed."""
    import numpy as np
    import satkit

    return {
        "lattice_backend": satkit.LATTICE_BACKEND,
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }
