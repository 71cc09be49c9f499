"""Process set-up shared by every benchmark entry point.

The BLAS thread count is pinned before numpy is first imported: with the
OpenBLAS default of one thread per core, the null-space SVDs of the search
set-up vary several-fold between runs on a 2-core machine, and multi-threaded
reductions can change the floating-point path of Gauss-Newton.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"


class MissingProgramError(RuntimeError):
    """The checkout holds no `src/norden` package to benchmark."""


def prepare() -> None:
    """Pin BLAS threads, then make the checkout's norden importable.

    Must run before numpy is imported.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    add_sources()


def add_sources() -> None:
    """Put the checkout's `src/` first on sys.path and import norden from it.

    Raises MissingProgramError when the package sources are absent, so the
    benchmark never measures some other installed copy of norden.
    """
    if not (SRC_DIR / "norden" / "__init__.py").is_file():
        raise MissingProgramError(f"no norden sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import norden

    if Path(norden.__file__).resolve().parent != SRC_DIR / "norden":
        raise MissingProgramError(f"imported norden from {norden.__file__}")


def machine_info() -> dict:
    """Machine, interpreter and library versions a measurement depends on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "processor": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
