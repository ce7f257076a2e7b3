"""Checkout paths and the run manifest.

The benchmark always imports specbulk from the checkout's own `src/`, never
from an installed copy, so it measures the code it was checked out with.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The checkout lacks the specbulk sources the benchmark measures."""


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path and for child processes."""
    if not (SRC / "specbulk" / "__init__.py").is_file():
        raise CheckoutError(f"no specbulk package under {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


def source_sha256(src: Path) -> str:
    """Digest of every .py file under src, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy, as users get it."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def manifest(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    import specbulk

    if Path(specbulk.__file__).resolve().parent != SRC / "specbulk":
        raise CheckoutError(f"specbulk imported from {specbulk.__file__}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "specbulk_version": specbulk.__version__,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "argv": sys.argv[1:],
    }
