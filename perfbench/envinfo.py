"""Environment header written with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if numpy bundles one."""
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_sha256(src: Path) -> str:
    """Hash of the quantplan sources, to identify a checkout that is not a git repo."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def collect(root: Path, src: Path, blas_threads_pinned: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git(root, "rev-parse", "HEAD") or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "source_sha256": source_sha256(src),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads_pinned,
        "blas_threads_reported": _openblas_threads(),
    }
