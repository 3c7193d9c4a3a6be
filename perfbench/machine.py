"""Machine and version facts recorded with every benchmark output."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy has loaded, if any."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _proc_field(path: str, key: str) -> str | None:
    with open(path) as fh:
        for line in fh:
            name, _, value = line.partition(":")
            if name.strip() == key:
                return value.strip()
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of `root` when `root` is itself the top of a git work tree.

    Git is kept from searching the directories above `root`.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_sha256(root: Path) -> str:
    """Digest of the tqsf sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def describe(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kib = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "ram_gib": round(int(mem_kib.split()[0]) / 2**20, 1) if mem_kib else None,
    }
