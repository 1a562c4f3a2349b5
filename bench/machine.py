"""Machine and provenance facts printed with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> dict[str, str]:
    """Per-core cache sizes of CPU 0 as sysfs reports them, e.g. {'L2': '2048K'}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def blas() -> dict:
    import numpy as np

    info = {"vendor": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    # Ask each OpenBLAS loaded into this process (numpy's and scipy's may
    # differ) how many threads it runs.
    libraries = {}
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path).lower():
            libraries.setdefault(os.path.basename(path), path)
    threads = {}
    for name, path in libraries.items():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[name] = int(fn())
                break
    info["threads"] = threads
    return info


def source_digest(src_dir: str) -> str:
    """sha256 over the package's .py files, in path order."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def commit(root: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def facts(root: str, src_dir: str) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "commit": commit(root),
        "source_sha256": source_digest(src_dir),
    }
