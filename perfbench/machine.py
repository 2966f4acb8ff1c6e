"""Description of the machine a benchmark run measured."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

import numpy as np
import scipy


def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size:
            caches[f"L{level}{kind[:1].lower() if kind != 'Unified' else ''}"] = size
    return caches


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown"}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": dep.get("name", "unknown"), "version": dep.get("version", "unknown")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode; keep the defaults
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it is not found."""
    libs = set()
    for line in _read("/proc/self/maps").splitlines():
        fields = line.split()
        name = os.path.basename(fields[-1]).lower() if len(fields) >= 6 else ""
        if "openblas" in name and ".so" in name:
            libs.add(fields[-1])
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
