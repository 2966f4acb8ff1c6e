"""In-memory call spans around mccgr's public functions.

The tracer replaces every binding of a traced function in every loaded
``mccgr`` module (for example ``mccgr.solve``, ``mccgr.harness.solve`` and
``mccgr.factorization.solve`` are all swapped), so calls made through any
import path are seen. Nothing under ``src/`` is modified: the wrappers live
only in this process and ``uninstall`` puts the originals back.

A span is (function, start, end, parent). Self time is a span's duration
minus the durations of its direct children; calls are single-threaded and
strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

# Public functions to wrap, by defining module. A name a later version no
# longer defines is skipped and then reads as "not observed".
TARGETS = {
    "mccgr.matrix": ("read_matrix", "load_csv", "load_labels", "save_csv", "save_labels"),
    "mccgr.graph": ("build_knn_affinity", "graph_penalty", "laplacian"),
    "mccgr.factorization": (
        "solve",
        "sigma_update",
        "rho_step",
        "update_h",
        "update_w",
        "dual_objective",
        "objective_kl",
    ),
    "mccgr.evaluation": ("evaluate", "kmeans", "accuracy", "nmi"),
    "mccgr.harness": ("run_experiment", "alpha_sweep", "emit_report", "write_alpha_sweep"),
}

LAYERS = ("matrix", "graph", "factorization", "evaluation", "harness", "cli")

# Functions whose peak traced allocation is recorded, on their first call in
# each pass only: tracemalloc slows every allocation while it runs, which
# across the grid's 115 solves would distort the split it is measuring.
# The two never nest in each other.
_PEAK = {"build_knn_affinity", "solve"}


def _cli_functions(cli_module):
    return tuple(
        name
        for name, obj in vars(cli_module).items()
        if inspect.isfunction(obj) and obj.__module__ == cli_module.__name__
    )


_RAISED = object()


def _probe(name, args, result):
    """Per-call work counts read from arguments and results."""
    if name == "main":
        return {"exit": result if isinstance(result, int) else (0 if result is None else 1)}
    if result is None or result is _RAISED:
        return None
    if name == "read_matrix":
        return {"cells": int(np.size(result))}
    if name == "save_csv":
        return {"cells": int(np.size(args[0]))}
    if name == "build_knn_affinity":
        return {"edges": int(round(float(result.affinity.sum()))) // 2}
    if name == "solve":
        return {"iterations": int(result.iterations_run), "converged": bool(result.converged)}
    return None


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extras: dict[int, dict] = {}
        self._stack: list[int] = []
        self._peaked: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    def clear(self):
        for seq in (self.names, self.layers, self.starts, self.ends, self.parents):
            seq.clear()
        self.extras.clear()
        self._stack.clear()
        self._peaked.clear()

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            started_tm = name in _PEAK and name not in self._peaked and not tracemalloc.is_tracing()
            if started_tm:
                self._peaked.add(name)
                tracemalloc.start()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except SystemExit as exc:  # argparse usage errors inside cli.main
                result = exc.code if isinstance(exc.code, int) else 1
                raise
            except BaseException:
                result = _RAISED
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
                try:
                    extra = _probe(name, args, result)
                except (AttributeError, TypeError):  # a result type a later version changed
                    extra = None
                if started_tm:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    extra = dict(extra or {}, peak_bytes=peak)
                if extra:
                    self.extras[idx] = extra

        return wrapper

    def install(self):
        """Wrap every binding of every target in every loaded mccgr module."""
        if self._patches:
            return
        targets = []
        for module_name, names in TARGETS.items():
            module = sys.modules.get(module_name)
            targets += [(module_name, n, getattr(module, n)) for n in names if hasattr(module, n)]
        cli = sys.modules.get("mccgr.cli")
        if cli is not None:
            targets += [("mccgr.cli", n, getattr(cli, n)) for n in _cli_functions(cli)]
        wrappers = {}
        self.wrapped = []
        for module_name, name, fn in targets:
            layer = module_name.split(".")[1]
            wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
            self.wrapped.append(f"{layer}.{name}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mccgr" or n.startswith("mccgr.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summarize(self, pass_wall: float) -> "PassTrace":
        """Fold the spans recorded since the last clear() into one pass."""
        n = len(self.names)
        dur = np.array(self.ends) - np.array(self.starts) if n else np.zeros(0)
        child = np.zeros(n)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_time = dur - child
        funcs: dict[str, dict] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        top = 0.0
        for i in range(n):
            key = f"{self.layers[i]}.{self.names[i]}"
            f = funcs.setdefault(key, empty_totals())
            f["calls"] += 1
            f["incl_s"] += float(dur[i])
            f["self_s"] += float(self_time[i])
            f["durations"].append(float(dur[i]))
            if i in self.extras:
                f["extras"].append(self.extras[i])
            layer_self[self.layers[i]] = layer_self.get(self.layers[i], 0.0) + float(self_time[i])
            if self.parents[i] < 0:
                top += float(dur[i])
        under_sweep = 0.0
        for i in range(n):
            if self.names[i] == "run_experiment" and self._has_ancestor(i, "alpha_sweep"):
                under_sweep += float(dur[i])
        return PassTrace(pass_wall, funcs, layer_self, pass_wall - top, under_sweep)

    def _has_ancestor(self, i, name):
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


@dataclass
class PassTrace:
    """Per-function and per-layer totals of one traced pass."""

    wall: float
    funcs: dict[str, dict]
    layer_self: dict[str, float]
    unattributed: float
    experiment_in_sweep: float


def empty_totals() -> dict:
    return {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": [], "extras": []}


def merge(passes: list[PassTrace]) -> dict:
    """Combine traced passes into per-function totals over all of them."""
    funcs: dict[str, dict] = {}
    for p in passes:
        for key, f in p.funcs.items():
            g = funcs.setdefault(key, empty_totals())
            g["calls"] += f["calls"]
            g["incl_s"] += f["incl_s"]
            g["self_s"] += f["self_s"]
            g["durations"] += f["durations"]
            g["extras"] += f["extras"]
    return funcs
