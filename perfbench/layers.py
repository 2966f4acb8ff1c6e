"""Per-layer metrics from traced passes.

Every time and count is per pass, averaged over the traced passes, so the
six ``<layer>.self_s`` values plus ``trace.unattributed_s`` add up to
``trace.wall_s`` exactly. ``*_s`` values of single functions are inclusive
(they contain their callees); ``self_s`` values are exclusive.
"""

from __future__ import annotations

import json
import os
import statistics

import numpy as np

from spans import LAYERS, empty_totals, merge

SEED_SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seed_spans.json")


def _f(funcs, key):
    return funcs.get(key) or empty_totals()


def per_layer(workload, traced, traced_outcomes, wrapped, untraced_walls):
    """Returns ({metric: (value, unit)}, record for the trace file)."""
    n = len(traced)
    funcs = merge(traced)

    def calls(key):
        return _f(funcs, key)["calls"] / n

    def incl(*keys):
        return sum(_f(funcs, k)["incl_s"] for k in keys) / n

    def extras(key, field):
        return [e[field] for e in _f(funcs, key)["extras"] if field in e]

    solve = _f(funcs, "factorization.solve")
    iters_total = sum(extras("factorization.solve", "iterations"))
    iters = iters_total / n
    converged = extras("factorization.solve", "converged")
    solve_ms = np.array(solve["durations"]) * 1000.0
    read_cells = sum(extras("matrix.read_matrix", "cells")) / n
    residual_calls = sum(
        _f(funcs, k)["calls"]
        for k in (
            "factorization.sigma_update",
            "factorization.rho_step",
            "factorization.dual_objective",
            "factorization.objective_kl",
        )
    )
    build_peaks = extras("graph.build_knn_affinity", "peak_bytes")
    solve_peaks = extras("factorization.solve", "peak_bytes")
    exits = extras("cli.main", "exit")
    traced_wall = statistics.fmean(p.wall for p in traced)
    untraced = statistics.median(untraced_walls)
    traced_median = statistics.median(p.wall for p in traced)
    layer_self = {layer: sum(p.layer_self.get(layer, 0.0) for p in traced) / n for layer in LAYERS}
    sweep_experiment = sum(p.experiment_in_sweep for p in traced) / n

    m = {
        "matrix.read_s": (incl("matrix.read_matrix"), "s"),
        "matrix.read_calls": (calls("matrix.read_matrix"), "count"),
        "matrix.read_cells": (read_cells, "count"),
        "matrix.read_us_per_cell": (incl("matrix.read_matrix") / read_cells * 1e6 if read_cells else 0.0, "us/cell"),
        "matrix.write_s": (incl("matrix.save_csv"), "s"),
        "matrix.write_cells": (sum(extras("matrix.save_csv", "cells")) / n, "count"),
        "matrix.self_s": (layer_self["matrix"], "s"),
        "graph.build_s": (incl("graph.build_knn_affinity"), "s"),
        "graph.build_calls": (calls("graph.build_knn_affinity"), "count"),
        "graph.edges": (sum(extras("graph.build_knn_affinity", "edges")) / n, "count"),
        "graph.build_peak_mb": (max(build_peaks, default=0) / 2**20, "MiB"),
        "graph.penalty_s": (incl("graph.graph_penalty"), "s"),
        "graph.penalty_calls": (calls("graph.graph_penalty"), "count"),
        "graph.laplacian_s": (incl("graph.laplacian"), "s"),
        "graph.self_s": (layer_self["graph"], "s"),
        "factorization.iter_ms": (solve["incl_s"] / iters_total * 1000.0 if iters_total else 0.0, "ms"),
        "factorization.estep_s": (incl("factorization.sigma_update", "factorization.rho_step"), "s"),
        "factorization.update_h_s": (incl("factorization.update_h"), "s"),
        "factorization.update_w_s": (incl("factorization.update_w"), "s"),
        "factorization.objective_s": (incl("factorization.dual_objective", "factorization.objective_kl"), "s"),
        "factorization.sigma_calls": (calls("factorization.sigma_update"), "count"),
        "factorization.rho_calls": (calls("factorization.rho_step"), "count"),
        "factorization.residual_passes_per_iter": (residual_calls / iters_total if iters_total else 0.0, "count/iter"),
        "factorization.solve_s": (solve["incl_s"] / n, "s"),
        "factorization.solve_calls": (solve["calls"] / n, "count"),
        "factorization.solve_self_s": (solve["self_s"] / n, "s"),
        "factorization.solve_ms_p50": (float(np.percentile(solve_ms, 50)) if solve_ms.size else 0.0, "ms"),
        "factorization.solve_ms_p90": (float(np.percentile(solve_ms, 90)) if solve_ms.size else 0.0, "ms"),
        "factorization.solve_peak_mb": (max(solve_peaks, default=0) / 2**20, "MiB"),
        "factorization.iters": (iters, "count"),
        "factorization.converged_frac": (sum(converged) / len(converged) if converged else 0.0, "fraction"),
        "factorization.self_s": (layer_self["factorization"], "s"),
        "evaluation.evaluate_s": (incl("evaluation.evaluate"), "s"),
        "evaluation.kmeans_s": (incl("evaluation.kmeans"), "s"),
        "evaluation.kmeans_calls": (calls("evaluation.kmeans"), "count"),
        "evaluation.match_s": (incl("evaluation.accuracy", "evaluation.nmi"), "s"),
        "evaluation.self_s": (layer_self["evaluation"], "s"),
        "harness.experiment_s": (incl("harness.run_experiment") - sweep_experiment, "s"),
        "harness.sweep_s": (incl("harness.alpha_sweep"), "s"),
        "harness.emit_s": (incl("harness.emit_report", "harness.write_alpha_sweep"), "s"),
        "harness.self_s": (layer_self["harness"], "s"),
        "harness.runs_failed": (sum(o.runs_failed for o in traced_outcomes) / n, "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.commands": (calls("cli.main"), "count"),
        "cli.nonzero_exits": (sum(1 for e in exits if e != 0) / n, "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.unattributed_s": (statistics.fmean(p.unattributed for p in traced), "s"),
        "trace.overhead_pct": ((traced_median - untraced) / untraced * 100.0, "%"),
    }

    per_pass = {
        key: {
            "calls": f["calls"] / n,
            "incl_s": f["incl_s"] / n,
            "self_s": f["self_s"] / n,
            "ms_per_call": f["incl_s"] / f["calls"] * 1000.0,
        }
        for key, f in sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])
    }
    record = {
        "workload": workload,
        "traced_passes": n,
        "traced_wall_s": traced_wall,
        "untraced_wall_s_median": untraced,
        "traced_wall_s_median": traced_median,
        "functions_per_pass": per_pass,
        "layer_self_s": layer_self,
        "wrapped": wrapped,
        "not_observed": not_observed(workload, per_pass),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }
    return m, record


def not_observed(workload, per_pass):
    """Spans the parent commit recorded calls for that this run never saw.

    A public function that a later change inlines or removes stops being
    traced; its time moves into the caller's self time, and its zero must
    not read as a saving.
    """
    try:
        with open(SEED_SPANS, "r", encoding="utf-8") as fh:
            seed = json.load(fh)["calls_per_pass"].get(workload, {})
    except (OSError, KeyError, ValueError):
        return {}
    return {key: calls for key, calls in seed.items() if calls > 0 and key not in per_pass}


def report_lines(record):
    wall = record["traced_wall_s"]
    lines = [f"{'span':40s} {'calls':>9s} {'incl_s':>9s} {'self_s':>9s} {'ms/call':>9s} {'self%':>6s}"]
    for key, f in record["functions_per_pass"].items():
        lines.append(
            f"{key:40s} {f['calls']:9.1f} {f['incl_s']:9.4f} {f['self_s']:9.4f} "
            f"{f['ms_per_call']:9.3f} {100.0 * f['self_s'] / wall:6.1f}"
        )
    for key, calls in record["not_observed"].items():
        lines.append(f"{key:40s} not observed (parent commit: {calls} calls per pass)")
    layer_total = sum(record["layer_self_s"].values())
    lines.append(
        "layer self s: "
        + ", ".join(f"{k} {v:.4f}" for k, v in record["layer_self_s"].items())
        + f"; unattributed {wall - layer_total:.4f}; traced wall {wall:.4f}"
    )
    return lines
