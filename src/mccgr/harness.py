"""Repeatable clustering experiments over factorization variants.

The protocol: for each requested cluster count k and repeat r, sample k
label categories with seed base_seed + r, restrict the dataset to those
columns, build one affinity graph, draw one (H0, W0) pair, and run every
variant from those identical starting conditions. Per-run metrics land in
RunRecords; per-(variant, k) means and deviations in an AggregateReport.

All emitted artifacts are deterministic functions of the spec file and the
dataset: wall-clock time is kept in memory only and never written out.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .evaluation import evaluate
from .factorization import SolverConfig, solve
from .graph import MODES, build_knn_affinity
from .matrix import load_csv

__all__ = [
    "AggregateReport",
    "AggregateRow",
    "ExperimentSpec",
    "RunRecord",
    "alpha_sweep",
    "emit_report",
    "make_synthetic",
    "run_experiment",
    "sample_categories",
    "write_alpha_sweep",
    "write_trace",
]

# SolverConfig fields an experiment variant entry may override; k comes from
# the protocol itself.
_VARIANT_KEYS = {"name", "variant", "alpha", "theta", "max_iter", "tol", "epsilon"}

_SPEC_KEYS = {
    "dataset",
    "k_range",
    "variants",
    "repeats",
    "base_seed",
    "alpha_sweep",
    "knn",
    "knn_mode",
    "kmeans_restarts",
    "output_dir",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun an experiment bit-for-bit."""

    features_path: str
    labels_path: str
    k_range: tuple[int, ...]
    variants: tuple[dict, ...]
    repeats: int = 50
    base_seed: int = 0
    alpha_sweep: tuple[float, ...] = ()
    knn: int = 5
    knn_mode: str = "mutual"
    kmeans_restarts: int = 10
    output_dir: str | None = None

    def __post_init__(self):
        if not self.k_range:
            raise DataError("k_range must not be empty")
        for k in self.k_range:
            if k < 2:
                raise DataError(f"clustering experiments need k >= 2, got {k}")
        if not self.variants:
            raise DataError("variants must not be empty")
        seen = set()
        for entry in self.variants:
            if not isinstance(entry, dict) or "variant" not in entry:
                raise DataError(f"variant entry must be a dict with a 'variant' key: {entry!r}")
            unknown = set(entry) - _VARIANT_KEYS
            if unknown:
                raise DataError(f"unknown variant keys {sorted(unknown)} in {entry!r}")
            name = _variant_name(entry)
            if name in seen:
                raise DataError(f"duplicate variant name {name!r}; add a 'name' key")
            seen.add(name)
        if self.repeats < 1:
            raise DataError(f"repeats must be >= 1, got {self.repeats}")
        if self.knn_mode not in MODES:
            raise DataError(f"unknown knn_mode {self.knn_mode!r}")
        if self.kmeans_restarts < 1:
            raise DataError(f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        """Parse a spec file; unknown keys are data errors, not typos to ignore."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise DataError(f"{path}: spec must be a JSON object")
        unknown = set(raw) - _SPEC_KEYS
        if unknown:
            raise DataError(f"{path}: unknown spec keys {sorted(unknown)}")
        dataset = raw.get("dataset")
        if not isinstance(dataset, dict) or "features" not in dataset or "labels" not in dataset:
            raise DataError(f"{path}: spec needs dataset.features and dataset.labels")
        base = os.path.dirname(os.path.abspath(path))

        def _resolve(p):
            return p if os.path.isabs(p) else os.path.join(base, p)

        return cls(
            features_path=_resolve(dataset["features"]),
            labels_path=_resolve(dataset["labels"]),
            k_range=tuple(int(k) for k in raw.get("k_range", ())),
            variants=tuple(dict(v) for v in raw.get("variants", ())),
            repeats=int(raw.get("repeats", 50)),
            base_seed=int(raw.get("base_seed", 0)),
            alpha_sweep=tuple(float(a) for a in raw.get("alpha_sweep", ())),
            knn=int(raw.get("knn", 5)),
            knn_mode=str(raw.get("knn_mode", "mutual")),
            kmeans_restarts=int(raw.get("kmeans_restarts", 10)),
            output_dir=raw.get("output_dir"),
        )


@dataclass
class RunRecord:
    variant: str
    k: int
    repeat: int
    accuracy: float
    nmi: float
    iterations: int
    final_objective: float
    converged: bool
    init_hash: str
    wall_time: float = field(repr=False, default=0.0)
    trace: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class AggregateRow:
    variant: str
    k: int
    mean_accuracy: float
    mean_nmi: float
    std_accuracy: float
    std_nmi: float
    repeats: int


@dataclass(frozen=True)
class AggregateReport:
    rows: tuple[AggregateRow, ...]

    def cell(self, variant: str, k: int) -> AggregateRow | None:
        for row in self.rows:
            if row.variant == variant and row.k == k:
                return row
        return None


def _variant_name(entry: dict) -> str:
    return str(entry.get("name", entry["variant"])).lower()


def sample_categories(labels, k: int, seed: int) -> np.ndarray:
    """Column indices of k distinct label categories, original order kept."""
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise DataError("labels must be a flat vector")
    classes = np.unique(labels)
    if k < 1 or k > len(classes):
        raise DataError(f"cannot sample {k} categories from {len(classes)}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(classes, size=k, replace=False)
    return np.flatnonzero(np.isin(labels, chosen))


def run_experiment(spec: ExperimentSpec):
    """Execute the full (k, repeat, variant) grid.

    Returns (AggregateReport, list[RunRecord]). A variant that fails inside
    a cell with DataError or NumericalError is warned about and excluded
    from aggregation; it never aborts the other variants. Any other
    exception is a programming error and propagates.
    """
    aggregate, records, _ = _run_grid(spec, _load(spec), spec.k_range, ())
    return aggregate, records


def _run_spec(spec: ExperimentSpec):
    # Everything `mccgr experiment` computes, on one load: the grid and, when
    # the spec lists sweep values, the alpha sweep, which shares the grid's
    # k=2 cells and any run the grid already made. Returns (aggregate,
    # records, sweep); _sweep_table turns sweep into alpha_sweep's table.
    return _run_grid(spec, _load(spec), spec.k_range, spec.alpha_sweep)


def _load(spec: ExperimentSpec):
    dataset = load_csv(spec.features_path, spec.labels_path)
    if dataset.labels is None:
        raise DataError("experiments need labeled data")
    return dataset


def _cell(spec: ExperimentSpec, dataset, k: int, r: int):
    # The shared starting conditions of cell (k, repeat r): the sampled
    # columns, the graph and the (h0, w0) draw. The data columns themselves
    # are gathered per run, so a cell the sweep keeps holds no copy of them.
    seed_r = spec.base_seed + r
    columns = sample_categories(dataset.labels, k, seed_r)
    graph = build_knn_affinity(dataset.matrix[:, columns], spec.knn, spec.knn_mode)
    rng = np.random.default_rng(seed_r)
    h0 = 1.0 - rng.random((dataset.matrix.shape[0], k))
    w0 = 1.0 - rng.random((k, columns.size))
    return columns, graph, h0, w0


def _outcome(spec: ExperimentSpec, dataset, cell, r: int, cfg: SolverConfig, done: list):
    # The run of cfg in a cell: solved and evaluated on first request, then
    # read back from done, the cell's list of (config, outcome) pairs. A
    # DataError or NumericalError is the outcome of a failed run.
    for seen, outcome in done:
        if seen == cfg:
            return outcome
    columns, graph, h0, w0 = cell
    started = time.perf_counter()
    try:
        result = solve(dataset.matrix[:, columns], graph, cfg, h0, w0)
        report = evaluate(
            result.w, dataset.labels[columns], cfg.k, seed=spec.base_seed + r, restarts=spec.kmeans_restarts
        )
        outcome = (result, report, time.perf_counter() - started)
    except (DataError, NumericalError) as exc:
        outcome = exc
    done.append((cfg, outcome))
    return outcome


def _run_grid(spec: ExperimentSpec, dataset, ks, alphas):
    # Runs spec.variants at every k in ks, then the sweep's mccgr entry at
    # k=2 for every alpha in alphas. Each k=2 cell is set up once, and a
    # sweep run whose config equals one the grid already ran in that cell
    # reuses its outcome. A reused failure is warned about again, as a rerun
    # would be. Returns (aggregate, records, [(alpha, accuracies)]).
    records: list[RunRecord] = []
    names = [_variant_name(entry) for entry in spec.variants]
    sweep_cells: dict[int, tuple] = {}

    def failed(name, k, r, exc):
        # Names the caller of run_experiment, alpha_sweep or _run_spec.
        warnings.warn(f"variant {name!r} failed at k={k} repeat {r}: {exc}", stacklevel=4)

    for k in ks:
        for r in range(spec.repeats):
            cell = _cell(spec, dataset, k, r)
            init_hash = hashlib.sha256(cell[2].tobytes() + cell[3].tobytes()).hexdigest()[:16]
            done: list = []
            if k == 2 and alphas:
                sweep_cells.setdefault(r, (cell, done))
            for name, entry in zip(names, spec.variants):
                cfg = SolverConfig(k=k, **{key: entry[key] for key in entry if key != "name"})
                outcome = _outcome(spec, dataset, cell, r, cfg, done)
                if isinstance(outcome, Exception):
                    failed(name, k, r, outcome)
                    continue
                result, report, wall_time = outcome
                records.append(
                    RunRecord(
                        variant=name,
                        k=k,
                        repeat=r,
                        accuracy=report.accuracy,
                        nmi=report.nmi,
                        iterations=result.iterations_run,
                        final_objective=float(result.trace[-1]),
                        converged=result.converged,
                        init_hash=init_hash,
                        wall_time=wall_time,
                        trace=result.trace,
                    )
                )

    sweep = []
    # The first mccgr entry's settings (not its name), with alpha replaced.
    base = {"variant": "mccgr"}
    for entry in spec.variants:
        if str(entry["variant"]).lower() == "mccgr":
            base = {key: entry[key] for key in entry if key != "name"}
            break
    name = _variant_name(base)
    for alpha in sorted(alphas):
        accuracies = []
        for r in range(spec.repeats):
            if r not in sweep_cells:
                sweep_cells[r] = (_cell(spec, dataset, 2, r), [])
            cell, done = sweep_cells[r]
            cfg = SolverConfig(k=2, **dict(base, alpha=float(alpha)))
            outcome = _outcome(spec, dataset, cell, r, cfg, done)
            if isinstance(outcome, Exception):
                failed(name, 2, r, outcome)
                continue
            accuracies.append(outcome[1].accuracy)
        sweep.append((float(alpha), accuracies))
    return _aggregate(records, names, spec.k_range), records, sweep


def _aggregate(records, names, k_range) -> AggregateReport:
    rows = []
    for k in k_range:
        for name in names:
            cell = [rec for rec in records if rec.variant == name and rec.k == k]
            if not cell:
                continue
            accs = np.array([rec.accuracy for rec in cell])
            nmis = np.array([rec.nmi for rec in cell])
            rows.append(
                AggregateRow(
                    variant=name,
                    k=k,
                    mean_accuracy=float(accs.mean()),
                    mean_nmi=float(nmis.mean()),
                    std_accuracy=float(accs.std()),
                    std_nmi=float(nmis.std()),
                    repeats=len(cell),
                )
            )
    return AggregateReport(rows=tuple(rows))


def alpha_sweep(spec: ExperimentSpec):
    """Mean accuracy at k=2 for each alpha in spec.alpha_sweep.

    The sweep reruns the full repeat protocol per alpha on the graph-
    regularized correntropy variant (settings borrowed from the first such
    entry in spec.variants when present). Returns [(alpha, mean_accuracy)]
    in ascending alpha order. The dataset is loaded once, and each repeat's
    sample, graph and initialization are built once, for the whole sweep.
    """
    if not spec.alpha_sweep:
        raise DataError("spec has no alpha_sweep values")
    _, _, sweep = _run_grid(spec, _load(spec), (), spec.alpha_sweep)
    return _sweep_table(sweep)


def _sweep_table(sweep):
    table = []
    for alpha, accuracies in sweep:
        if not accuracies:
            raise DataError(f"alpha sweep produced no successful runs at alpha={alpha}")
        table.append((alpha, float(np.array(accuracies).mean())))
    return table


def write_alpha_sweep(table, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha,mean_accuracy\n")
        for alpha, acc in table:
            fh.write(f"{alpha!r},{acc!r}\n")


def write_trace(trace, path) -> None:
    """Write an objective trace as `iteration,objective` CSV, repr precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,objective\n")
        for i, value in enumerate(trace):
            fh.write(f"{i},{float(value)!r}\n")


def emit_report(aggregate: AggregateReport, records, out_dir) -> None:
    """Write accuracy/NMI tables, per-run records, traces, and summary.json.

    Layout under out_dir:
      accuracy_table.csv   k x variant mean accuracies
      nmi_table.csv        k x variant mean NMI
      runs.csv             one row per successful run
      summary.json         aggregate rows
      traces/<variant>_k<k>_r<repeat>.csv   iteration,objective
    """
    if not records:
        raise DataError("no successful runs to report")
    os.makedirs(out_dir, exist_ok=True)
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    names = list(dict.fromkeys(rec.variant for rec in records))
    ks = sorted({rec.k for rec in records})
    lookup = {(row.variant, row.k): row for row in aggregate.rows}

    def _table(path, attr):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k," + ",".join(names) + "\n")
            for k in ks:
                cells = []
                for name in names:
                    row = lookup.get((name, k))
                    cells.append(repr(getattr(row, attr)) if row is not None else "")
                fh.write(f"{k}," + ",".join(cells) + "\n")

    _table(os.path.join(out_dir, "accuracy_table.csv"), "mean_accuracy")
    _table(os.path.join(out_dir, "nmi_table.csv"), "mean_nmi")

    with open(os.path.join(out_dir, "runs.csv"), "w", encoding="utf-8") as fh:
        fh.write(
            "variant,k,repeat,accuracy,nmi,iterations,final_objective,converged,init_hash\n"
        )
        for rec in records:
            fh.write(
                f"{rec.variant},{rec.k},{rec.repeat},{rec.accuracy!r},{rec.nmi!r},"
                f"{rec.iterations},{rec.final_objective!r},{int(rec.converged)},{rec.init_hash}\n"
            )

    for rec in records:
        name = f"{rec.variant}_k{rec.k}_r{rec.repeat}.csv"
        write_trace(rec.trace, os.path.join(traces_dir, name))

    summary = {
        "aggregates": [
            {
                "variant": row.variant,
                "k": row.k,
                "mean_accuracy": row.mean_accuracy,
                "mean_nmi": row.mean_nmi,
                "std_accuracy": row.std_accuracy,
                "std_nmi": row.std_nmi,
                "repeats": row.repeats,
            }
            for row in aggregate.rows
        ]
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def make_synthetic(
    classes: int,
    per_class: int,
    dim: int,
    noise: str = "gaussian",
    seed: int = 0,
    corrupt_fraction: float = 0.1,
    separation: float = 4.0,
    spread: float = 0.3,
    outlier_scale: float = 3.0,
):
    """Block-structured class data for recovery and robustness checks.

    Each class activates its own block of features on top of a small
    uniform background; columns are the per-class centers plus clipped
    Gaussian jitter. `noise="heavy"` additionally corrupts a random
    `corrupt_fraction` of the feature rows with heavy-tailed noise (folded
    Student-t, two degrees of freedom, so corrupted rows carry comparable
    energy instead of being masked by a single extreme draw) across all
    samples, the failure mode squared-error fitting cannot ignore.

    Returns (x, labels) with x of shape (dim, classes * per_class).
    """
    if classes < 1:
        raise DataError(f"classes must be >= 1, got {classes}")
    if per_class < 1:
        raise DataError(f"per_class must be >= 1, got {per_class}")
    if dim < classes:
        raise DataError(f"dim must be >= classes, got dim={dim} classes={classes}")
    if noise not in ("gaussian", "heavy"):
        raise DataError(f"unknown noise kind {noise!r}")
    if not 0.0 < corrupt_fraction <= 1.0:
        raise DataError(f"corrupt_fraction must be in (0, 1], got {corrupt_fraction}")

    rng = np.random.default_rng(seed)
    block = dim // classes
    centers = rng.uniform(0.05, 0.3, size=(dim, classes))
    for c in range(classes):
        centers[c * block : (c + 1) * block, c] += separation
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class).astype(np.int64)
    x = np.empty((dim, n))
    for c in range(classes):
        start = c * per_class
        x[:, start : start + per_class] = centers[:, [c]] + rng.normal(
            0.0, spread, size=(dim, per_class)
        )
    x = np.maximum(x, 0.0)
    if noise == "heavy":
        n_bad = max(1, int(round(corrupt_fraction * dim)))
        bad = rng.choice(dim, size=n_bad, replace=False)
        x[bad, :] += np.abs(rng.standard_t(2, size=(n_bad, n))) * outlier_scale
    return x, labels
