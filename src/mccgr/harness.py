"""Repeatable clustering experiments over factorization variants.

The protocol: read the spec's features with read_matrix and its labels with
load_labels, and check once that there is a label per sample column; then,
for each requested cluster count k and repeat r, sample k label categories
with seed base_seed + r, restrict the data to those columns, build one
affinity graph if a run there reads one, draw one (H0, W0) pair, and run
every variant from those identical starting conditions. An alpha sweep adds
the first mccgr entry at each sweep alpha as more runs of the k=2 cells.
run_experiment is the one way to run a spec: it sets each cell up once and
solves each distinct run in it once, a run the grid and the sweep share
included. The cells may run in worker processes; their records and their
warnings come back in cell order, so every output is the same as in one
process, and no worker outlives the call.
Each run's outcome, a failed run's included, lands in a RunRecord; the
spec's variant order, per-(variant, k) means and deviations and the
sweep's mean accuracy per alpha over the runs that succeeded, and the
failed-run count in an AggregateReport, which with the records' ks sets
the layout emit_report writes.

All emitted artifacts are deterministic functions of the spec file and the
dataset; no wall-clock time is recorded.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import multiprocessing
import numbers
import os
import re
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields

import numpy as np

from .errors import DataError, NumericalError, _check_count, _check_labels, _check_number, _check_real
from .evaluation import evaluate
from .factorization import SolverConfig, init_factors, solve
from .graph import MODES, build_knn_affinity
from .matrix import _open_text, load_labels, read_matrix

__all__ = [
    "AggregateReport",
    "AggregateRow",
    "ExperimentSpec",
    "RunRecord",
    "check_report_dir",
    "emit_report",
    "make_synthetic",
    "run_experiment",
    "sample_categories",
    "write_trace",
]

# SolverConfig fields an experiment variant entry may override; k comes from
# the protocol itself.
_VARIANT_KEYS = {"name"} | {f.name for f in fields(SolverConfig)} - {"k"}

# A variant name becomes part of a trace file name and a runs.csv cell.
_VARIANT_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# The noise kinds make_synthetic knows; the first is the default of every
# caller that takes a kind.
NOISES = ("gaussian", "heavy")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun an experiment bit-for-bit.

    Every field is checked here, before any data is loaded, so a spec built
    in Python passes the same checks as one read by from_json. The list
    fields are stored as tuples.
    """

    features_path: str
    labels_path: str
    k_range: tuple[int, ...]
    variants: tuple[dict, ...]
    repeats: int = 50
    base_seed: int = 0
    alpha_sweep: tuple[float, ...] = ()
    knn: int = 5
    knn_mode: str = MODES[0]

    def __post_init__(self):
        for key in ("features_path", "labels_path"):
            value = getattr(self, key)
            if not isinstance(value, str):
                raise DataError(f"spec key '{key}' must be a string, got {value!r}")
        for key in ("k_range", "variants", "alpha_sweep"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise DataError(f"spec key '{key}' must be a list, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        for key, low in (("repeats", 1), ("base_seed", 0), ("knn", 1)):
            _check_count(f"spec key '{key}'", getattr(self, key), low)
        if not self.k_range:
            raise DataError("spec key 'k_range' must not be empty")
        for k in self.k_range:
            _check_number("spec key 'k_range'", k, numbers.Integral)
            if k < 2:
                raise DataError(f"spec key 'k_range': clustering experiments need k >= 2, got {k}")
        for alpha in self.alpha_sweep:
            _check_real("spec key 'alpha_sweep'", alpha, 0)
        for key in ("k_range", "alpha_sweep"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise DataError(f"spec key '{key}' lists a value twice: {getattr(self, key)}")
        if self.knn_mode not in MODES:
            raise DataError(f"spec key 'knn_mode': unknown mode {self.knn_mode!r}, expected one of {MODES}")

        if not self.variants:
            raise DataError("spec key 'variants' must not be empty")
        seen = {}
        for entry in self.variants:
            if not isinstance(entry, dict) or "variant" not in entry:
                raise DataError(f"spec key 'variants': each entry must be an object with a 'variant' key, got {entry!r}")
            unknown = set(entry) - _VARIANT_KEYS
            if unknown:
                raise DataError(f"spec key 'variants': unknown variant keys {sorted(unknown)} in {entry!r}")
            name = entry.get("name", entry["variant"])
            if "name" in entry and not (isinstance(name, str) and _VARIANT_NAME.fullmatch(name)):
                raise DataError(f"spec key 'variants': a name must be a non-empty string of [A-Za-z0-9_.-], got {name!r}")
            # Bad settings fail here, before any run, not inside the grid.
            try:
                SolverConfig(k=self.k_range[0], **_solver_settings(entry))
            except DataError as exc:
                raise DataError(f"spec key 'variants': variant {name!r}: {exc}") from None
            name = _variant_name(entry)
            if name in seen:
                advice = "" if "name" in entry and "name" in seen[name] else "; add a 'name' key"
                raise DataError(f"spec key 'variants': duplicate variant name {name!r} (names are case-insensitive){advice}")
            seen[name] = entry

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        """Parse a spec file; unknown keys, at the top level or in the dataset
        block, are data errors, not typos to ignore.

        The dataset paths resolve against the file's directory. The
        constructor checks the values; its errors are prefixed with the path.
        """
        with _open_text(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise DataError(f"{path}: spec must be a JSON object")
        keys = [f.name for f in fields(cls) if f.name not in ("features_path", "labels_path")]
        unknown = set(raw) - set(keys) - {"dataset"}
        if unknown:
            raise DataError(f"{path}: unknown spec keys {sorted(unknown)}")
        dataset = raw.get("dataset")
        if not isinstance(dataset, dict) or not all(isinstance(dataset.get(key), str) for key in ("features", "labels")):
            raise DataError(f"{path}: spec needs dataset.features and dataset.labels paths")
        unknown = set(dataset) - {"features", "labels"}
        if unknown:
            raise DataError(f"{path}: unknown dataset keys {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name in keys and f.name not in raw]
        if missing:
            raise DataError(f"{path}: spec needs {', '.join(missing)}")
        base = os.path.dirname(os.path.abspath(path))
        features, labels = (os.path.join(base, dataset[key]) for key in ("features", "labels"))
        try:
            return cls(features_path=features, labels_path=labels, **{key: raw[key] for key in keys if key in raw})
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


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
    # "ok", or the class name of the error the run failed with; a failed run
    # has nan scores and objective, 0 iterations and an empty trace.
    status: str
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
    # The spec's variant names in spec order, failed ones included.
    variants: tuple[str, ...]
    rows: tuple[AggregateRow, ...]
    # (alpha, mean k=2 accuracy or None if no run succeeded) per sweep alpha,
    # ascending; () for no sweep.
    sweep: tuple[tuple[float, float | None], ...]
    # Failed runs, grid and sweep; a sweep run that is a grid run counts in each.
    failed: int


def _variant_name(entry: dict) -> str:
    return entry.get("name", entry["variant"]).lower()


def _solver_settings(entry: dict) -> dict:
    # A variant entry's SolverConfig arguments: all its keys but the name.
    return {key: entry[key] for key in entry if key != "name"}


def sample_categories(labels, k: int, seed: int) -> np.ndarray:
    """Column indices of k distinct label categories, original order kept."""
    labels = _check_labels(labels, "labels")
    _check_count("k", k, 1)
    classes = np.unique(labels)
    if k > len(classes):
        raise DataError(f"cannot sample {k} categories from {len(classes)}")
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(classes, size=k, replace=False)
    return np.flatnonzero(np.isin(labels, chosen))


def run_experiment(spec: ExperimentSpec):
    """Run everything the spec asks for in one pass over its cells.

    The grid is every (k, repeat, variant) run. An alpha sweep adds the
    first mccgr entry's settings (not its name; mccgr's defaults when there
    is no such entry) at each spec.alpha_sweep value, as more runs of the
    k=2 cells. The features are read once, by read_matrix, then the labels,
    by load_labels; a label count other than the features' column count is
    a DataError, and this is the one place the two are paired. Each cell
    builds (H0, W0) once, and its graph once if a run there reads one
    (SolverConfig.graph_weight > 0), and solves each distinct config once,
    a run the grid and the sweep share included.

    The cells are independent, so they may run in worker processes, one
    per CPU this process may use and at most one per cell. Their records,
    and the warnings they raise, come back in cell order, so the returned
    values and the warnings are the same whatever the worker count: under
    the default filter a warning every cell raises shows once, as in one
    process. No worker outlives the call.

    Returns (AggregateReport, list[RunRecord]), a record per grid run in
    cell order. AggregateReport.sweep holds (alpha, mean k=2 accuracy) in
    ascending alpha order, and is empty when the spec lists no sweep
    values. A run that fails with NumericalError is a record with that
    status, and the other runs go on: the means read only the records
    whose status is "ok", a sweep alpha with none has mean None, and
    AggregateReport.failed counts the rest. Every input of a cell is
    checked before the first run, so any other exception, a DataError
    included, is a programming error and propagates, from a worker too,
    and the cells not yet started are dropped. A k above the labels'
    category count, or a knn not below the sample count of a cell that
    builds a graph, is a DataError raised before the first run.
    """
    data = read_matrix(spec.features_path)
    labels = load_labels(spec.labels_path)
    if labels.shape[0] != data.shape[1]:
        raise DataError(f"label count {labels.shape[0]} does not match sample count {data.shape[1]}")
    classes = np.unique(labels).size
    names = tuple(_variant_name(entry) for entry in spec.variants)
    mccgr_entries = [_solver_settings(entry) for entry in spec.variants if entry["variant"].lower() == "mccgr"]
    base = mccgr_entries[0] if mccgr_entries else {"variant": "mccgr"}
    sweep = {float(alpha): [] for alpha in sorted(spec.alpha_sweep)}
    # Every cell as (k, repeat r, its sampled columns, its runs in order as
    # (name, config, sweep alpha or None)), in run order: the spec's
    # k_range, then, for a sweep, k=2 unless k_range has it. All are drawn
    # before the first run, so a spec that asks more of the data than it
    # holds fails before any solve.
    cells = []
    for k in dict.fromkeys(spec.k_range + ((2,) if spec.alpha_sweep else ())):
        if k > classes:
            key = "k_range" if k in spec.k_range else "alpha_sweep"
            raise DataError(f"spec key '{key}': cannot sample {k} categories from the {classes} in the labels")
        runs = []
        if k in spec.k_range:
            runs += [(name, SolverConfig(k=k, **_solver_settings(e)), None) for name, e in zip(names, spec.variants)]
        if k == 2:
            runs += [(_variant_name(base), SolverConfig(k=2, **dict(base, alpha=a)), a) for a in sweep]
        # Only a run with a graph weight reads a graph: a k with none builds
        # none (knn None), and its cells' sample counts need not exceed knn.
        knn = spec.knn if any(cfg.graph_weight > 0 for _, cfg, _ in runs) else None
        for r in range(spec.repeats):
            columns = sample_categories(labels, k, spec.base_seed + r)
            if knn is not None and knn >= columns.size:
                raise DataError(
                    f"spec key 'knn' must be below the sample count of every cell with a graph run, got {knn} "
                    f"for the {columns.size} samples at k={k} repeat {r}"
                )
            cells.append((k, r, columns, runs, knn))
    # A generator: each cell's data is sliced when the cell is sent to run.
    args = (
        (data[:, columns], labels[columns], k, r, spec.base_seed + r, [run[:2] for run in runs], knn, spec.knn_mode)
        for k, r, columns, runs, knn in cells
    )
    records: list[RunRecord] = []
    with contextlib.closing(_solve_cells(args, len(cells))) as solved:
        for (_, _, _, runs, _), outcomes in zip(cells, solved):
            for (_, _, alpha), record in zip(runs, outcomes):
                (records if alpha is None else sweep[alpha]).append(record)
    accuracies = {alpha: [rec.accuracy for rec in runs if rec.status == "ok"] for alpha, runs in sweep.items()}
    table = tuple((alpha, float(np.mean(accs)) if accs else None) for alpha, accs in accuracies.items())
    failed = sum(rec.status != "ok" for runs in (records, *sweep.values()) for rec in runs)
    rows = _aggregate(records, names, spec.k_range)
    return AggregateReport(variants=names, rows=rows, sweep=table, failed=failed), records


def _solve_cell(cell):
    # One cell's work, given as (x, labels, k, repeat, seed, runs, knn, mode)
    # on its own columns x and their labels, with runs as (name, config)
    # pairs: the graph (None when knn is, as no config has a graph weight),
    # (H0, W0) from seed, then a solve and an evaluation per config. Returns
    # a RunRecord per run, in order; a config listed twice is solved once,
    # and its records share the outcome. A run that fails with
    # NumericalError is a record with that status. run_experiment checked
    # the cell's inputs before the first run, so any other error is a bug
    # and propagates. Only the records go back from a worker, not the factors.
    x, labels, k, repeat, seed, runs, knn, mode = cell
    graph = None if knn is None else build_knn_affinity(x, knn, mode)
    h0, w0 = init_factors(x, k, seed)
    init_hash = hashlib.sha256(h0.tobytes() + w0.tobytes()).hexdigest()[:16]
    solved = {}
    for _, cfg in runs:
        key = astuple(cfg)
        if key not in solved:
            try:
                result = solve(x, graph, cfg, h0, w0)
                report = evaluate(result.w, labels, k, seed=seed)
            except NumericalError as exc:
                solved[key] = dict(accuracy=np.nan, nmi=np.nan, iterations=0, final_objective=np.nan, converged=False,
                                   status=type(exc).__name__, trace=np.empty(0))
            else:
                solved[key] = dict(accuracy=report.accuracy, nmi=report.nmi, iterations=result.iterations_run,
                                   final_objective=float(result.trace[-1]), converged=result.converged, status="ok",
                                   trace=result.trace)
    return [RunRecord(variant=name, k=k, repeat=repeat, init_hash=init_hash, **solved[astuple(cfg)]) for name, cfg in runs]


def _recording(cell):
    # _solve_cell(cell) in a worker, and each warning it raised, as
    # warn_explicit's (message, category, filename, lineno), for the parent
    # to re-emit: a worker's own warnings go nowhere the caller sees.
    with warnings.catch_warnings(record=True) as caught:
        records = _solve_cell(cell)
    return records, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _module_of(filename):
    # The loaded module whose file a re-emitted warning names, as (name,
    # globals), so that filters match it by its name as where it was
    # raised; (None, None) when no loaded module has that file.
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            return module.__name__, vars(module)
    return None, None


def _workers(cells: int) -> int:
    # One worker per CPU this process may run on, and no more than there
    # are cells; one where the platform cannot tell which CPUs those are.
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), cells)


def _single_threaded() -> bool:
    # Whether this process runs one OS thread, counted as the kernel lists
    # them, so a BLAS library's pool counts as much as a Python thread. A
    # process that has threads must not fork (CPython 3.12 and later warn
    # that it may deadlock); False where the list cannot be read. OpenBLAS
    # joins its threads at a fork and starts them again only at the next
    # product large enough to use them, so such a product (256 x 256, under
    # a millisecond) runs first: after an earlier fork, the pool of a BLAS
    # not set to one thread is counted too.
    square = np.ones((256, 256))
    np.dot(square, square)
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _solve_cells(cells, count: int):
    # Yields each of the count cells' records, in cell order. The cells run
    # in this process, their warnings raised as they happen, for one worker
    # or when the process has more than one thread (numpy's default
    # OpenBLAS starts its own at import, and after a fork at
    # _single_threaded's product; with OPENBLAS_NUM_THREADS=1 it does not),
    # since forking a threaded process risks a deadlock. Else they run in a
    # pool that forks, so workers start with numpy and the library already
    # imported; spawned workers import them afresh, which made a grid pass
    # slower than in one process. Cells are submitted two per worker ahead
    # of the one consumed, so the parent holds that many cells' data, not
    # the whole grid's. Before a cell's records are yielded, the warnings
    # it raised in its worker are re-emitted under their module's name
    # (_module_of) and with one registry per call, so under the default
    # filter a warning every cell raises shows once, as in this process.
    # The pool is shut down and its workers joined when the cells run out,
    # a worker raises or the generator is closed; the cells submitted but
    # not started are then dropped, not waited for.
    workers = _workers(count)
    if workers == 1 or not _single_threaded():
        yield from map(_solve_cell, cells)
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    cells, pending, registry = iter(cells), collections.deque(), {}
    try:
        while True:
            while len(pending) <= 2 * workers and (cell := next(cells, None)) is not None:
                pending.append(pool.submit(_recording, cell))
            if not pending:
                return
            records, caught = pending.popleft().result()
            for message, category, filename, lineno in caught:
                module, module_globals = _module_of(filename)
                warnings.warn_explicit(message, category, filename, lineno, module, registry, module_globals)
            yield records
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _aggregate(records, names, k_range) -> tuple[AggregateRow, ...]:
    rows = []
    for k in k_range:
        for name in names:
            cell = [rec for rec in records if rec.variant == name and rec.k == k and rec.status == "ok"]
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
    return tuple(rows)


def _write_csv(path, header: str, lines) -> None:
    # Every CSV the harness writes: a header line, then one line per item.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *lines]) + "\n")


def write_trace(trace, path) -> None:
    """Write an objective trace as `iteration,objective` CSV, repr precision."""
    _write_csv(path, "iteration,objective", (f"{i},{value!r}" for i, value in enumerate(map(float, trace))))


def _run_cell(value) -> str:
    # A runs.csv cell: a float at repr precision, a flag as 0/1, the rest as text.
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def check_report_dir(out_dir) -> None:
    """Raise DataError unless out_dir is missing or an empty directory.

    emit_report makes this check before it writes anything; a caller makes
    it too before run_experiment, so a path that cannot take the report,
    a directory that holds a file or a path that is not a directory, fails
    before the runs, not after them.
    """
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise DataError(f"report directory {out_dir} is not a directory")
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise DataError(f"report directory {out_dir} is not empty; a report needs a new or empty one")


def emit_report(aggregate: AggregateReport, records, out_dir) -> None:
    """Write the report of a run_experiment result under out_dir.

    out_dir must be missing or an empty directory (check_report_dir): one
    that holds any file, such as an earlier report's, is a DataError raised
    before anything is written, so no report mixes with another's leftovers.

    Layout, set by aggregate and the records' ks whichever runs failed:
      accuracy_table.csv   mean accuracy: a row per k, ascending; a column per
                           aggregate.variants entry, in the spec's order; a
                           cell with no successful run is empty
      nmi_table.csv        mean NMI, laid out the same
      runs.csv             one row per run, failed ones included, in records'
                           order; a column per RunRecord field but trace
      summary.json         aggregate.rows, in order, and aggregate.failed
      alpha_sweep.csv      alpha,mean_accuracy, empty where no run succeeded;
                           only when aggregate.sweep is non-empty
      traces/<variant>_k<k>_r<repeat>.csv   iteration,objective, per record
    """
    check_report_dir(out_dir)
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    ks = sorted({rec.k for rec in records})
    for name, attr in (("accuracy_table.csv", "mean_accuracy"), ("nmi_table.csv", "mean_nmi")):
        cells = {(row.k, row.variant): repr(getattr(row, attr)) for row in aggregate.rows}
        lines = (",".join([str(k)] + [cells.get((k, variant), "") for variant in aggregate.variants]) for k in ks)
        _write_csv(os.path.join(out_dir, name), ",".join(["k", *aggregate.variants]), lines)

    columns = [f.name for f in fields(RunRecord) if f.name != "trace"]
    lines = (",".join(_run_cell(getattr(rec, name)) for name in columns) for rec in records)
    _write_csv(os.path.join(out_dir, "runs.csv"), ",".join(columns), lines)
    for rec in records:
        write_trace(rec.trace, os.path.join(traces_dir, f"{rec.variant}_k{rec.k}_r{rec.repeat}.csv"))

    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"aggregates": [asdict(row) for row in aggregate.rows], "failed": aggregate.failed}, fh, indent=2)
        fh.write("\n")
    if aggregate.sweep:
        lines = (f"{alpha!r},{'' if acc is None else repr(acc)}" for alpha, acc in aggregate.sweep)
        _write_csv(os.path.join(out_dir, "alpha_sweep.csv"), "alpha,mean_accuracy", lines)


def make_synthetic(
    classes: int,
    per_class: int,
    dim: int,
    noise: str = NOISES[0],
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

    separation, spread, outlier_scale and corrupt_fraction are finite real
    numbers; spread and outlier_scale are >= 0 and corrupt_fraction is in
    (0, 1]. Returns (x, labels) with x of shape (dim, classes * per_class).
    """
    _check_count("classes", classes, 1)
    _check_count("per_class", per_class, 1)
    _check_count("dim", dim, classes)
    if noise not in NOISES:
        raise DataError(f"unknown noise kind {noise!r}")
    _check_real("separation", separation)
    _check_real("spread", spread, 0)
    _check_real("outlier_scale", outlier_scale, 0)
    _check_real("corrupt_fraction", corrupt_fraction)
    if not 0.0 < corrupt_fraction <= 1.0:
        raise DataError(f"corrupt_fraction must be in (0, 1], got {corrupt_fraction}")
    _check_count("seed", seed, 0)

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
