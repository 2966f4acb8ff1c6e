"""Repeatable clustering experiments over factorization variants.

The protocol: read the spec's features with read_matrix and its labels with
load_labels, and check once that there is a label per sample column; then,
for each requested cluster count k and repeat r, sample k label categories
with seed base_seed + r, restrict the data to those columns, build one
affinity graph, draw one (H0, W0) pair, and run every variant from those
identical starting conditions. An alpha sweep adds the
first mccgr entry at each sweep alpha as more runs of the k=2 cells.
run_experiment is the one way to run a spec: it sets each cell up once and
solves each distinct run in it once, a run the grid and the sweep share
included. The cells run in worker processes, one per CPU the process may
use, when the process has no other thread; their results, and their
warnings, are consumed in cell order, so every output is the same as with
one CPU, where the cells run in-process.
Per-run metrics land in RunRecords; the spec's variant order,
per-(variant, k) means and deviations, and the sweep's mean accuracy per
alpha in an AggregateReport, which alone sets the layout emit_report writes.

All emitted artifacts are deterministic functions of the spec file and the
dataset; no wall-clock time is recorded.
"""

from __future__ import annotations

import collections
import contextlib
import functools
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
            _check_real("spec key 'alpha_sweep'", alpha)
            if alpha < 0:
                raise DataError(f"spec key 'alpha_sweep' values must be >= 0, got {alpha!r}")
        for key in ("k_range", "alpha_sweep"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise DataError(f"spec key '{key}' lists a value twice: {getattr(self, key)}")
        if self.knn_mode not in MODES:
            raise DataError(f"spec key 'knn_mode': unknown mode {self.knn_mode!r}, expected one of {MODES}")

        if not self.variants:
            raise DataError("spec key 'variants' must not be empty")
        seen = set()
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
                raise DataError(f"spec key 'variants': duplicate variant name {name!r}; add a 'name' key")
            seen.add(name)

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
    # (alpha, mean k=2 accuracy) per sweep alpha, ascending; () for no sweep.
    sweep: tuple[tuple[float, float], ...]


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
    builds its graph and (H0, W0) once and solves each distinct config
    once, a run the grid and the sweep share included.

    The cells are independent, so they run in forked worker processes, one
    per CPU this process may use (os.sched_getaffinity; a cgroup CPU quota
    is not read) and at most one per cell. Results come back, and are
    consumed, in cell order, so the returned values, and the warnings, are
    the same whatever the worker count. Every cell runs in this process
    when it may use one CPU, on a platform without sched_getaffinity, and
    when it already has more than one thread, since forking then risks a
    deadlock; numpy's default OpenBLAS starts a thread per CPU at import,
    and again at its first large product after a fork, which the thread
    count runs first, unless OPENBLAS_NUM_THREADS=1. A warning a cell
    raises in a worker is re-emitted here, in cell order, before that
    cell's failed-run warnings, under its module's name and with one
    registry per call, so under the default filter a warning every cell
    raises shows once, as it does in this process. No worker outlives the
    call.

    Returns (AggregateReport, list[RunRecord]). AggregateReport.sweep holds
    (alpha, mean k=2 accuracy) in ascending alpha order, and is empty when
    the spec lists no sweep values. A run that fails with DataError or
    NumericalError is warned about and left out of aggregation; it never
    aborts the other runs. Any other exception is a programming error and
    propagates, from a worker too, and the cells not yet started are
    dropped. A k above the labels' category count, or a knn not below a
    cell's sample count, is a DataError raised before the first run; a
    sweep alpha with no successful run is one raised after the last.
    """
    data = read_matrix(spec.features_path)
    labels = load_labels(spec.labels_path)
    if labels.shape[0] != data.shape[1]:
        raise DataError(f"label count {labels.shape[0]} does not match sample count {data.shape[1]}")
    samples = _samples(spec, labels)
    names = tuple(_variant_name(entry) for entry in spec.variants)
    mccgr_entries = [_solver_settings(entry) for entry in spec.variants if entry["variant"].lower() == "mccgr"]
    base = mccgr_entries[0] if mccgr_entries else {"variant": "mccgr"}
    sweep = {float(alpha): [] for alpha in sorted(spec.alpha_sweep)}
    # Each cell's runs in order, as (name, config, sweep alpha or None).
    runs = {}
    for k, r in samples:
        cell = []
        if k in spec.k_range:
            cell += [(name, SolverConfig(k=k, **_solver_settings(e)), None) for name, e in zip(names, spec.variants)]
        if k == 2:
            cell += [(_variant_name(base), SolverConfig(k=2, **dict(base, alpha=a)), a) for a in sweep]
        runs[k, r] = cell
    solve_cell = functools.partial(_solve_cell, knn=spec.knn, mode=spec.knn_mode)
    # Generators: each cell's data is sliced when the cell is sent to run.
    xs = (data[:, columns] for columns in samples.values())
    ys = (labels[columns] for columns in samples.values())
    configs = ([cfg for _, cfg, _ in cell] for cell in runs.values())
    records: list[RunRecord] = []
    # One registry for the call, so that a warning every worker's cell
    # raises shows once under the default filter.
    registry = {}
    with _cell_map(len(runs)) as cell_map:
        results = cell_map(solve_cell, xs, ys, (k for k, _ in runs), (spec.base_seed + r for _, r in runs), configs)
        for ((k, r), cell), ((init_hash, outcomes), caught) in zip(runs.items(), results):
            for message, category, filename, lineno in caught:
                module, module_globals = _module_of(filename)
                warnings.warn_explicit(message, category, filename, lineno, module, registry, module_globals)
            for (name, cfg, alpha), outcome in zip(cell, outcomes):
                if isinstance(outcome, Exception):
                    # Names the caller of run_experiment.
                    warnings.warn(f"variant {name!r} failed at k={k} repeat {r}: {outcome}", stacklevel=2)
                elif alpha is not None:
                    sweep[alpha].append(outcome["accuracy"])
                else:
                    records.append(RunRecord(variant=name, k=k, repeat=r, init_hash=init_hash, **outcome))
    for alpha, accuracies in sweep.items():
        if not accuracies:
            raise DataError(f"alpha sweep produced no successful runs at alpha={alpha}")
    table = tuple((alpha, float(np.array(accuracies).mean())) for alpha, accuracies in sweep.items())
    return AggregateReport(variants=names, rows=_aggregate(records, names, spec.k_range), sweep=table), records


def _solve_cell(x, labels, k, seed, configs, knn, mode):
    # One cell's work, on its own columns x and their labels: the graph,
    # (H0, W0) from seed, then a solve and an evaluation per config. Returns
    # (init_hash, outcomes). outcomes[i] is configs[i]'s RunRecord fields
    # from accuracy to trace, but init_hash, or the DataError or
    # NumericalError it failed with; a config listed twice is solved once.
    # Only those fields go back from a worker, not the factors.
    graph = build_knn_affinity(x, knn, mode)
    h0, w0 = init_factors(x, k, seed)
    solved = {}
    for cfg in configs:
        key = astuple(cfg)
        if key not in solved:
            try:
                result = solve(x, graph, cfg, h0, w0)
                report = evaluate(result.w, labels, k, seed=seed)
            except (DataError, NumericalError) as exc:
                solved[key] = exc
                continue
            solved[key] = {
                "accuracy": report.accuracy,
                "nmi": report.nmi,
                "iterations": result.iterations_run,
                "final_objective": float(result.trace[-1]),
                "converged": result.converged,
                "trace": result.trace,
            }
    init_hash = hashlib.sha256(h0.tobytes() + w0.tobytes()).hexdigest()[:16]
    return init_hash, [solved[astuple(cfg)] for cfg in configs]


def _recording(fn, *args):
    # fn(*args) in a worker, and each warning it raised, as warn_explicit's
    # (message, category, filename, lineno), for the parent to re-emit: a
    # worker's own warnings go nowhere the caller sees.
    with warnings.catch_warnings(record=True) as caught:
        result = fn(*args)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


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


@contextlib.contextmanager
def _cell_map(cells: int):
    # The map run_experiment sends its cells through. It yields, in order,
    # each cell's result and the warnings the cell raised in a worker; in
    # this process they are raised as they happen, and none are listed.
    # The cells run in this process for one worker, or when the process
    # has more than one thread (numpy's default OpenBLAS starts its own at
    # import, and after a fork at _single_threaded's product; with
    # OPENBLAS_NUM_THREADS=1 it does not); else in a process pool. The
    # pool forks, so workers start with numpy and the library already
    # imported; spawned workers import them afresh, which made a grid pass
    # slower than in one process. Cells are submitted two per
    # worker ahead of the one consumed, so the parent holds that many
    # cells' data, not the whole grid's. The pool is shut down and its
    # workers joined on the way out; on an error the cells submitted but
    # not started are dropped, not waited for.
    workers = _workers(cells)
    if workers == 1 or not _single_threaded():
        yield lambda fn, *iterables: ((result, ()) for result in map(fn, *iterables))
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))

    def pool_map(fn, *iterables):
        pending = collections.deque()
        for args in zip(*iterables):
            pending.append(pool.submit(_recording, fn, *args))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        yield pool_map
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _samples(spec: ExperimentSpec, labels):
    # Every cell's sampled columns, keyed by (k, repeat r), in the order
    # run_experiment runs them: the spec's k_range, then, for a sweep, k=2
    # unless k_range has it. They are drawn before the first run, so a spec
    # that asks more of the data than it holds fails before any solve.
    classes = np.unique(labels).size
    samples = {}
    asks = [("k_range", k) for k in spec.k_range] + ([("alpha_sweep", 2)] if spec.alpha_sweep else [])
    for key, k in asks:
        if k > classes:
            raise DataError(f"spec key '{key}': cannot sample {k} categories from the {classes} in the labels")
        for r in range(spec.repeats):
            if (k, r) not in samples:
                samples[k, r] = sample_categories(labels, k, spec.base_seed + r)
            size = samples[k, r].size
            if spec.knn >= size:
                raise DataError(
                    f"spec key 'knn' must be below every cell's sample count, got {spec.knn} "
                    f"for the {size} samples at k={k} repeat {r}"
                )
    return samples


def _aggregate(records, names, k_range) -> tuple[AggregateRow, ...]:
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
    """Raise DataError unless out_dir is missing or empty.

    emit_report makes this check before it writes anything; a caller makes
    it too before run_experiment, so a directory that cannot take the
    report fails before the runs, not after them.
    """
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise DataError(f"report directory {out_dir} is not empty; a report needs a new or empty one")


def emit_report(aggregate: AggregateReport, records, out_dir) -> None:
    """Write the report of a run_experiment result under out_dir.

    out_dir must be missing or empty (check_report_dir): one that holds any
    file, such as an earlier report's, is a DataError raised before
    anything is written, so no report mixes with another's leftovers.

    Layout, set by aggregate whichever runs failed:
      accuracy_table.csv   mean accuracy: a row per k, ascending; a column per
                           aggregate.variants entry, in the spec's order; a
                           cell with no successful run is empty
      nmi_table.csv        mean NMI, laid out the same
      runs.csv             one row per successful run, in records' order; a
                           column per RunRecord field but trace
      summary.json         aggregate.rows, in order
      alpha_sweep.csv      alpha,mean_accuracy; only when aggregate.sweep is non-empty
      traces/<variant>_k<k>_r<repeat>.csv   iteration,objective
    """
    if not records:
        raise DataError("no successful runs to report")
    check_report_dir(out_dir)
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    ks = sorted({row.k for row in aggregate.rows})
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
        json.dump({"aggregates": [asdict(row) for row in aggregate.rows]}, fh, indent=2)
        fh.write("\n")
    if aggregate.sweep:
        lines = (f"{alpha!r},{acc!r}" for alpha, acc in aggregate.sweep)
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
    reals = dict(corrupt_fraction=corrupt_fraction, separation=separation, spread=spread, outlier_scale=outlier_scale)
    for name, value in reals.items():
        _check_real(name, value)
    for name in ("spread", "outlier_scale"):
        if reals[name] < 0:
            raise DataError(f"{name} must be >= 0, got {reals[name]!r}")
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
