#!/usr/bin/env python3
"""mccgr benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Workloads are ``grid``, ``large_solve`` and ``cli_io`` (see workloads.py and
BENCHMARK.json). The run sets up ``SETUP_ROUNDS`` times, each time a fresh
workload: it makes the inputs and runs one untimed warm-up pass over them,
which also fixes the reference outputs; ``setup_s`` is the median time of a
round. The last round's workload then repeats timed and checked passes until
``--seconds`` have elapsed. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer split of the traced ones. Scratch files go to
``.perfbench_out/`` under the repository root; the traced run also leaves
its per-function table there.

mccgr is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits 2 and prints no result.
"""

import os

# One BLAS thread, set before numpy loads: the single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import layers  # noqa: E402
import machine  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_ROUNDS = 5


def import_mccgr():
    """Import mccgr from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, SRC)
    try:
        import mccgr
    except ImportError as exc:
        print(f"perfbench: cannot import mccgr from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(mccgr.__file__).startswith(SRC + os.sep):
        print(f"perfbench: mccgr resolved to {mccgr.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mccgr


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _fmt(values):
    return [round(v, 4) for v in values]


def _one_pass(wl, out_root, index, tracer=None):
    """Run and check one pass; returns (wall seconds, Outcome, trace or None)."""
    out_dir = os.path.join(out_root, f"pass-{index}")
    os.makedirs(out_dir)
    if tracer is not None:
        tracer.clear()
        tracer.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        outputs = wl.job(out_dir)
        wall = time.perf_counter() - start
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summarize(wall)
    outcome = wl.check(out_dir, outputs, [str(w.message) for w in caught])
    shutil.rmtree(out_dir)
    return wall, outcome, summary


def run(workload, seed, seconds, trace, params=None):
    """Run one workload; returns (result dict, report lines, trace record)."""
    import workloads  # imports mccgr, so only after import_mccgr()

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        setup_times, outcomes = [], []
        for r in range(SETUP_ROUNDS):
            # One round: a fresh workload, its inputs, its warm-up pass.
            wl = workloads.WORKLOADS[workload](seed, params)
            inputs = os.path.join(work, f"inputs-{r}")
            os.makedirs(inputs)
            gc.collect()
            start = time.perf_counter()
            wl.setup(inputs)
            made = time.perf_counter() - start
            wl.prepare()  # untimed: the reference the checks compare with
            warm_wall, warm, _ = _one_pass(wl, work, f"warmup-{r}")
            outcomes.append(warm)
            setup_times.append(made + warm_wall)
            if r:
                shutil.rmtree(os.path.join(work, f"inputs-{r - 1}"))
        tracer = Tracer() if trace else None
        walls, traced_walls, traced, traced_outcomes = [], [], [], []
        loop_start = time.perf_counter()
        index = 0
        while time.perf_counter() - loop_start < seconds or not walls or (trace and not traced):
            use_tracer = tracer if trace and index % 2 == 1 else None
            wall, outcome, summary = _one_pass(wl, work, index, use_tracer)
            outcomes.append(outcome)
            index += 1
            if summary is None:
                walls.append(wall)
            else:
                traced_walls.append(wall)
                traced.append(summary)
                traced_outcomes.append(outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    # Every pass must match the first byte for byte (checked), so the quality
    # of the run is that of its first pass.
    acc, nmi = warm.accuracy, warm.nmi
    lines = [
        f"workload {workload} seed {seed}: setup rounds (inputs and warm-up pass) {_fmt(setup_times)} s",
        f"untraced passes ({len(walls)}): {_fmt(walls)} s (median {_median(walls):.4f})",
        json.dumps({"machine": machine.describe()}),
    ]
    lines += [f"check failed: {p}" for p in problems[:20]]
    record = None
    if trace:
        lines.append(f"traced passes ({len(traced_walls)}): {_fmt(traced_walls)} s")
        metrics, record = layers.per_layer(workload, traced, traced_outcomes, tracer.wrapped, walls)
        lines += layers.report_lines(record)
    else:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "wall_s": (_median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "accuracy_mean": (statistics.fmean(acc) if acc else 0.0, "fraction"),
            "nmi_mean": (statistics.fmean(nmi) if nmi else 0.0, "fraction"),
            "ok_frac": ((attempted - failed) / attempted if attempted else 0.0, "fraction"),
        }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mccgr benchmark")
    parser.add_argument("--workload", required=True, choices=["grid", "large_solve", "cli_io"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_mccgr()
    result, lines, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if record is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        lines.append(f"per-function trace written to {os.path.relpath(path, ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
