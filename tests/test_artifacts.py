"""The files the `mccgr` commands write on fixed inputs, pinned by SHA-256.

`tests/manifests/experiment.json` pins `mccgr experiment` on the perfbench
`grid` workload's inputs: 10 classes x 30 samples, 256 features, heavy
noise, data seed 0; k 2 to 5, the five variants, 5 repeats, 60
iterations, an alpha sweep over 1, 10 and 100, at base_seed 3. The
command writes 105 files.

`tests/manifests/cli.json` pins `graph`, `factorize --trace` and `eval` on
4 classes x 10 samples, 40 features, heavy noise, data seed 0: for both
graph modes, the affinity, and for each of the five variants at k 4, the
factors, the objective trace and the evaluation report.

A change that moves any byte of them fails here. A change that means to
move results rewrites both manifests with

    PYTHONPATH=src python tests/test_artifacts.py

and names the changed files and the reason in CHANGES.md. Each manifest
also records numpy and the BLAS it was built against, the only libraries
the package computes with: a mismatch under another toolchain is reported
as such, not as a code change.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import mccgr
from mccgr import VARIANTS, make_synthetic, save_csv, save_labels
from mccgr.cli import main as cli_main
from mccgr.graph import MODES

MANIFESTS = Path(__file__).resolve().parent / "manifests"

SPEC = {
    "dataset": {"features": "x.csv", "labels": "y.csv"},
    "k_range": [2, 3, 4, 5],
    "variants": [
        {"variant": "l2", "max_iter": 60},
        {"variant": "kl", "max_iter": 60},
        {"variant": "grnmf", "alpha": 10.0, "max_iter": 60},
        {"variant": "mcc", "max_iter": 60},
        {"variant": "mccgr", "alpha": 10.0, "max_iter": 60},
    ],
    "repeats": 5,
    "base_seed": 3,
    "knn": 5,
    "alpha_sweep": [1.0, 10.0, 100.0],
}


def toolchain() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "numpy blas": f"{blas.get('name')} {blas.get('version')}"}


def digests(out) -> dict:
    """SHA-256 of every file under out, by relative path."""
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def experiment_digests(work) -> dict:
    """The files `mccgr experiment` writes."""
    x, y = make_synthetic(10, 30, 256, noise="heavy", seed=0)
    save_csv(x, os.path.join(work, "x.csv"))
    save_labels(y, os.path.join(work, "y.csv"))
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(SPEC, fh)
    out = os.path.join(work, "report")
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", out]) == 0
    return digests(out)


def cli_digests(work) -> dict:
    """The files `graph`, `factorize --trace` and `eval` write, per graph mode."""
    x, y = make_synthetic(4, 10, 40, noise="heavy", seed=0)
    xp, yp = os.path.join(work, "x.csv"), os.path.join(work, "y.csv")
    save_csv(x, xp)
    save_labels(y, yp)
    out = os.path.join(work, "cli")
    for mode in MODES:
        os.makedirs(os.path.join(out, mode))
        graph = ["--knn", "5", "--knn-mode", mode]
        assert cli_main(["graph", "--input", xp, *graph, "--out", os.path.join(out, mode, "affinity.csv")]) == 0
        for variant in VARIANTS:
            prefix = os.path.join(out, mode, variant)
            assert cli_main([
                "factorize", "--input", xp, "--variant", variant, "--k", "4", *graph,
                "--max-iter", "60", "--seed", "3", "--out-h", f"{prefix}_h.csv",
                "--out-w", f"{prefix}_w.csv", "--trace", f"{prefix}_trace.csv",
            ]) == 0
            assert cli_main([
                "eval", "--w", f"{prefix}_w.csv", "--labels", yp, "--k", "4", "--seed", "3",
                "--out", f"{prefix}_eval.json",
            ]) == 0
    return digests(out)


PINNED = {"experiment": experiment_digests, "cli": cli_digests}


def check(name, got) -> None:
    """Fail, naming the differing files, unless got equals manifests/<name>.json."""
    manifest = json.loads((MANIFESTS / f"{name}.json").read_text(encoding="utf-8"))
    want = manifest["files"]
    changed = sorted(path for path in set(got) | set(want) if got.get(path) != want.get(path))
    if not changed:
        return
    summary = f"{len(changed)} of the {len(want)} pinned {name} files differ, first {changed[:3]}"
    here = toolchain()
    if here != manifest["toolchain"]:
        raise AssertionError(
            f"{summary}; the toolchain differs from the manifest's "
            f"({manifest['toolchain']} there, {here} here), so this need not be a code change"
        )
    raise AssertionError(
        f"{summary} on the manifest's own toolchain: results changed. If that is meant, "
        "rewrite the manifests (PYTHONPATH=src python tests/test_artifacts.py) and say why in CHANGES.md"
    )


def test_experiment_artifacts_match_the_manifest(tmp_path, capsys):
    got = experiment_digests(tmp_path)
    capsys.readouterr()
    check("experiment", got)


def test_cli_artifacts_match_the_manifest(tmp_path, capsys):
    got = cli_digests(tmp_path)
    capsys.readouterr()
    check("cli", got)


@pytest.mark.parametrize(
    "threads",
    [1, pytest.param(2, marks=pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two allowed CPUs"
    ))],
)
def test_both_manifests_match_at_each_blas_thread_count(tmp_path, threads):
    # The suite runs numpy at its default thread count, which is one on a
    # one-CPU host, while the benchmark pins BLAS to one thread, under which
    # a product can round otherwise and the experiment's cells run in worker
    # processes. A fresh process pinned to each count checks both manifests
    # there. OpenBLAS runs no more threads than the process has CPUs, so the
    # two-thread case needs two.
    here = Path(__file__).resolve().parent
    src = Path(mccgr.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), str(here), os.environ.get("PYTHONPATH")) if p)
    script = (
        "import os, sys, test_artifacts as t\n"
        "for name, make in t.PINNED.items():\n"
        "    work = os.path.join(sys.argv[1], name)\n"
        "    os.mkdir(work)\n"
        "    t.check(name, make(work))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


if __name__ == "__main__":
    MANIFESTS.mkdir(exist_ok=True)
    for name, make in PINNED.items():
        with tempfile.TemporaryDirectory() as work:
            files = make(work)
        path = MANIFESTS / f"{name}.json"
        path.write_text(json.dumps({"toolchain": toolchain(), "files": files}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(files)} digests to {path}", file=sys.stderr)
