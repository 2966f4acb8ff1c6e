"""The files `mccgr experiment` writes on fixed inputs, pinned by SHA-256.

The inputs are the perfbench `grid` workload's: 10 classes x 30 samples,
256 features, heavy noise, data seed 0; k 2 to 5, the five variants, 5
repeats, 60 iterations, an alpha sweep over 1, 10 and 100, at base_seed 3.
The command writes 105 files. A change that moves any byte of them fails
here. A change that means to move results rewrites the manifest with

    PYTHONPATH=src python tests/test_artifacts.py

and names the changed files and the reason in CHANGES.md. The manifest also
records numpy, scipy and the BLAS each was built against: a mismatch under
another toolchain is reported as such, not as a code change.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from mccgr import make_synthetic, save_csv, save_labels
from mccgr.cli import main as cli_main

MANIFEST = Path(__file__).resolve().parent / "manifests" / "experiment.json"

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
    found = {"numpy": np.__version__, "scipy": scipy.__version__}
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        found[f"{module.__name__} blas"] = f"{blas.get('name')} {blas.get('version')}"
    return found


def experiment_digests(work) -> dict:
    """SHA-256 of every file `mccgr experiment` writes, by relative path."""
    x, y = make_synthetic(10, 30, 256, noise="heavy", seed=0)
    save_csv(x, os.path.join(work, "x.csv"))
    save_labels(y, os.path.join(work, "y.csv"))
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(SPEC, fh)
    out = os.path.join(work, "report")
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", out]) == 0
    digests = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def test_experiment_artifacts_match_the_manifest(tmp_path, capsys):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = experiment_digests(tmp_path)
    capsys.readouterr()
    want = manifest["files"]
    changed = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    if not changed:
        return
    summary = f"{len(changed)} of the {len(want)} pinned experiment files differ, first {changed[:3]}"
    here = toolchain()
    if here != manifest["toolchain"]:
        raise AssertionError(
            f"{summary}; the toolchain differs from the manifest's "
            f"({manifest['toolchain']} there, {here} here), so this need not be a code change"
        )
    raise AssertionError(
        f"{summary} on the manifest's own toolchain: results changed. If that is meant, "
        "rewrite the manifest (PYTHONPATH=src python tests/test_artifacts.py) and say why in CHANGES.md"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        files = experiment_digests(work)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"toolchain": toolchain(), "files": files}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {MANIFEST}", file=sys.stderr)
