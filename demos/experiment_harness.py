"""A full spec-driven experiment: grid, artifacts, and the alpha sweep.

One spec pins everything a rerun needs: dataset paths, cluster counts,
variant settings, repeat count, and the base seed. Repeat r of every
variant shares one seed (base_seed + r), one sampled subset, one graph,
and one random initialization, so variants differ only in the update
rule. Everything lands in CSV and JSON files that are byte-identical
across reruns.
"""

import json
import os
import tempfile

from mccgr import ExperimentSpec, alpha_sweep, emit_report, run_experiment, save_csv, save_labels
from mccgr.cli import main
from mccgr.harness import make_synthetic

with tempfile.TemporaryDirectory(prefix="mccgr_demo_") as work:
    x, labels = make_synthetic(
        3, 20, 50, noise="heavy", seed=42, separation=6.0, spread=0.2, outlier_scale=8.0
    )
    save_csv(x, os.path.join(work, "features.csv"))
    save_labels(labels, os.path.join(work, "labels.csv"))

    # The spec file is the experiment; dataset paths resolve against its directory.
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "dataset": {"features": "features.csv", "labels": "labels.csv"},
                "k_range": [3],
                "variants": [
                    {"variant": "l2", "max_iter": 300},
                    {"variant": "mcc", "theta": 1.0, "max_iter": 300},
                    {"variant": "mccgr", "alpha": 10.0, "theta": 1.0, "max_iter": 300},
                ],
                "repeats": 10,
                "base_seed": 0,
                "knn": 5,
                "alpha_sweep": [1.0, 10.0, 100.0],
            },
            fh,
            indent=2,
        )
    spec = ExperimentSpec.from_json(spec_path)

    aggregate, records = run_experiment(spec)
    print(f"{'variant':8s} {'k':>2s} {'accuracy':>16s} {'nmi':>16s}")
    for row in aggregate.rows:
        print(f"{row.variant:8s} {row.k:2d} {row.mean_accuracy:8.3f} +/- {row.std_accuracy:5.3f} "
              f"{row.mean_nmi:8.3f} +/- {row.std_nmi:5.3f}")
    print()

    out_dir = os.path.join(work, "report")
    emit_report(aggregate, records, out_dir)
    print("artifacts under report/:")
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            rel = os.path.relpath(os.path.join(root, name), out_dir)
            print(f"  {rel}")
    print()

    # The sweep reruns the protocol at k=2 for each alpha; clustering
    # quality should barely move across four orders of magnitude.
    print("alpha sweep (k=2):")
    for alpha, acc in alpha_sweep(spec):
        print(f"  alpha {alpha:8.1f}  mean accuracy {acc:.3f}")
    print()

    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    print(f"summary.json keys: {sorted(summary)}")
    print()

    # The same run from a shell, here through the CLI's entry point. It
    # writes the same files again, plus alpha_sweep.csv.
    cli_out = os.path.join(work, "cli_report")
    argv = ["experiment", "--spec", spec_path, "--out-dir", cli_out]
    print("the same run, from a shell:")
    print("  mccgr " + " ".join(argv))
    assert main(argv) == 0
    with open(os.path.join(out_dir, "runs.csv"), "rb") as a, open(os.path.join(cli_out, "runs.csv"), "rb") as b:
        print(f"runs.csv byte-identical to the library run: {a.read() == b.read()}")
