"""Command-line interface: subcommands, file outputs, exit codes."""

import json

import numpy as np
import pytest

from mccgr import load_labels, make_synthetic, read_matrix, save_csv, save_labels
from mccgr.cli import main


def write_dataset(tmp_path, classes=3, per_class=8, dim=12):
    x, y = make_synthetic(classes, per_class, dim, seed=0, separation=5.0, spread=0.2)
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    save_csv(x, xp)
    save_labels(y, yp)
    return str(xp), str(yp)


def test_synth_writes_matching_files(tmp_path):
    out = tmp_path / "x.csv"
    out_labels = tmp_path / "y.csv"
    code = main([
        "synth", "--classes", "3", "--per-class", "5", "--dim", "12",
        "--seed", "4", "--out", str(out), "--out-labels", str(out_labels),
    ])
    assert code == 0
    x = read_matrix(out)
    y = load_labels(out_labels)
    assert x.shape == (12, 15)
    assert y.shape == (15,)
    expect, _ = make_synthetic(3, 5, 12, seed=4)
    assert np.array_equal(x, expect)


def test_factorize_eval_graph_pipeline(tmp_path, capsys):
    xp, yp = write_dataset(tmp_path)
    out_h = tmp_path / "h.csv"
    out_w = tmp_path / "w.csv"
    trace = tmp_path / "trace.csv"
    code = main([
        "factorize", "--input", xp, "--variant", "mccgr", "--k", "3",
        "--alpha", "1.0", "--theta", "1.0", "--knn", "3",
        "--max-iter", "80", "--seed", "0",
        "--out-h", str(out_h), "--out-w", str(out_w), "--trace", str(trace),
    ])
    assert code == 0
    h = read_matrix(out_h)
    w = read_matrix(out_w)
    assert h.shape == (12, 3) and w.shape == (3, 24)
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,objective"
    assert len(lines) >= 3

    report = tmp_path / "report.json"
    code = main([
        "eval", "--w", str(out_w), "--labels", yp, "--k", "3",
        "--seed", "0", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {"accuracy", "nmi", "matching", "confusion"}
    assert 0.0 <= payload["accuracy"] <= 1.0

    affinity_path = tmp_path / "a.csv"
    code = main(["graph", "--input", xp, "--knn", "3", "--out", str(affinity_path)])
    assert code == 0
    a = read_matrix(affinity_path)
    assert a.shape == (24, 24)
    assert np.array_equal(a, a.T)
    out = capsys.readouterr().out
    assert "accuracy" in out and "edges" in out


def test_factorize_deterministic_across_runs(tmp_path):
    xp, _ = write_dataset(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out_h = tmp_path / f"h_{tag}.csv"
        out_w = tmp_path / f"w_{tag}.csv"
        assert main([
            "factorize", "--input", xp, "--variant", "mcc", "--k", "2",
            "--max-iter", "40", "--seed", "7",
            "--out-h", str(out_h), "--out-w", str(out_w),
        ]) == 0
        outs.append((out_h.read_bytes(), out_w.read_bytes()))
    assert outs[0] == outs[1]


def test_experiment_command(tmp_path, capsys):
    xp, yp = write_dataset(tmp_path)
    spec = {
        "dataset": {"features": "x.csv", "labels": "y.csv"},
        "k_range": [2],
        "variants": [
            {"variant": "l2", "max_iter": 40},
            {"variant": "mccgr", "alpha": 1.0, "max_iter": 40},
        ],
        "repeats": 2,
        "knn": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "report"
    code = main(["experiment", "--spec", str(spec_path), "--out-dir", str(out_dir)])
    assert code == 0
    for name in ("accuracy_table.csv", "nmi_table.csv", "runs.csv", "summary.json"):
        assert (out_dir / name).is_file()
    assert "report written" in capsys.readouterr().out
    # no output dir anywhere -> data error
    assert main(["experiment", "--spec", str(spec_path)]) == 2


def test_usage_errors_exit_1(capsys):
    for argv in (
        [],
        ["factorize"],
        ["factorize", "--input", "x.csv"],
        ["eval", "--w", "w.csv"],
        ["factorize", "--input", "x.csv", "--variant", "ridge", "--k", "2",
         "--out-h", "h.csv", "--out-w", "w.csv"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


def test_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main([
        "factorize", "--input", missing, "--variant", "l2", "--k", "2",
        "--out-h", str(tmp_path / "h.csv"), "--out-w", str(tmp_path / "w.csv"),
    ]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,-4\n")
    assert main([
        "factorize", "--input", str(bad), "--variant", "l2", "--k", "2",
        "--out-h", str(tmp_path / "h.csv"), "--out-w", str(tmp_path / "w.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert "mccgr:" in err


def test_mismatched_labels_exit_2(tmp_path, capsys):
    xp, _ = write_dataset(tmp_path)
    short = tmp_path / "short.csv"
    short.write_text("0\n1\n")
    assert main([
        "eval", "--w", xp, "--labels", str(short), "--k", "2",
        "--out", str(tmp_path / "r.json"),
    ]) == 2
    assert "mccgr:" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["l2", "kl", "grnmf", "mcc", "mccgr"])
def test_factorize_rejects_knn_below_one_for_every_variant(tmp_path, capsys, variant):
    xp, _ = write_dataset(tmp_path)
    h_path = tmp_path / "h.csv"
    assert main([
        "factorize", "--input", xp, "--variant", variant, "--k", "2", "--knn", "0",
        "--out-h", str(h_path), "--out-w", str(tmp_path / "w.csv"),
    ]) == 2
    assert "knn must be >= 1" in capsys.readouterr().err
    assert not h_path.exists()


def test_factorize_labels_option_is_gone(tmp_path, capsys):
    # factorize never read its labels; the option is now a usage error.
    xp, yp = write_dataset(tmp_path)
    h_path = tmp_path / "h.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "factorize", "--input", xp, "--labels", yp, "--variant", "l2", "--k", "2",
            "--out-h", str(h_path), "--out-w", str(tmp_path / "w.csv"),
        ])
    assert exc.value.code == 1
    assert "--labels" in capsys.readouterr().err
    assert not h_path.exists()
