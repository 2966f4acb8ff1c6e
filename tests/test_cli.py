"""Command-line interface: subcommands, file outputs, exit codes."""

import csv
import inspect
import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from mccgr import (
    VARIANTS,
    ExperimentSpec,
    SolverConfig,
    build_knn_affinity,
    load_labels,
    make_synthetic,
    read_matrix,
    save_csv,
    save_labels,
)
from mccgr.cli import _build_parser, main
from mccgr.harness import NOISES


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


def test_the_cli_runs_the_experiments_protocol(tmp_path):
    # With k the class count a cell holds every column in order, so run r of
    # a spec entry is `factorize` with the entry's settings at seed
    # base_seed + r, then `eval` of its W at that seed: the same trace
    # bytes, and the same scores as runs.csv writes them. The classes
    # overlap, so each run scores its own nmi.
    x, y = make_synthetic(3, 12, 20, noise="heavy", seed=0, separation=1.0, spread=0.5)
    save_csv(x, tmp_path / "x.csv")
    save_labels(y, tmp_path / "y.csv")
    entries = {
        "mccgr": {"variant": "mccgr", "alpha": 10.0, "theta": 2.0, "max_iter": 30},
        "kl": {"variant": "kl", "max_iter": 30},
        "mcc": {"variant": "mcc", "theta": 0.5, "max_iter": 30, "tol": 0.0},
    }
    spec = {
        "dataset": {"features": "x.csv", "labels": "y.csv"},
        "k_range": [3],
        "variants": list(entries.values()),
        "repeats": 2,
        "base_seed": 5,
        "knn": 4,
        "knn_mode": "symmetrized",
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    report = tmp_path / "report"
    assert main(["experiment", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(report)]) == 0
    with open(report / "runs.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len({row["nmi"] for row in rows}) == 6
    for row in rows:
        entry, seed = entries[row["variant"]], str(5 + int(row["repeat"]))
        settings = [arg for key, value in entry.items() for arg in (f"--{key.replace('_', '-')}", str(value))]
        w, trace, scores = tmp_path / "w.csv", tmp_path / "t.csv", tmp_path / "eval.json"
        assert main([
            "factorize", "--input", str(tmp_path / "x.csv"), "--k", "3", "--knn", "4", "--knn-mode", "symmetrized",
            *settings, "--seed", seed, "--out-h", str(tmp_path / "h.csv"), "--out-w", str(w), "--trace", str(trace),
        ]) == 0
        assert trace.read_bytes() == (report / "traces" / f"{row['variant']}_k3_r{row['repeat']}.csv").read_bytes()
        assert main(["eval", "--w", str(w), "--labels", str(tmp_path / "y.csv"), "--k", "3", "--seed", seed,
                     "--out", str(scores)]) == 0
        payload = json.loads(scores.read_text())
        assert (repr(payload["accuracy"]), repr(payload["nmi"])) == (row["accuracy"], row["nmi"])


def test_factorize_defaults_and_choices_are_solver_configs():
    parser = _build_parser()
    args = parser.parse_args([
        "factorize", "--input", "x.csv", "--variant", "l2", "--k", "2",
        "--out-h", "h.csv", "--out-w", "w.csv",
    ])
    defaults = SolverConfig(variant="l2", k=2)
    for f in fields(SolverConfig):
        assert getattr(args, f.name) == getattr(defaults, f.name), f.name
    factorize = parser._subparsers._group_actions[0].choices["factorize"]
    (variant,) = [action for action in factorize._actions if action.dest == "variant"]
    assert tuple(variant.choices) == VARIANTS
    # The neighbour rule's defaults are ExperimentSpec's, whose mode is the
    # graph builder's own.
    spec = ExperimentSpec(features_path="x.csv", labels_path="y.csv", k_range=(2,), variants=({"variant": "l2"},))
    assert (args.knn, args.knn_mode) == (spec.knn, spec.knn_mode)
    assert spec.knn_mode == inspect.signature(build_knn_affinity).parameters["mode"].default
    graph = parser.parse_args(["graph", "--input", "x.csv", "--knn", "3", "--out", "a.csv"])
    assert graph.knn_mode == spec.knn_mode


def test_synth_noise_default_and_choices_are_the_noise_kinds():
    parser = _build_parser()
    args = parser.parse_args([
        "synth", "--classes", "2", "--per-class", "3", "--dim", "4", "--out", "x.csv", "--out-labels", "y.csv",
    ])
    assert args.noise == NOISES[0] == inspect.signature(make_synthetic).parameters["noise"].default
    synth = parser._subparsers._group_actions[0].choices["synth"]
    (noise,) = [action for action in synth._actions if action.dest == "noise"]
    assert tuple(noise.choices) == NOISES
    for kind in NOISES:
        make_synthetic(2, 3, 4, noise=kind)


def _bad_k_range(spec):
    spec["k_range"] = 3


def _bad_max_iter(spec):
    spec["variants"][1]["max_iter"] = 2.5


def _bad_alpha(spec):
    spec["variants"][1]["alpha"] = "x"


def _bad_repeats(spec):
    spec["repeats"] = "many"


def _epsilon_key(spec):
    spec["variants"][0]["epsilon"] = 1e-9


def _output_dir_key(spec):
    spec["output_dir"] = "report"


def _kmeans_restarts_key(spec):
    spec["kmeans_restarts"] = 3


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_bad_k_range, "'k_range'"),
        (_bad_max_iter, "max_iter must be an integer"),
        (_bad_alpha, "alpha must be a real number"),
        (_bad_repeats, "'repeats'"),
        (_epsilon_key, "unknown variant keys ['epsilon']"),
        (_output_dir_key, "unknown spec keys ['output_dir']"),
        (_kmeans_restarts_key, "unknown spec keys ['kmeans_restarts']"),
    ],
)
def test_experiment_rejects_bad_spec_values_with_exit_2(tmp_path, capsys, spoil, message):
    write_dataset(tmp_path)
    spec = {
        "dataset": {"features": "x.csv", "labels": "y.csv"},
        "k_range": [2],
        "variants": [{"variant": "l2", "max_iter": 5}, {"variant": "mccgr", "alpha": 1.0, "max_iter": 5}],
        "repeats": 1,
        "knn": 3,
    }
    spoil(spec)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "report"
    assert main(["experiment", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("mccgr: ") and message in err
    assert not out_dir.exists()


def test_usage_errors_exit_1(capsys):
    for argv in (
        [],
        ["factorize"],
        ["factorize", "--input", "x.csv"],
        ["eval", "--w", "w.csv"],
        # The restart count is kmeans's own; no flag passes it along.
        ["eval", "--w", "w.csv", "--labels", "y.csv", "--k", "3", "--restarts", "3", "--out", "r.json"],
        ["experiment", "--spec", "spec.json"],
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


def test_a_numerical_failure_exits_3_and_writes_no_factors(tmp_path, capsys):
    # The start objective of this data overflows; before, l2 took its
    # infinite value as the scale of every change and exited 0, "converged
    # after 2 iterations". The overflow is one error, not a warning as well.
    xp = tmp_path / "x.csv"
    save_csv(np.random.default_rng(0).random((20, 30)) * 1e153, xp)
    out_h, out_w = tmp_path / "h.csv", tmp_path / "w.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "factorize", "--input", str(xp), "--variant", "l2", "--k", "3",
            "--seed", "0", "--out-h", str(out_h), "--out-w", str(out_w),
        ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("mccgr: numerical failure: l2: ")
    assert err.endswith(" at iteration 0\n") and err.count("\n") == 1
    assert not out_h.exists() and not out_w.exists()


def test_eval_of_coefficients_whose_squares_overflow_exits_3(tmp_path, capsys):
    # Before, k-means warned 8 times and the command wrote a report with
    # accuracy 0.525.
    wp, yp = tmp_path / "w.csv", tmp_path / "y.csv"
    save_csv(np.random.default_rng(0).random((3, 40)) * 1e200, wp)
    save_labels(np.repeat([0, 1], 20), yp)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--w", str(wp), "--labels", str(yp), "--k", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "mccgr: numerical failure: k-means: overflow encountered in multiply at iteration 0\n"
    assert not out.exists()


def test_mismatched_labels_exit_2(tmp_path, capsys):
    xp, _ = write_dataset(tmp_path)
    short = tmp_path / "short.csv"
    short.write_text("0\n1\n")
    assert main([
        "eval", "--w", xp, "--labels", str(short), "--k", "2",
        "--out", str(tmp_path / "r.json"),
    ]) == 2
    assert "mccgr:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["factorize", "eval", "synth"])
def test_a_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, command):
    xp, yp = write_dataset(tmp_path)
    out = str(tmp_path / "out")
    argv = {
        "factorize": ["factorize", "--input", xp, "--variant", "l2", "--k", "2", "--seed", "-1",
                      "--out-h", out, "--out-w", str(tmp_path / "w.csv")],
        "eval": ["eval", "--w", xp, "--labels", yp, "--k", "3", "--seed", "-2", "--out", out],
        "synth": ["synth", "--classes", "2", "--per-class", "3", "--dim", "4", "--seed", "-3",
                  "--out", out, "--out-labels", str(tmp_path / "y_out.csv")],
    }[command]
    assert main(argv) == 2
    seed = argv[argv.index("--seed") + 1]
    assert capsys.readouterr().err == f"mccgr: seed must be >= 0, got {seed}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", ["graph --input", "eval --labels", "experiment --spec"])
def test_a_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, reader):
    xp, _ = write_dataset(tmp_path)
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"0\n1\n0\n\xe9\n")
    out = str(tmp_path / "out")
    argv = {
        "graph --input": ["graph", "--input", str(bad), "--knn", "1", "--out", out],
        "eval --labels": ["eval", "--w", xp, "--labels", str(bad), "--k", "2", "--out", out],
        "experiment --spec": ["experiment", "--spec", str(bad), "--out-dir", out],
    }[reader]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mccgr: {bad}: not UTF-8 text (") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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


def test_knn_above_the_sample_count_is_named_as_the_neighbor_count(tmp_path, capsys):
    # The rank flag is --k; a bad --knn must not read as a bad rank.
    xp, _ = write_dataset(tmp_path)
    h_path = tmp_path / "h.csv"
    a_path = tmp_path / "a.csv"
    for argv in (
        ["factorize", "--input", xp, "--variant", "mccgr", "--k", "2", "--knn", "5000",
         "--out-h", str(h_path), "--out-w", str(tmp_path / "w.csv")],
        ["graph", "--input", xp, "--knn", "5000", "--out", str(a_path)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "neighbor count knn" in err and "knn=5000" in err and "n=24 samples" in err
        assert " k=5000" not in err
    assert not h_path.exists() and not a_path.exists()


def test_factorize_rejects_a_nan_tolerance(tmp_path, capsys):
    # NaN passes every range comparison; it must not run to max-iter and exit 0.
    xp, _ = write_dataset(tmp_path)
    h_path = tmp_path / "h.csv"
    assert main([
        "factorize", "--input", xp, "--variant", "l2", "--k", "2", "--tol", "nan",
        "--out-h", str(h_path), "--out-w", str(tmp_path / "w.csv"),
    ]) == 2
    assert "tol must be finite" in capsys.readouterr().err
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


def test_a_programming_error_propagates_out_of_main(tmp_path, monkeypatch):
    # Before, any ValueError, a bug's included, was reported as a data error.
    xp, _ = write_dataset(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr("mccgr.cli.solve", broken)
    argv = ["factorize", "--input", xp, "--variant", "l2", "--k", "2",
            "--out-h", str(tmp_path / "h.csv"), "--out-w", str(tmp_path / "w.csv")]
    with pytest.raises(ValueError, match="^a bug$"):
        main(argv)


def test_a_dataset_path_with_a_nul_exits_2_naming_the_path(tmp_path, capsys):
    write_dataset(tmp_path)
    spec = {
        "dataset": {"features": "x\u0000.csv", "labels": "y.csv"},
        "k_range": [2],
        "variants": [{"variant": "l2", "max_iter": 5}],
        "repeats": 1,
        "knn": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert repr(str(tmp_path / "x\0.csv")) in err and "null byte" in err
    assert not (tmp_path / "out").exists()
