"""Experiment protocol: sampling, spec parsing, the grid runner, reports."""

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mccgr
from mccgr import (
    DataError,
    ExperimentSpec,
    emit_report,
    make_synthetic,
    run_experiment,
    sample_categories,
    save_csv,
    save_labels,
)
from mccgr.cli import main as cli_main


def small_dataset(tmp_path, classes=3, per_class=8, dim=12, seed=0):
    x, y = make_synthetic(classes, per_class, dim, seed=seed, separation=5.0, spread=0.2)
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    save_csv(x, xp)
    save_labels(y, yp)
    return str(xp), str(yp)


def small_spec(tmp_path, **overrides):
    xp, yp = small_dataset(tmp_path)
    kwargs = dict(
        features_path=xp,
        labels_path=yp,
        k_range=(2, 3),
        variants=(
            {"variant": "l2", "max_iter": 40},
            {"variant": "mccgr", "alpha": 1.0, "theta": 1.0, "max_iter": 40},
        ),
        repeats=2,
        base_seed=0,
        knn=3,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_sample_categories_protocol():
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    for seed in range(10):
        cols = sample_categories(labels, 2, seed)
        assert np.array_equal(cols, sample_categories(labels, 2, seed))
        chosen = np.unique(labels[cols])
        assert len(chosen) == 2
        # original column order preserved and complete for chosen classes
        assert np.array_equal(cols, np.flatnonzero(np.isin(labels, chosen)))
    full = sample_categories(labels, 4, 0)
    assert np.array_equal(full, np.arange(8))
    with pytest.raises(DataError):
        sample_categories(labels, 5, 0)
    with pytest.raises(DataError):
        sample_categories(labels, 0, 0)


def test_spec_validation(tmp_path):
    with pytest.raises(DataError, match="k >= 2"):
        small_spec(tmp_path, k_range=(1,))
    with pytest.raises(DataError, match="k_range"):
        small_spec(tmp_path, k_range=())
    with pytest.raises(DataError, match="variants"):
        small_spec(tmp_path, variants=())
    with pytest.raises(DataError, match="unknown variant keys"):
        small_spec(tmp_path, variants=({"variant": "l2", "seeed": 3},))
    with pytest.raises(DataError, match="duplicate"):
        small_spec(tmp_path, variants=({"variant": "l2"}, {"variant": "l2"}))
    with pytest.raises(DataError, match="variant"):
        small_spec(tmp_path, variants=({"alpha": 1.0},))
    with pytest.raises(DataError, match="repeats"):
        small_spec(tmp_path, repeats=0)
    with pytest.raises(DataError, match="knn_mode"):
        small_spec(tmp_path, knn_mode="best")
    # same solver twice under distinct names is legal
    spec = small_spec(
        tmp_path,
        variants=(
            {"name": "a1", "variant": "mccgr", "alpha": 1.0},
            {"name": "a2", "variant": "mccgr", "alpha": 2.0},
        ),
    )
    assert len(spec.variants) == 2


def test_spec_from_json_resolves_relative_paths(tmp_path):
    sub = tmp_path / "exp"
    sub.mkdir()
    small_dataset(sub)
    payload = {
        "dataset": {"features": "x.csv", "labels": "y.csv"},
        "k_range": [2],
        "variants": [{"variant": "l2"}],
        "repeats": 3,
    }
    path = sub / "spec.json"
    path.write_text(json.dumps(payload))
    spec = ExperimentSpec.from_json(path)
    assert spec.features_path == str(sub / "x.csv")
    assert spec.labels_path == str(sub / "y.csv")
    assert spec.k_range == (2,) and spec.repeats == 3


def test_spec_from_json_errors(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="invalid JSON"):
        ExperimentSpec.from_json(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DataError, match="JSON object"):
        ExperimentSpec.from_json(path)
    path.write_text(json.dumps({"dataset": {"features": "x"}, "k_range": [2]}))
    with pytest.raises(DataError, match="dataset"):
        ExperimentSpec.from_json(path)
    path.write_text(
        json.dumps({"dataset": {"features": "x", "labels": "y"}, "kk_range": [2]})
    )
    with pytest.raises(DataError, match="unknown spec keys"):
        ExperimentSpec.from_json(path)
    # A misspelt dataset key was ignored, unlike a misspelt top-level one.
    path.write_text(
        json.dumps({"dataset": {"features": "x", "labels": "y", "lables": "z"}, "k_range": [2], "variants": []})
    )
    with pytest.raises(DataError, match=r"unknown dataset keys \['lables'\]"):
        ExperimentSpec.from_json(path)


def test_spec_from_json_takes_the_dataclass_defaults(tmp_path):
    small_dataset(tmp_path)
    payload = {
        "dataset": {"features": "x.csv", "labels": "y.csv"},
        "k_range": [2],
        "variants": [{"variant": "l2"}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    spec = ExperimentSpec.from_json(path)
    direct = ExperimentSpec(
        features_path=str(tmp_path / "x.csv"), labels_path=str(tmp_path / "y.csv"),
        k_range=(2,), variants=({"variant": "l2"},),
    )
    assert spec == direct
    for key in ("k_range", "variants"):
        path.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
        with pytest.raises(DataError, match=f"spec needs {key}"):
            ExperimentSpec.from_json(path)
    path.write_text(json.dumps(dict(payload, dataset={"features": 3, "labels": "y.csv"})))
    with pytest.raises(DataError, match="dataset"):
        ExperimentSpec.from_json(path)
    bad_values = (
        ("alpha_sweep", ["x"]), ("variants", [1]), ("k_range", [2.9]), ("repeats", 1.7),
        ("knn", True),
    )
    for key, value in bad_values:
        path.write_text(json.dumps(dict(payload, **{key: value})))
        with pytest.raises(DataError, match=f"spec key '{key}'"):
            ExperimentSpec.from_json(path)


@pytest.mark.parametrize(
    "variants, advice",
    [
        # Both entries have a name, so another name key cannot help.
        (({"variant": "l2", "name": "A"}, {"variant": "mcc", "name": "a"}), ""),
        (({"variant": "l2"}, {"variant": "L2"}), "; add a 'name' key"),
        (({"variant": "mcc"}, {"variant": "l2", "name": "MCC"}), "; add a 'name' key"),
    ],
)
def test_a_duplicate_variant_name_says_names_ignore_case(variants, advice):
    # Before, "A" and "a" were told to add the name key they both had.
    with pytest.raises(DataError) as caught:
        ExperimentSpec(features_path="x.csv", labels_path="y.csv", k_range=(2,), variants=variants)
    name = variants[1].get("name", variants[1]["variant"]).lower()
    assert str(caught.value) == (
        f"spec key 'variants': duplicate variant name {name!r} (names are case-insensitive){advice}"
    )


def test_spec_rejects_bad_solver_settings_before_any_run(tmp_path):
    with pytest.raises(DataError, match="variant 'fast': alpha must be >= 0"):
        small_spec(tmp_path, variants=({"name": "fast", "variant": "grnmf", "alpha": -1.0},))


# (key, value) pairs that ExperimentSpec(...) and from_json must both reject,
# with the same message, before any data is read.
BAD_SPEC_VALUES = [
    pytest.param("repeats", 2.5, id="repeats-float"),
    pytest.param("alpha_sweep", ["x"], id="alpha_sweep-string"),
    pytest.param("alpha_sweep", [-1.0], id="alpha_sweep-negative"),
    pytest.param("alpha_sweep", [float("nan")], id="alpha_sweep-nan"),
    pytest.param("alpha_sweep", [1.0, 1], id="alpha_sweep-repeated"),
    pytest.param("knn", 0, id="knn-zero"),
    pytest.param("base_seed", -3, id="base_seed-negative"),
    pytest.param("k_range", [2, 2], id="k_range-repeated"),
    pytest.param("variants", [1], id="variants-int"),
    pytest.param("variants", [{"variant": "l2", "name": "../../evil"}], id="name-path"),
    pytest.param("variants", [{"variant": "l2", "name": "a,b"}], id="name-comma"),
    pytest.param("variants", [{"variant": "l2", "name": ""}], id="name-empty"),
    pytest.param("variants", [{"variant": "l2", "name": 5}], id="name-int"),
]


def bad_spec_payload(key, value):
    payload = {
        "dataset": {"features": "x.csv", "labels": "y.csv"},
        "k_range": [2],
        "variants": [{"variant": "l2", "max_iter": 5}],
        "repeats": 2,
        "knn": 3,
    }
    payload[key] = value
    return payload


@pytest.mark.parametrize("key", ["features_path", "labels_path"])
def test_spec_refuses_a_dataset_path_that_is_not_a_string(tmp_path, key):
    # from_json checks the dataset paths itself; a spec built in Python
    # with a pathlib path or None is refused by the constructor.
    paths = {"features_path": str(tmp_path / "x.csv"), "labels_path": str(tmp_path / "y.csv")}
    for bad in (tmp_path / "x.csv", None):
        with pytest.raises(DataError) as caught:
            ExperimentSpec(**dict(paths, **{key: bad}), k_range=(2,), variants=({"variant": "l2"},))
        assert str(caught.value) == f"spec key '{key}' must be a string, got {bad!r}"


@pytest.mark.parametrize("key, value", BAD_SPEC_VALUES)
def test_spec_checks_are_the_same_from_python_and_from_json(tmp_path, key, value):
    payload = bad_spec_payload(key, value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    settings = {name: setting for name, setting in payload.items() if name != "dataset"}
    with pytest.raises(DataError) as built:
        ExperimentSpec(features_path=str(tmp_path / "x.csv"), labels_path=str(tmp_path / "y.csv"), **settings)
    with pytest.raises(DataError) as read:
        ExperimentSpec.from_json(path)
    assert f"spec key '{key}'" in str(built.value)
    assert str(read.value) == f"{path}: {built.value}"


@pytest.mark.parametrize("key, value", BAD_SPEC_VALUES)
def test_experiment_rejects_a_bad_spec_before_reading_data(tmp_path, capsys, monkeypatch, key, value):
    small_dataset(tmp_path)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(bad_spec_payload(key, value)))
    reads = counting(monkeypatch, "read_matrix")
    label_reads = counting(monkeypatch, "load_labels")
    out = tmp_path / "out"
    assert cli_main(["experiment", "--spec", str(path), "--out-dir", str(out / "report")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("mccgr: ") and f"spec key '{key}'" in err
    assert not out.exists()
    assert reads == [] and label_reads == []


@pytest.mark.parametrize(
    "key, overrides",
    [
        # 3 classes in the data; the k=2 cells come first and would run.
        ("k_range", dict(k_range=(2, 4))),
        # k=3 cells hold 24 samples and k=2 cells 16.
        ("knn", dict(k_range=(3, 2), knn=16)),
        ("knn", dict(k_range=(3,), knn=16, alpha_sweep=(1.0,))),
    ],
)
def test_experiment_rejects_a_spec_the_data_cannot_serve_before_any_solve(tmp_path, capsys, monkeypatch, key, overrides):
    spec_path = write_spec_file(tmp_path, small_spec(tmp_path, **overrides))
    solves = counting(monkeypatch, "solve")
    out = tmp_path / "out"
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out / "report")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("mccgr: ") and f"spec key '{key}'" in err
    assert not out.exists()
    assert solves == []


def test_experiment_rejects_a_label_file_one_row_short_before_any_solve(tmp_path, capsys, monkeypatch):
    # k_range asks for 4 of the 3 categories too, and is checked only after
    # the labels are paired with the feature columns.
    spec = small_spec(tmp_path, k_range=(2, 4))
    save_labels(make_synthetic(3, 8, 12, seed=0)[1][:-1], spec.labels_path)
    spec_path = write_spec_file(tmp_path, spec)
    solves = counting(monkeypatch, "solve")
    out = tmp_path / "out"
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out / "report")]) == 2
    assert capsys.readouterr().err == "mccgr: label count 23 does not match sample count 24\n"
    assert not out.exists()
    assert solves == []


def test_experiment_reports_the_features_file_then_the_labels_file(tmp_path):
    spec = small_spec(tmp_path)
    with open(spec.labels_path, "a") as fh:
        fh.write("x\n")
    with pytest.raises(DataError, match="non-integer label"):
        run_experiment(spec)
    with open(spec.features_path, "a") as fh:
        fh.write("-1" + ",0" * 23 + "\n")
    with pytest.raises(DataError, match="negative entry"):
        run_experiment(spec)


def test_a_sweep_alpha_without_a_successful_run_gets_an_empty_cell(tmp_path, capsys, monkeypatch):
    # Every k=2 run fails, so the sweep's alpha 10 has no accuracy to average,
    # while the k=3 grid cells succeed. Before, no report was written.
    spec_path = write_spec_file(tmp_path, small_spec(tmp_path, alpha_sweep=(10.0,)))
    real_solve = mccgr.harness.solve

    def fail_k2(x, graph, cfg, h0, w0, **kwargs):
        if cfg.k == 2:
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", fail_k2)
    out = tmp_path / "report"
    code = cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)])
    assert code == 3
    # 2 variants x 2 repeats at k=2, and the sweep's alpha 10 at both repeats.
    assert capsys.readouterr().err == "mccgr: numerical failure: 6 of the runs failed; see the status column of runs.csv\n"
    assert (out / "alpha_sweep.csv").read_text() == "alpha,mean_accuracy,runs\n10.0,,0\n"
    statuses = [line.split(",")[-1] for line in (out / "runs.csv").read_text().splitlines()[1:]]
    assert statuses == ["NumericalError"] * 4 + ["ok"] * 4
    assert json.loads((out / "summary.json").read_text())["failed"] == 6
    # A k where every run failed keeps its row, with every cell empty.
    assert (out / "accuracy_table.csv").read_text().splitlines()[:2] == ["k,l2,mccgr", "2,,"]


def test_run_experiment_grid_and_shared_inits(tmp_path):
    spec = small_spec(tmp_path)
    aggregate, records = run_experiment(spec)
    # full grid: 2 ks x 2 repeats x 2 variants
    assert len(records) == 8
    assert len(aggregate.rows) == 4
    cells = {}
    for rec in records:
        assert rec.variant in ("l2", "mccgr")
        assert rec.k in (2, 3)
        assert 0.0 <= rec.accuracy <= 1.0 and 0.0 <= rec.nmi <= 1.0
        assert rec.iterations >= 1 and np.isfinite(rec.final_objective)
        assert len(rec.init_hash) == 16
        cells.setdefault((rec.k, rec.repeat), set()).add(rec.init_hash)
    # all variants in a (k, repeat) cell share one (h0, w0) draw
    assert all(len(hashes) == 1 for hashes in cells.values())
    # distinct repeats draw distinct inits
    assert len({next(iter(v)) for v in cells.values()}) == len(cells)


def test_run_experiment_deterministic(tmp_path):
    spec = small_spec(tmp_path)
    agg_a, recs_a = run_experiment(spec)
    agg_b, recs_b = run_experiment(spec)
    assert agg_a.rows == agg_b.rows
    for a, b in zip(recs_a, recs_b):
        assert (a.variant, a.k, a.repeat) == (b.variant, b.k, b.repeat)
        assert a.accuracy == b.accuracy and a.nmi == b.nmi
        assert a.final_objective == b.final_objective
        assert np.array_equal(a.trace, b.trace)


def test_aggregate_population_std(tmp_path):
    spec = small_spec(tmp_path, k_range=(2,), repeats=3)
    aggregate, records = run_experiment(spec)
    for row in aggregate.rows:
        accs = np.array(
            [r.accuracy for r in records if r.variant == row.variant and r.k == row.k]
        )
        assert row.repeats == 3
        assert row.mean_accuracy == pytest.approx(accs.mean(), abs=1e-15)
        assert row.std_accuracy == pytest.approx(accs.std(ddof=0), abs=1e-15)
    # a single repeat yields zero deviation, never NaN
    one = small_spec(tmp_path, k_range=(2,), repeats=1)
    agg_one, _ = run_experiment(one)
    assert all(row.std_accuracy == 0.0 and row.std_nmi == 0.0 for row in agg_one.rows)


def test_run_experiment_isolates_variant_failures(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), repeats=2)
    real_solve = mccgr.harness.solve

    def flaky(x, graph, cfg, h0, w0, **kwargs):
        if cfg.variant == "mccgr":
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", flaky)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aggregate, records = run_experiment(spec)
    assert caught == []
    assert [(rec.variant, rec.repeat, rec.status) for rec in records] == [
        ("l2", 0, "ok"), ("mccgr", 0, "NumericalError"), ("l2", 1, "ok"), ("mccgr", 1, "NumericalError")
    ]
    for rec in records[1::2]:
        assert np.isnan(rec.accuracy) and np.isnan(rec.nmi) and np.isnan(rec.final_objective)
        assert rec.iterations == 0 and rec.converged is False and rec.trace.size == 0
    assert aggregate.failed == 2
    assert [(row.variant, row.repeats) for row in aggregate.rows] == [("l2", 2)]


def test_run_experiment_propagates_programming_errors(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), repeats=1)

    def broken(x, graph, cfg, h0, w0, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(mccgr.harness, "solve", broken)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_experiment(spec)


def test_a_failed_run_is_a_record_not_a_warning(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), repeats=2, alpha_sweep=(1.0, 10.0))
    real_solve = mccgr.harness.solve

    def fail_repeat_0(x, graph, cfg, h0, w0, **kwargs):
        # Fails every run of repeat 0, so each alpha keeps one success.
        if np.array_equal(h0, mccgr.init_factors(x, cfg.k, spec.base_seed)[0]):
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", fail_repeat_0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aggregate, records = run_experiment(spec)
    assert caught == []
    assert [rec.status for rec in records] == ["NumericalError", "NumericalError", "ok", "ok"]
    # l2 and mccgr at repeat 0, the sweep's alpha 1 reusing mccgr's failed
    # run, and its alpha 10.
    assert aggregate.failed == 4
    assert all(row.repeats == 1 for row in aggregate.rows)
    (repeat_1,) = [rec for rec in records if rec.variant == "mccgr" and rec.status == "ok"]
    assert aggregate.sweep[0][:2] == (1.0, repeat_1.accuracy)
    # Each alpha's mean is over its one run that succeeded, and says so.
    assert [(alpha, runs) for alpha, _, runs in aggregate.sweep] == [(1.0, 1), (10.0, 1)]


def test_dataset_loaded_once_per_grid_and_per_sweep(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), repeats=1)
    reads = counting(monkeypatch, "read_matrix")
    label_reads = counting(monkeypatch, "load_labels")
    run_experiment(spec)
    assert len(reads) == 1 and len(label_reads) == 1
    for alphas in [(1.0,), (0.1, 1.0, 10.0, 100.0)]:
        reads.clear()
        label_reads.clear()
        aggregate, _ = run_experiment(replace(spec, alpha_sweep=alphas))
        assert len(aggregate.sweep) == len(alphas)
        assert len(reads) == 1 and len(label_reads) == 1


def test_alpha_sweep_table(tmp_path):
    spec = small_spec(
        tmp_path,
        variants=({"variant": "mccgr", "alpha": 1.0, "theta": 1.0, "max_iter": 40},),
        alpha_sweep=(10.0, 0.1, 1.0),
        repeats=2,
    )
    table = run_experiment(spec)[0].sweep
    assert [alpha for alpha, _, _ in table] == [0.1, 1.0, 10.0]
    assert all(0.0 <= acc <= 1.0 and runs == 2 for _, acc, runs in table)
    assert table == run_experiment(spec)[0].sweep
    assert table == sweep_oracle(spec)
    assert run_experiment(small_spec(tmp_path))[0].sweep == ()


def test_write_alpha_sweep_format(tmp_path):
    aggregate, records = run_experiment(small_spec(tmp_path, k_range=(2,)))
    out = tmp_path / "report"
    emit_report(replace(aggregate, sweep=((0.1, 0.5, 2), (1.0, 0.875, 1))), records, out)
    lines = (out / "alpha_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,mean_accuracy,runs"
    assert lines[1] == "0.1,0.5,2"
    assert lines[2] == "1.0,0.875,1"
    assert len(lines) == 3


def tree(root) -> dict:
    # Every file under root, by relative path: its bytes and modification time.
    found = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            found[str(path.relative_to(root))] = (path.read_bytes(), path.stat().st_mtime_ns)
    return found


def test_a_report_goes_only_into_a_new_or_empty_directory(tmp_path, capsys):
    # Before, a rerun into the directory of a run with a sweep left that
    # run's alpha_sweep.csv and traces beside a runs.csv that did not list them.
    specs = {}
    for name, overrides in (("swept", dict(alpha_sweep=(1.0,))), ("plain", dict(k_range=(2,), repeats=1))):
        (tmp_path / name).mkdir()
        specs[name] = write_spec_file(tmp_path / name, small_spec(tmp_path / name, **overrides))
    out = tmp_path / "report"
    out.mkdir()
    assert cli_main(["experiment", "--spec", specs["swept"], "--out-dir", str(out)]) == 0
    before = tree(out)
    assert "alpha_sweep.csv" in before
    capsys.readouterr()
    assert cli_main(["experiment", "--spec", specs["plain"], "--out-dir", str(out)]) == 2
    assert f"report directory {out} is not empty" in capsys.readouterr().err
    assert tree(out) == before
    # A directory holding any file, not only a report's, is refused as well.
    aggregate, records = run_experiment(small_spec(tmp_path / "plain", k_range=(2,), repeats=1))
    stray = tmp_path / "stray"
    stray.mkdir()
    (stray / "notes.txt").write_text("kept\n")
    before = tree(stray)
    with pytest.raises(DataError, match="is not empty"):
        emit_report(aggregate, records, stray)
    assert tree(stray) == before


def test_a_rerun_into_a_report_directory_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    spec_path = write_spec_file(tmp_path, small_spec(tmp_path, k_range=(2,), repeats=1))
    out = tmp_path / "report"
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)]) == 0
    before = tree(out)
    capsys.readouterr()
    solves = counting(monkeypatch, "solve")
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"mccgr: report directory {out} is not empty; a report needs a new or empty one\n"
    assert solves == []
    assert tree(out) == before


def test_an_out_dir_naming_a_file_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    # Before, the whole grid ran and then the traces directory could not be made.
    spec_path = write_spec_file(tmp_path, small_spec(tmp_path, k_range=(2,), repeats=1))
    out = tmp_path / "report"
    out.write_text("kept\n")
    solves = counting(monkeypatch, "solve")
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"mccgr: report directory {out} is not a directory\n"
    assert solves == []
    assert out.read_text() == "kept\n"


def test_emit_report_layout(tmp_path):
    spec = small_spec(tmp_path, k_range=(2,), repeats=2)
    aggregate, records = run_experiment(spec)
    out = tmp_path / "report"
    emit_report(aggregate, records, out)
    assert not (out / "alpha_sweep.csv").exists()

    acc_lines = (out / "accuracy_table.csv").read_text().splitlines()
    assert acc_lines[0] == "k,l2,mccgr"
    assert len(acc_lines) == 2
    k, a, b = acc_lines[1].split(",")
    row = aggregate.rows[0]
    assert int(k) == 2 and float(a) == row.mean_accuracy

    nmi_lines = (out / "nmi_table.csv").read_text().splitlines()
    assert nmi_lines[0] == "k,l2,mccgr"

    run_lines = (out / "runs.csv").read_text().splitlines()
    assert run_lines[0] == (
        "variant,k,repeat,accuracy,nmi,iterations,final_objective,converged,init_hash,status"
    )
    assert len(run_lines) == 1 + len(records)
    first = run_lines[1].split(",")
    assert first[0] == records[0].variant
    assert float(first[3]) == records[0].accuracy
    assert first[7] in ("0", "1")
    assert first[9] == "ok"

    for rec in records:
        trace_path = out / "traces" / f"{rec.variant}_k{rec.k}_r{rec.repeat}.csv"
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,objective"
        assert len(lines) == 1 + len(rec.trace)
        assert float(lines[1].split(",")[1]) == rec.trace[0]

    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["aggregates"]) == len(aggregate.rows)
    assert summary["aggregates"][0]["variant"] == aggregate.rows[0].variant
    assert summary["failed"] == 0

    # Every run failed: each is still a row, with its trace file, and each
    # table cell is empty.
    failed = [
        replace(rec, accuracy=np.nan, nmi=np.nan, iterations=0, final_objective=np.nan, converged=False,
                status="NumericalError", trace=np.empty(0))
        for rec in records
    ]
    out = tmp_path / "failed"
    emit_report(replace(aggregate, rows=(), failed=len(failed)), failed, out)
    run_lines = (out / "runs.csv").read_text().splitlines()
    assert run_lines[1:] == [f"{rec.variant},2,{rec.repeat},nan,nan,0,nan,0,{rec.init_hash},NumericalError" for rec in failed]
    assert (out / "accuracy_table.csv").read_text() == "k,l2,mccgr\n2,,\n"
    assert json.loads((out / "summary.json").read_text()) == {"aggregates": [], "failed": len(failed)}
    for rec in failed:
        assert (out / "traces" / f"{rec.variant}_k2_r{rec.repeat}.csv").read_text() == "iteration,objective\n"


@pytest.mark.parametrize("failing", ["repeat 0", "every run"])
def test_report_columns_follow_the_spec_whatever_runs_failed(tmp_path, monkeypatch, failing):
    spec = small_spec(
        tmp_path, k_range=(3, 2), variants=({"variant": "l2", "max_iter": 40}, {"variant": "mcc", "max_iter": 40})
    )
    real_solve = mccgr.harness.solve

    def fail_l2(x, graph, cfg, h0, w0, **kwargs):
        first = np.array_equal(h0, mccgr.init_factors(x, cfg.k, spec.base_seed)[0])
        if cfg.variant == "l2" and (first or failing == "every run"):
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", fail_l2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aggregate, records = run_experiment(spec)
    assert caught == []
    out = tmp_path / "report"
    emit_report(aggregate, records, out)
    # Every grid run is a row, failed or not: 2 ks x 2 repeats x 2 variants.
    statuses = [line.split(",")[-1] for line in (out / "runs.csv").read_text().splitlines()[1:]]
    assert len(statuses) == 8
    assert statuses.count("NumericalError") == aggregate.failed == (2 if failing == "repeat 0" else 4)
    summary = json.loads((out / "summary.json").read_text())["aggregates"]
    assert [(row["k"], row["variant"]) for row in summary] == (
        [(3, "l2"), (3, "mcc"), (2, "l2"), (2, "mcc")] if failing == "repeat 0" else [(3, "mcc"), (2, "mcc")]
    )
    for name in ("accuracy_table.csv", "nmi_table.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "k,l2,mcc"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]
        assert all((line.split(",")[1] == "") == (failing == "every run") for line in lines[1:])


def test_make_synthetic_shapes_and_labels():
    x, y = make_synthetic(4, 6, 20, seed=1)
    assert x.shape == (20, 24)
    assert np.array_equal(y, np.repeat(np.arange(4), 6))
    assert np.all(x >= 0.0)
    x2, _ = make_synthetic(4, 6, 20, seed=1)
    assert np.array_equal(x, x2)
    assert not np.array_equal(x, make_synthetic(4, 6, 20, seed=2)[0])


def test_make_synthetic_blocks_separate_classes():
    x, y = make_synthetic(3, 10, 30, seed=0, separation=6.0, spread=0.2)
    block = 30 // 3
    for c in range(3):
        rows = slice(c * block, (c + 1) * block)
        own = x[rows][:, y == c].mean()
        other = x[rows][:, y != c].mean()
        assert own > other + 3.0


def test_make_synthetic_heavy_corrupts_rows():
    clean, _ = make_synthetic(3, 8, 40, "gaussian", seed=5)
    heavy, y = make_synthetic(3, 8, 40, "heavy", seed=5)
    assert np.flatnonzero(np.any(clean != heavy, axis=1)).size == 4  # round(0.1 * 40)
    assert np.all(heavy >= clean)  # corruption only adds mass
    x_frac, _ = make_synthetic(3, 8, 40, "heavy", seed=5, corrupt_fraction=0.5)
    assert np.flatnonzero(np.any(clean != x_frac, axis=1)).size == 20


def test_make_synthetic_validation():
    with pytest.raises(DataError):
        make_synthetic(0, 5, 10)
    with pytest.raises(DataError):
        make_synthetic(3, 0, 10)
    with pytest.raises(DataError):
        make_synthetic(3, 5, 2)
    with pytest.raises(DataError):
        make_synthetic(3, 5, 10, "salt")
    with pytest.raises(DataError):
        make_synthetic(3, 5, 10, "heavy", corrupt_fraction=0.0)
    with pytest.raises(DataError):
        make_synthetic(3, 5, 10, "heavy", corrupt_fraction=1.5)
    # Before, nan and inf settings gave non-finite data, a string fraction a
    # TypeError and a negative spread numpy's bare ValueError.
    for name, value, message in (
        ("separation", float("nan"), "must be finite"),
        ("separation", "4", "must be a real number"),
        ("spread", -1.0, "must be >= 0"),
        ("spread", float("inf"), "must be finite"),
        ("outlier_scale", float("inf"), "must be finite"),
        ("outlier_scale", -0.5, "must be >= 0"),
        ("corrupt_fraction", "0.5", "must be a real number"),
        ("corrupt_fraction", float("nan"), "must be finite"),
        ("corrupt_fraction", True, "must be a real number"),
    ):
        with pytest.raises(DataError, match=f"^{name} {message}"):
            make_synthetic(3, 5, 10, "heavy", **{name: value})


def write_spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "dataset": {"features": spec.features_path, "labels": spec.labels_path},
                "k_range": list(spec.k_range),
                "variants": list(spec.variants),
                "repeats": spec.repeats,
                "base_seed": spec.base_seed,
                "knn": spec.knn,
                "alpha_sweep": list(spec.alpha_sweep),
            }
        )
    )
    return str(path)


def in_process(monkeypatch):
    # Runs every cell in this process, so that state a test keeps in a
    # patched function, such as a call count, sees the cells' calls.
    monkeypatch.setattr(mccgr.harness, "_workers", lambda cells: 1)


def counting(monkeypatch, name):
    in_process(monkeypatch)
    real = getattr(mccgr.harness, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mccgr.harness, name, counted)
    return calls


def test_experiment_sweep_shares_the_grid_cells_and_runs(tmp_path, monkeypatch):
    # The grid's mccgr entry has alpha 1.0, which the sweep also lists: one
    # experiment builds each k=2 graph once and solves that config once.
    spec = small_spec(tmp_path, alpha_sweep=(10.0, 1.0))
    aggregate, records = run_experiment(spec)
    spec_path = write_spec_file(tmp_path, spec)
    reads = counting(monkeypatch, "read_matrix")
    label_reads = counting(monkeypatch, "load_labels")
    graphs = counting(monkeypatch, "build_knn_affinity")
    solves = counting(monkeypatch, "solve")
    out = tmp_path / "report"
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)]) == 0
    assert len(reads) == 1 and len(label_reads) == 1
    # 2 ks x 2 repeats; before, the sweep built 2 more graphs per alpha.
    assert len(graphs) == 4
    # 8 grid runs plus alpha 10 at k=2; alpha 1 is the grid's own run.
    assert len(solves) == 10
    reference = tmp_path / "reference"
    emit_report(aggregate, records, reference)
    for name in ("accuracy_table.csv", "nmi_table.csv", "runs.csv", "summary.json", "alpha_sweep.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()
    (grid_run,) = [row for row in aggregate.rows if (row.variant, row.k) == ("mccgr", 2)]
    assert aggregate.sweep[0][:2] == (1.0, grid_run.mean_accuracy)
    assert aggregate.sweep == sweep_oracle(spec)


def test_experiment_sweep_without_k2_in_the_grid(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(3,), alpha_sweep=(1.0, 10.0))
    spec_path = write_spec_file(tmp_path, spec)
    graphs = counting(monkeypatch, "build_knn_affinity")
    solves = counting(monkeypatch, "solve")
    out = tmp_path / "report"
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)]) == 0
    # 2 grid graphs at k=3 and 2 sweep graphs at k=2, shared by both alphas.
    assert len(graphs) == 4
    assert len(solves) == 4 + 4
    lines = (out / "alpha_sweep.csv").read_text().splitlines()
    assert tuple(tuple(map(float, line.split(","))) for line in lines[1:]) == sweep_oracle(spec)


def test_a_reused_failed_run_fails_its_sweep_run_too(tmp_path, capsys, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), alpha_sweep=(1.0,))
    real_solve = mccgr.harness.solve
    failures = []

    def fail_first_mccgr(x, graph, cfg, h0, w0, **kwargs):
        if cfg.variant == "mccgr" and not failures:
            failures.append(cfg)
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", fail_first_mccgr)
    in_process(monkeypatch)
    spec_path = write_spec_file(tmp_path, spec)
    out = tmp_path / "out"
    code = cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)])
    assert code == 3
    # Once for the grid's run at repeat 0 and once for the sweep that reuses it.
    assert capsys.readouterr().err == "mccgr: numerical failure: 2 of the runs failed; see the status column of runs.csv\n"
    assert len(failures) == 1
    rows = [line.split(",") for line in (out / "runs.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[2], row[-1]) for row in rows] == [
        ("l2", "0", "ok"), ("mccgr", "0", "NumericalError"), ("l2", "1", "ok"), ("mccgr", "1", "ok")
    ]
    # The sweep's alpha 1 mean reads repeat 1 alone.
    assert (out / "alpha_sweep.csv").read_text() == f"alpha,mean_accuracy,runs\n1.0,{rows[3][3]},1\n"


def test_a_spec_without_a_graph_run_builds_no_graph(tmp_path, monkeypatch):
    # Its 4-sample cells cannot hold the default knn of 5 neighbours, and no
    # run reads a graph: the mccgr sweep run has alpha 0. Before, every cell
    # built a graph, and the spec failed on a knn it never set.
    x, y = make_synthetic(3, 2, 12)
    save_csv(x, tmp_path / "x.csv")
    save_labels(y, tmp_path / "y.csv")
    spec = ExperimentSpec(
        features_path=str(tmp_path / "x.csv"),
        labels_path=str(tmp_path / "y.csv"),
        k_range=(2,),
        variants=({"variant": "l2", "max_iter": 20},),
        repeats=1,
        alpha_sweep=(0.0,),
    )
    graphs = counting(monkeypatch, "build_knn_affinity")
    aggregate, records = run_experiment(spec)
    assert graphs == []
    assert len(records) == 1 and len(aggregate.sweep) == 1
    # A graph run in the same cells still needs more samples than knn.
    with pytest.raises(DataError, match="spec key 'knn' must be below the sample count of every cell with a graph run"):
        run_experiment(replace(spec, alpha_sweep=(1.0,)))
    assert graphs == []


def test_each_cell_runs_all_its_solves_before_the_next_graph(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(3, 2), alpha_sweep=(10.0, 1.0))
    real_build, real_solve = mccgr.harness.build_knn_affinity, mccgr.harness.solve
    cells = []

    def build(*args, **kwargs):
        graph = real_build(*args, **kwargs)
        cells.append([graph])
        return graph

    def solve(x, graph, cfg, h0, w0, **kwargs):
        assert graph is cells[-1][0], "a solve ran on an earlier cell's graph"
        cells[-1].append(cfg)
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "build_knn_affinity", build)
    monkeypatch.setattr(mccgr.harness, "solve", solve)
    in_process(monkeypatch)
    spec_path = write_spec_file(tmp_path, spec)
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(tmp_path / "out")]) == 0
    # k=3 cells run l2 and mccgr; k=2 cells also run mccgr at alpha 10.
    assert [len(cell) - 1 for cell in cells] == [2, 2, 3, 3]


def sweep_oracle(spec):
    # The sweep as its own k=2 grids, one per alpha, each of the first mccgr
    # entry alone at that alpha: the table the one pass must reproduce.
    entry = next({key: v for key, v in e.items() if key != "name"} for e in spec.variants if e["variant"] == "mccgr")
    table = []
    for alpha in sorted(spec.alpha_sweep):
        grid = replace(spec, k_range=(2,), variants=(dict(entry, alpha=alpha),), alpha_sweep=())
        (row,) = run_experiment(grid)[0].rows
        table.append((float(alpha), row.mean_accuracy, row.repeats))
    return tuple(table)


def distinct_runs(spec):
    # Distinct (cell, config) pairs the grid and the sweep ask for.
    entries = [{key: v for key, v in entry.items() if key != "name"} for entry in spec.variants]
    mccgr_entry = next(entry for entry in entries if entry["variant"] == "mccgr")
    runs = set()
    for r in range(spec.repeats):
        for k in spec.k_range:
            runs |= {(k, r, mccgr.SolverConfig(k=k, **entry)) for entry in entries}
        for alpha in spec.alpha_sweep:
            runs.add((2, r, mccgr.SolverConfig(k=2, **dict(mccgr_entry, alpha=alpha))))
    return len(runs)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.permutations([2, 3]).flatmap(lambda ks: st.sampled_from([ks[:1], ks])),
    # The grid's mccgr entry has alpha 1.0.
    st.lists(st.sampled_from([0.1, 1.0, 10.0]), unique=True, max_size=3),
)
def test_experiment_command_equals_the_library_calls(tmp_path, k_range, alphas):
    spec = small_spec(tmp_path, k_range=tuple(k_range), alpha_sweep=tuple(alphas))
    work = tempfile.mkdtemp(dir=tmp_path)
    reference = os.path.join(work, "reference")
    aggregate, records = run_experiment(replace(spec, alpha_sweep=()))
    emit_report(replace(aggregate, sweep=sweep_oracle(spec)), records, reference)
    spec_path = write_spec_file(tmp_path, spec)
    out = os.path.join(work, "out")
    with pytest.MonkeyPatch.context() as patch:
        solves = counting(patch, "solve")
        assert cli_main(["experiment", "--spec", spec_path, "--out-dir", out]) == 0
    assert len(solves) == distinct_runs(spec)
    names = ["accuracy_table.csv", "nmi_table.csv", "runs.csv", "summary.json", "alpha_sweep.csv"]
    for name in names:
        path = os.path.join(reference, name)
        if not os.path.exists(path):
            assert not alphas and name == "alpha_sweep.csv"
            assert not os.path.exists(os.path.join(out, name))
            continue
        with open(path, "rb") as want, open(os.path.join(out, name), "rb") as got:
            assert got.read() == want.read(), name


# The cells in worker processes. Each test pins the worker count to 2, so
# that the pool runs on a host of any size, and checks that it ran.


def two_workers(monkeypatch):
    # Returns the list of pools run_experiment starts from here on. The
    # suite's process has numpy's OpenBLAS threads (pytest imports scipy
    # for its warning filters, before any test code can pin BLAS), so
    # run_experiment would not fork; it is told the process has one
    # thread. OpenBLAS joins its threads before a fork, so the fork itself
    # sees one.
    monkeypatch.setattr(mccgr.harness, "_workers", lambda cells: min(2, cells))
    monkeypatch.setattr(mccgr.harness, "_single_threaded", lambda: True)
    real = mccgr.harness.ProcessPoolExecutor
    pools = []

    def pool(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(mccgr.harness, "ProcessPoolExecutor", pool)
    return pools


def report_bytes(root) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_a_pooled_report_equals_the_in_process_one(tmp_path):
    spec_path = write_spec_file(tmp_path, small_spec(tmp_path, alpha_sweep=(10.0, 1.0)))
    reports = {}
    for name, pin in (("in_process", in_process), ("pooled", two_workers)):
        with pytest.MonkeyPatch.context() as patch:
            pools = pin(patch)
            assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(tmp_path / name)]) == 0
        reports[name] = report_bytes(tmp_path / name)
    assert len(pools) == 1
    # Five tables and a trace per grid run.
    assert len(reports["pooled"]) == 5 + 8
    assert reports["pooled"] == reports["in_process"]


def test_a_numerical_failure_in_a_cell_is_the_same_row_pooled_and_in_process(tmp_path, capsys):
    # On data x 1e200 the squared residual of l2's start overflows, so every
    # l2 run raises NumericalError inside its cell; kl's divergence does not.
    spec = small_spec(tmp_path, variants=({"variant": "l2", "max_iter": 40}, {"variant": "kl", "max_iter": 40}))
    save_csv(mccgr.read_matrix(spec.features_path) * 1e200, spec.features_path)
    spec_path = write_spec_file(tmp_path, spec)
    reports = {}
    for name, pin in (("in_process", in_process), ("pooled", two_workers)):
        with pytest.MonkeyPatch.context() as patch:
            pools = pin(patch)
            assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(tmp_path / name)]) == 3
        assert capsys.readouterr().err == "mccgr: numerical failure: 4 of the runs failed; see the status column of runs.csv\n"
        reports[name] = report_bytes(tmp_path / name)
    assert len(pools) == 1
    assert reports["pooled"] == reports["in_process"]
    rows = [line.split(",") for line in reports["pooled"]["runs.csv"].decode().splitlines()[1:]]
    assert [(row[0], row[3], row[-1]) for row in rows] == [("l2", "nan", "NumericalError"), ("kl", "1.0", "ok")] * 4
    assert [row[5] for row in rows[::2]] == ["0"] * 4
    assert reports["pooled"]["accuracy_table.csv"] == b"k,l2,kl\n2,,1.0\n3,,1.0\n"
    assert json.loads(reports["pooled"]["summary.json"])["failed"] == 4


def test_an_e_step_fault_is_one_failed_record_pooled_and_in_process(tmp_path):
    # On data x 1e155 mcc's start E-step divides inf by inf, and kl runs.
    # Before, the fault was a RuntimeWarning beside the NumericalError, and
    # the pool re-emitted its workers' warnings in this process.
    spec = small_spec(tmp_path, variants=({"variant": "mcc", "max_iter": 40}, {"variant": "kl", "max_iter": 40}))
    save_csv(mccgr.read_matrix(spec.features_path) * 1e155, spec.features_path)
    reports = {}
    for name, pin in (("in_process", in_process), ("pooled", two_workers)):
        with pytest.MonkeyPatch.context() as patch:
            pools = pin(patch)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                aggregate, records = run_experiment(spec)
        assert caught == []
        assert [(rec.variant, rec.status) for rec in records] == [("mcc", "NumericalError"), ("kl", "ok")] * 4
        emit_report(aggregate, records, tmp_path / name)
        reports[name] = report_bytes(tmp_path / name)
    assert len(pools) == 1
    assert reports["pooled"] == reports["in_process"]


def test_pooled_records_with_failures_match_the_in_process_ones(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, repeats=3, alpha_sweep=(10.0, 1.0))
    real_solve = mccgr.harness.solve

    def flaky(x, graph, cfg, h0, w0, **kwargs):
        # Fails every mccgr run but those of repeat 0.
        if cfg.variant == "mccgr" and not np.array_equal(h0, mccgr.init_factors(x, cfg.k, spec.base_seed)[0]):
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", flaky)
    results = {}
    for name, pin in (("in_process", in_process), ("pooled", two_workers)):
        with pytest.MonkeyPatch.context() as patch:
            pools = pin(patch)
            aggregate, records = run_experiment(spec)
        results[name] = (aggregate, [astuple(replace(rec, trace=None)) for rec in records])
    assert len(pools) == 1
    # nan != nan, so the records compare by their text.
    assert repr(results["pooled"]) == repr(results["in_process"])
    aggregate, records = results["pooled"]
    # mccgr at repeats 1 and 2 of both ks, and both sweep alphas at k=2
    # (alpha 1.0 reusing the grid's failed run).
    assert [(rec[0], rec[1], rec[2]) for rec in records if rec[9] != "ok"] == [
        ("mccgr", 2, 1), ("mccgr", 2, 2), ("mccgr", 3, 1), ("mccgr", 3, 2)
    ]
    assert aggregate.failed == 4 + 4


def test_a_warning_every_cell_raises_shows_once_per_run(tmp_path, monkeypatch):
    real_solve = mccgr.harness.solve

    def noisy(*args, **kwargs):
        warnings.warn("the same warning at every solve", RuntimeWarning)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", noisy)
    in_process(monkeypatch)
    spec = small_spec(tmp_path)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            warnings.filterwarnings("default", category=RuntimeWarning, module=__name__)
            run_experiment(spec)
        assert [str(w.message) for w in caught] == ["the same warning at every solve"]


def test_a_programming_error_in_a_worker_propagates(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, repeats=3)

    def broken(x, graph, cfg, h0, w0, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(mccgr.harness, "solve", broken)
    pools = two_workers(monkeypatch)
    with pytest.raises(TypeError, match="^synthetic bug$"):
        run_experiment(spec)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_run(tmp_path, monkeypatch):
    pools = two_workers(monkeypatch)
    _, records = run_experiment(small_spec(tmp_path))
    assert len(records) == 8
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_closing_the_cell_runner_early_leaves_no_worker(monkeypatch):
    # The runner owns its pool: closed after its first cell, with cells
    # still waiting in the workers, it joins them, not only when it runs out.
    pools = two_workers(monkeypatch)
    x, labels = make_synthetic(2, 6, 8, seed=0)
    runs = [("l2", mccgr.SolverConfig(k=2, variant="l2", max_iter=20))]
    cells = [(x, labels, 2, r, r, runs, None, mccgr.graph.MODES[0]) for r in range(6)]
    solved = mccgr.harness._solve_cells(cells, len(cells))
    first = next(solved)
    assert len(pools) == 1 and len(multiprocessing.active_children()) == 2
    solved.close()
    assert multiprocessing.active_children() == []
    assert [(rec.variant, rec.repeat, rec.status) for rec in first] == [("l2", 0, "ok")]


def test_at_most_two_cells_per_worker_wait_beyond_the_one_consumed(tmp_path, monkeypatch):
    pools = two_workers(monkeypatch)
    make_pool = mccgr.harness.ProcessPoolExecutor
    submitted = []

    def counting_pool(*args, **kwargs):
        pool = make_pool(*args, **kwargs)
        submit = pool.submit

        def counted(*args, **kwargs):
            submitted.append(None)
            return consuming(submit(*args, **kwargs))

        pool.submit = counted
        return pool

    # Cells submitted and not yet consumed, the one being consumed included,
    # when the parent asks for that cell's records.
    waiting = []

    def consuming(future):
        result = future.result

        def consumed(*args, **kwargs):
            waiting.append(len(submitted) - len(waiting))
            return result(*args, **kwargs)

        future.result = consumed
        return future

    monkeypatch.setattr(mccgr.harness, "ProcessPoolExecutor", counting_pool)
    _, records = run_experiment(small_spec(tmp_path, repeats=5))
    assert len(pools) == 1
    assert len(records) == 20 and len(waiting) == len(submitted) == 10
    assert max(waiting) == 2 * 2 + 1


def test_a_process_with_a_second_thread_runs_its_cells_in_process(tmp_path, monkeypatch):
    spec = small_spec(tmp_path)
    want = run_experiment(spec)
    real = mccgr.harness._single_threaded
    pools = two_workers(monkeypatch)
    monkeypatch.setattr(mccgr.harness, "_single_threaded", real)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        # Under the suite's filters, CPython 3.12's fork-with-threads
        # DeprecationWarning would fail this call.
        got = run_experiment(spec)
    finally:
        release.set()
        thread.join()
    assert pools == []
    assert multiprocessing.active_children() == []
    assert got[0] == want[0]
    assert [astuple(replace(rec, trace=None)) for rec in got[1]] == [astuple(replace(rec, trace=None)) for rec in want[1]]


def test_a_process_with_threads_is_not_single_threaded():
    pinned = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    pinned["PYTHONPATH"] = os.pathsep.join([os.path.dirname(mccgr.__path__[0]), pinned.get("PYTHONPATH", "")])
    script = "import mccgr.harness as h; print(h._single_threaded())"
    proc = subprocess.run([sys.executable, "-c", script], env=pinned, capture_output=True, text=True, timeout=120)
    assert proc.stdout == "True\n", proc.stderr
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not mccgr.harness._single_threaded()
    finally:
        release.set()
        thread.join()


def test_a_pinned_experiment_runs_clean_in_dev_mode_with_warnings_as_errors(tmp_path):
    # The real forked pool, nothing patched: with BLAS at one thread the
    # process forks its workers (given two allowed CPUs), and under -X dev
    # -W error any warning, an unclosed file's or a fork's included, fails.
    pinned = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    pinned["PYTHONPATH"] = os.pathsep.join([os.path.dirname(mccgr.__path__[0]), pinned.get("PYTHONPATH", "")])
    spec_path = write_spec_file(tmp_path, small_spec(tmp_path))
    script = "import sys; from mccgr.cli import main; sys.exit(main(sys.argv[1:]))"
    command = ["experiment", "--spec", spec_path, "--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script, *command],
        env=pinned, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out" / "runs.csv").exists()


def test_a_process_whose_threads_cannot_be_listed_runs_its_cells_in_process(tmp_path, monkeypatch):
    # Where the kernel's thread list cannot be read, the process is taken
    # to have threads, so it does not fork.
    spec = small_spec(tmp_path)
    want = run_experiment(spec)
    real = mccgr.harness._single_threaded
    pools = two_workers(monkeypatch)
    monkeypatch.setattr(mccgr.harness, "_single_threaded", real)
    listdir, refused = os.listdir, []

    def unlistable(path="."):
        if path == "/proc/self/task":
            refused.append(path)
            raise PermissionError(path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", unlistable)
    assert real() is False
    got = run_experiment(spec)
    assert len(refused) == 2
    assert pools == []
    assert got[0] == want[0]
    assert [astuple(replace(rec, trace=None)) for rec in got[1]] == [astuple(replace(rec, trace=None)) for rec in want[1]]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two allowed CPUs")
def test_a_process_whose_blas_threads_a_fork_joined_is_not_single_threaded():
    # OpenBLAS, not set to one thread, joins its threads at a fork and starts
    # them again only at its next large product.
    unpinned = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    unpinned["PYTHONPATH"] = os.pathsep.join([os.path.dirname(mccgr.__path__[0]), unpinned.get("PYTHONPATH", "")])
    script = "import os, mccgr.harness as h\nif os.fork() == 0:\n    os._exit(0)\nos.wait()\nprint(h._single_threaded())"
    proc = subprocess.run([sys.executable, "-c", script], env=unpinned, capture_output=True, text=True, timeout=120)
    assert proc.stdout == "False\n", proc.stderr


def test_one_worker_per_allowed_cpu_and_at_most_one_per_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert [mccgr.harness._workers(cells) for cells in (1, 2, 3, 40)] == [1, 2, 3, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert mccgr.harness._workers(40) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert mccgr.harness._workers(40) == 1


@pytest.mark.parametrize("pin", [in_process, two_workers], ids=["in_process", "pooled"])
def test_a_data_error_inside_a_cell_propagates_and_warns_nothing(tmp_path, monkeypatch, pin):
    # Every input of a cell is checked before the first run, so a DataError
    # in one is a bug. Before, it became a warning and a smaller average.
    real_solve = mccgr.harness.solve

    def broken_mccgr(x, graph, cfg, h0, w0, **kwargs):
        if cfg.variant == "mccgr":
            raise DataError("synthetic bug")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", broken_mccgr)
    pin(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="^synthetic bug$"):
            run_experiment(small_spec(tmp_path))
    assert caught == []
    assert multiprocessing.active_children() == []
