"""Experiment protocol: sampling, spec parsing, the grid runner, reports."""

import itertools
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import mccgr
from mccgr import (
    DataError,
    ExperimentSpec,
    alpha_sweep,
    emit_report,
    make_synthetic,
    run_experiment,
    sample_categories,
    save_csv,
    save_labels,
    write_alpha_sweep,
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
        ("knn", True), ("output_dir", 5),
    )
    for key, value in bad_values:
        path.write_text(json.dumps(dict(payload, **{key: value})))
        with pytest.raises(DataError, match=f"spec key '{key}'"):
            ExperimentSpec.from_json(path)


def test_spec_rejects_bad_solver_settings_before_any_run(tmp_path):
    with pytest.raises(DataError, match="variant 'fast': alpha must be >= 0"):
        small_spec(tmp_path, variants=({"name": "fast", "variant": "grnmf", "alpha": -1.0},))


# (key, value) pairs that ExperimentSpec(...) and from_json must both reject,
# with the same message, before any data is read.
BAD_SPEC_VALUES = [
    pytest.param("repeats", 2.5, id="repeats-float"),
    pytest.param("kmeans_restarts", True, id="kmeans_restarts-bool"),
    pytest.param("output_dir", 5, id="output_dir-int"),
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
    loads = counting(monkeypatch, "load_csv")
    out = tmp_path / "out"
    assert cli_main(["experiment", "--spec", str(path), "--out-dir", str(out / "report")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("mccgr: ") and f"spec key '{key}'" in err
    assert not out.exists()
    assert loads == []


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
    with pytest.warns(UserWarning, match="synthetic failure"):
        aggregate, records = run_experiment(spec)
    assert {rec.variant for rec in records} == {"l2"}
    assert len(records) == 2
    assert all(row.variant == "l2" for row in aggregate.rows)


def test_run_experiment_propagates_programming_errors(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), repeats=1)

    def broken(x, graph, cfg, h0, w0, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(mccgr.harness, "solve", broken)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_experiment(spec)


def test_failed_run_warning_names_the_caller(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), repeats=2, alpha_sweep=(1.0, 10.0))
    real_solve = mccgr.harness.solve
    calls = itertools.count()

    def every_other(x, graph, cfg, h0, w0, **kwargs):
        # Fails the first run of every pair, so each alpha keeps one success.
        if next(calls) % 2 == 0:
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", every_other)
    with pytest.warns(UserWarning, match="synthetic failure") as caught:
        run_experiment(spec)
        alpha_sweep(spec)
    assert len(caught) == 4
    assert {w.filename for w in caught} == {__file__}


def test_dataset_loaded_once_per_grid_and_per_sweep(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), repeats=1)
    real_load = mccgr.harness.load_csv
    loads = []

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(mccgr.harness, "load_csv", counting_load)
    run_experiment(spec)
    assert len(loads) == 1
    for alphas in [(1.0,), (0.1, 1.0, 10.0, 100.0)]:
        loads.clear()
        table = alpha_sweep(replace(spec, alpha_sweep=alphas))
        assert len(table) == len(alphas)
        assert len(loads) == 1


def test_alpha_sweep_table(tmp_path):
    spec = small_spec(
        tmp_path,
        variants=({"variant": "mccgr", "alpha": 1.0, "theta": 1.0, "max_iter": 40},),
        alpha_sweep=(10.0, 0.1, 1.0),
        repeats=2,
    )
    table = alpha_sweep(spec)
    assert [alpha for alpha, _ in table] == [0.1, 1.0, 10.0]
    assert all(0.0 <= acc <= 1.0 for _, acc in table)
    assert table == alpha_sweep(spec)
    with pytest.raises(DataError, match="alpha_sweep"):
        alpha_sweep(small_spec(tmp_path))


def test_write_alpha_sweep_format(tmp_path):
    path = tmp_path / "sweep.csv"
    write_alpha_sweep([(0.1, 0.5), (1.0, 0.875)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,mean_accuracy"
    assert lines[1] == "0.1,0.5"
    assert lines[2] == "1.0,0.875"


def test_emit_report_layout(tmp_path):
    spec = small_spec(tmp_path, k_range=(2,), repeats=2)
    aggregate, records = run_experiment(spec)
    out = tmp_path / "report"
    emit_report(aggregate, records, out)

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
        "variant,k,repeat,accuracy,nmi,iterations,final_objective,converged,init_hash"
    )
    assert len(run_lines) == 1 + len(records)
    first = run_lines[1].split(",")
    assert first[0] == records[0].variant
    assert float(first[3]) == records[0].accuracy
    assert first[7] in ("0", "1")

    for rec in records:
        trace_path = out / "traces" / f"{rec.variant}_k{rec.k}_r{rec.repeat}.csv"
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,objective"
        assert len(lines) == 1 + len(rec.trace)
        assert float(lines[1].split(",")[1]) == rec.trace[0]

    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["aggregates"]) == len(aggregate.rows)
    assert summary["aggregates"][0]["variant"] == aggregate.rows[0].variant

    with pytest.raises(DataError, match="no successful runs"):
        emit_report(aggregate, [], tmp_path / "empty")


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


def counting(monkeypatch, name):
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
    table = alpha_sweep(spec)
    spec_path = write_spec_file(tmp_path, spec)
    loads = counting(monkeypatch, "load_csv")
    graphs = counting(monkeypatch, "build_knn_affinity")
    solves = counting(monkeypatch, "solve")
    out = tmp_path / "report"
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)]) == 0
    assert len(loads) == 1
    # 2 ks x 2 repeats; before, the sweep built 2 more graphs per alpha.
    assert len(graphs) == 4
    # 8 grid runs plus alpha 10 at k=2; alpha 1 is the grid's own run.
    assert len(solves) == 10
    expect = tmp_path / "expect.csv"
    write_alpha_sweep(table, expect)
    assert (out / "alpha_sweep.csv").read_bytes() == expect.read_bytes()
    reference = tmp_path / "reference"
    emit_report(aggregate, records, reference)
    for name in ("accuracy_table.csv", "nmi_table.csv", "runs.csv", "summary.json"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()
    assert dict(table)[1.0] == aggregate.cell("mccgr", 2).mean_accuracy


def test_experiment_sweep_without_k2_in_the_grid(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(3,), alpha_sweep=(1.0, 10.0))
    table = alpha_sweep(spec)
    spec_path = write_spec_file(tmp_path, spec)
    graphs = counting(monkeypatch, "build_knn_affinity")
    solves = counting(monkeypatch, "solve")
    out = tmp_path / "report"
    assert cli_main(["experiment", "--spec", spec_path, "--out-dir", str(out)]) == 0
    # 2 grid graphs at k=3 and 2 sweep graphs at k=2, shared by both alphas.
    assert len(graphs) == 4
    assert len(solves) == 4 + 4
    expect = tmp_path / "expect.csv"
    write_alpha_sweep(table, expect)
    assert (out / "alpha_sweep.csv").read_bytes() == expect.read_bytes()


def test_reused_failed_run_warns_again(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, k_range=(2,), alpha_sweep=(1.0,))
    real_solve = mccgr.harness.solve
    failures = []

    def fail_first_mccgr(x, graph, cfg, h0, w0, **kwargs):
        if cfg.variant == "mccgr" and not failures:
            failures.append(cfg)
            raise mccgr.NumericalError("synthetic failure")
        return real_solve(x, graph, cfg, h0, w0, **kwargs)

    monkeypatch.setattr(mccgr.harness, "solve", fail_first_mccgr)
    spec_path = write_spec_file(tmp_path, spec)
    with pytest.warns(UserWarning, match="synthetic failure") as caught:
        code = cli_main(["experiment", "--spec", spec_path, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    # Once for the grid's run at repeat 0 and once for the sweep that reuses it.
    assert [str(w.message).split(":")[0] for w in caught] == [
        "variant 'mccgr' failed at k=2 repeat 0"
    ] * 2
    assert len(failures) == 1
    lines = (tmp_path / "out" / "alpha_sweep.csv").read_text().splitlines()
    assert len(lines) == 2
