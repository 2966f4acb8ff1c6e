"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines
on a green run; pytest shows captured output for failing tests anyway.
"""

import itertools
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np

from mccgr import (
    ExperimentSpec,
    SolverConfig,
    build_knn_affinity,
    dual_gradient_h,
    dual_gradient_w,
    dual_objective,
    hungarian_match,
    kkt_products,
    laplacian,
    nmi,
    run_experiment,
    save_csv,
    save_labels,
    solve,
    update_h,
    update_w,
)
from mccgr.cli import main as cli_main
from mccgr.harness import make_synthetic


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL - {text}", flush=True)
        raise
    print(f"criterion {num:02d}: PASS - {text}", flush=True)


def dense_planted(seed, scale=0.01, warm=0.05, d=20, n=30, k=3):
    # exactly factorizable positive instance with warm-started factors
    rng = np.random.default_rng(seed)
    h = (rng.random((d, k)) + 0.2) * scale
    w = rng.random((k, n)) + 0.2
    x = h @ w
    h0 = h * rng.uniform(1.0 - warm, 1.0 + warm, size=h.shape)
    w0 = w * rng.uniform(1.0 - warm, 1.0 + warm, size=w.shape)
    return x, h0, w0


def write_dataset(tmp_path, stem, x, labels):
    fx = tmp_path / f"{stem}.csv"
    fy = tmp_path / f"{stem}_labels.csv"
    save_csv(x, fx)
    save_labels(labels, fy)
    return str(fx), str(fy)


def test_criterion_01_monotone_descent_with_fixed_weights():
    with criterion(1, "fixed-weight updates never increase the objective"):
        start = time.monotonic()
        rng = np.random.default_rng(10)
        alphas = (0.0, 1.0, 100.0)
        for trial in range(50):
            x = rng.random((50, 40)) + 0.05
            h = 1.0 - rng.random((50, 5))
            w = 1.0 - rng.random((5, 40))
            rho = -rng.uniform(0.05, 1.0, size=50)
            alpha = alphas[trial % len(alphas)]
            graph = build_knn_affinity(x, 4) if alpha > 0 else None
            f = dual_objective(x, h, w, rho, alpha, graph)
            for _ in range(200):
                h = update_h(x, h, w, rho)
                w = update_w(x, h, w, rho, alpha, graph)
                f_next = dual_objective(x, h, w, rho, alpha, graph)
                assert f_next <= f + 1e-10 * abs(f)
                f = f_next
        assert time.monotonic() - start < 60.0


def test_criterion_02_gradients_match_central_differences():
    with criterion(2, "analytic gradients match central finite differences"):
        rng = np.random.default_rng(20)
        step = 1e-6
        for point in range(20):
            d, n, k = 8, 10, 3
            x = rng.random((d, n)) + 0.1
            h = rng.uniform(0.5, 1.5, size=(d, k))
            w = rng.uniform(0.5, 1.5, size=(k, n))
            rho = -rng.uniform(0.05, 1.0, size=d)
            alpha = 7.5 if point % 2 else 0.0
            graph = build_knn_affinity(x, 3) if alpha > 0 else None
            gh = dual_gradient_h(x, h, w, rho)
            gw = dual_gradient_w(x, h, w, rho, alpha, graph)
            for i in range(d):
                for j in range(k):
                    bumped = h.copy()
                    bumped[i, j] = h[i, j] + step
                    up = dual_objective(x, bumped, w, rho, alpha, graph)
                    bumped[i, j] = h[i, j] - step
                    down = dual_objective(x, bumped, w, rho, alpha, graph)
                    fd = (up - down) / (2.0 * step)
                    assert abs(fd - gh[i, j]) < 1e-5 * max(1.0, abs(gh[i, j]))
            for i in range(k):
                for j in range(n):
                    bumped = w.copy()
                    bumped[i, j] = w[i, j] + step
                    up = dual_objective(x, h, bumped, rho, alpha, graph)
                    bumped[i, j] = w[i, j] - step
                    down = dual_objective(x, h, bumped, rho, alpha, graph)
                    fd = (up - down) / (2.0 * step)
                    assert abs(fd - gw[i, j]) < 1e-5 * max(1.0, abs(gw[i, j]))


def test_criterion_03_converged_runs_satisfy_complementarity():
    with criterion(3, "runs converged at tol 1e-9 pass the stationarity gate"):
        settings = (("l2", {}), ("mcc", {"theta": 20.0}))
        for seed in range(10):
            x, h0, w0 = dense_planted(seed)
            gate = 1e-6 * float(np.max(x))
            for variant, extra in settings:
                cfg = SolverConfig(variant=variant, k=3, max_iter=2000, tol=1e-9, **extra)
                res = solve(x, None, cfg, h0, w0)
                assert res.converged
                ph, pw = kkt_products(x, res.h, res.w, res.rho)
                peak = max(np.max(np.abs(ph)), np.max(np.abs(pw)))
                assert peak < gate
                # scale-free check: the stop is near stationarity, not
                # just a small-number artifact of the instance scale
                p0h, p0w = kkt_products(x, h0, w0, res.rho)
                init_peak = max(np.max(np.abs(p0h)), np.max(np.abs(p0w)))
                assert peak <= init_peak / 100.0


def test_criterion_04_variant_reductions():
    with criterion(4, "mccgr reduces to mcc, grnmf, and plain l2"):
        rng = np.random.default_rng(40)
        d, n, k = 15, 12, 4
        x = rng.random((d, n)) + 0.05
        h0 = 1.0 - rng.random((d, k))
        w0 = 1.0 - rng.random((k, n))
        graph = build_knn_affinity(x, 3)

        # alpha = 0 switches off all graph work, so mccgr == mcc exactly
        full = solve(
            x,
            None,
            SolverConfig(variant="mccgr", k=k, alpha=0.0, theta=2.5, max_iter=100, tol=0.0),
            h0,
            w0,
            record_iterates=True,
        )
        plain = solve(
            x,
            None,
            SolverConfig(variant="mcc", k=k, theta=2.5, max_iter=100, tol=0.0),
            h0,
            w0,
            record_iterates=True,
        )
        assert len(full.iterates) == len(plain.iterates) == 100
        for (ha, wa), (hb, wb) in zip(full.iterates, plain.iterates):
            assert np.max(np.abs(ha - hb)) <= 1e-9
            assert np.max(np.abs(wa - wb)) <= 1e-9

        # weights frozen at -1 with the graph term kept is exactly grnmf
        alpha = 3.0
        reg = solve(
            x,
            graph,
            SolverConfig(variant="grnmf", k=k, alpha=alpha, max_iter=100, tol=0.0),
            h0,
            w0,
            record_iterates=True,
        )
        rho = -np.ones(d)
        h, w = h0.copy(), w0.copy()
        for hb, wb in reg.iterates:
            h = update_h(x, h, w, rho)
            w = update_w(x, h, w, rho, alpha, graph)
            assert np.max(np.abs(h - hb)) <= 1e-9
            assert np.max(np.abs(w - wb)) <= 1e-9

        # weights at -1 and alpha = 0 recover the classical updates
        base = solve(
            x,
            None,
            SolverConfig(variant="l2", k=k, max_iter=100, tol=0.0),
            h0,
            w0,
            record_iterates=True,
        )
        h, w = h0.copy(), w0.copy()
        for hb, wb in base.iterates:
            h = h * (x @ w.T) / (h @ (w @ w.T))
            w = w * (h.T @ x) / ((h.T @ h) @ w)
            assert np.allclose(h, hb, rtol=1e-9, atol=1e-12)
            assert np.allclose(w, wb, rtol=1e-9, atol=1e-12)


def test_criterion_05_matching_and_nmi_oracles():
    with criterion(5, "matching equals brute force and nmi matches hand values"):
        rng = np.random.default_rng(50)
        for trial in range(1000):
            kk = 1 + trial % 6
            confusion = rng.integers(0, 50, size=(kk, kk)).astype(np.float64)
            perm = hungarian_match(confusion)
            mine = float(confusion[np.arange(kk), perm].sum())
            best = max(
                float(confusion[np.arange(kk), list(p)].sum())
                for p in itertools.permutations(range(kk))
            )
            assert mine == best

        # 2x2 joint-histogram closed form, natural log, max-entropy norm
        def hand_nmi(a, b):
            n = a.size
            joint = np.zeros((2, 2))
            for u, v in zip(a, b):
                joint[u, v] += 1.0
            joint /= n
            pa = joint.sum(axis=1)
            pb = joint.sum(axis=0)
            mi = 0.0
            for u in range(2):
                for v in range(2):
                    if joint[u, v] > 0:
                        mi += joint[u, v] * math.log(joint[u, v] / (pa[u] * pb[v]))
            ha = -sum(p * math.log(p) for p in pa if p > 0)
            hb = -sum(p * math.log(p) for p in pb if p > 0)
            return mi / max(ha, hb)

        for trial in range(200):
            a = rng.integers(0, 2, size=40)
            b = rng.integers(0, 2, size=40)
            a[rng.integers(0, 40)] = 0
            a[rng.integers(0, 40)] = 1
            b[rng.integers(0, 40)] = 0
            b[rng.integers(0, 40)] = 1
            assert abs(nmi(a, b) - hand_nmi(a, b)) < 1e-10
        assert abs(nmi([0, 0, 1, 1], [0, 0, 0, 1]) - 0.31127812445913283) < 1e-10


def test_criterion_06_planted_recovery_and_robustness(tmp_path):
    with criterion(6, "planted clustering recovered; mccgr at least as robust as l2"):
        x, labels = make_synthetic(3, 20, 50, seed=42, separation=6.0, spread=0.2)
        fx, fy = write_dataset(tmp_path, "clean", x, labels)
        spec = ExperimentSpec(
            features_path=fx,
            labels_path=fy,
            k_range=(3,),
            variants=(
                {"variant": "l2", "max_iter": 300},
                {"variant": "kl", "max_iter": 300},
                {"variant": "grnmf", "alpha": 10.0, "max_iter": 300},
                {"variant": "mcc", "theta": 3.0, "max_iter": 300},
                {"variant": "mccgr", "alpha": 10.0, "theta": 3.0, "max_iter": 300},
            ),
            repeats=10,
            base_seed=0,
            knn=5,
        )
        aggregate, _ = run_experiment(spec)
        means = {row.variant: row.mean_accuracy for row in aggregate.rows}
        assert len(means) == 5
        for variant, mean in means.items():
            assert mean >= 0.9, f"{variant} mean accuracy {mean}"

        x, labels = make_synthetic(
            3, 20, 50, noise="heavy", seed=42, separation=6.0, spread=0.2, outlier_scale=8.0
        )
        fx, fy = write_dataset(tmp_path, "heavy", x, labels)
        spec = ExperimentSpec(
            features_path=fx,
            labels_path=fy,
            k_range=(3,),
            variants=(
                {"variant": "l2", "max_iter": 300},
                {"variant": "mccgr", "alpha": 10.0, "theta": 1.0, "max_iter": 300},
            ),
            repeats=10,
            base_seed=0,
            knn=5,
        )
        aggregate, _ = run_experiment(spec)
        means = {row.variant: row.mean_accuracy for row in aggregate.rows}
        assert means["mccgr"] >= means["l2"]


def test_criterion_07_convergence_speed(tmp_path):
    with criterion(7, "at least 90% of mccgr runs converge within 100 iterations"):
        x, labels = make_synthetic(3, 20, 50, seed=42, separation=6.0, spread=0.2)
        fx, fy = write_dataset(tmp_path, "clean", x, labels)
        spec = ExperimentSpec(
            features_path=fx,
            labels_path=fy,
            k_range=(3,),
            variants=(
                {"variant": "mccgr", "alpha": 10.0, "theta": 3.0, "max_iter": 200, "tol": 1e-6},
            ),
            repeats=30,
            base_seed=0,
            knn=5,
        )
        _, records = run_experiment(spec)
        assert len(records) == 30
        fast = sum(1 for r in records if r.converged and r.iterations <= 100)
        assert fast >= 0.9 * len(records)


def test_criterion_08_alpha_robustness(tmp_path):
    with criterion(8, "mean accuracy varies by less than 0.15 across the alpha sweep"):
        x, labels = make_synthetic(3, 20, 50, seed=42, separation=6.0, spread=0.2)
        fx, fy = write_dataset(tmp_path, "clean", x, labels)
        spec = ExperimentSpec(
            features_path=fx,
            labels_path=fy,
            k_range=(3,),
            variants=({"variant": "mccgr", "theta": 3.0, "max_iter": 300},),
            repeats=10,
            base_seed=0,
            knn=5,
            alpha_sweep=(1.0, 10.0, 100.0, 1000.0, 10000.0),
        )
        table = run_experiment(spec)[0].sweep
        assert [alpha for alpha, _, _ in table] == [1.0, 10.0, 100.0, 1000.0, 10000.0]
        accs = [acc for _, acc, _ in table]
        assert max(accs) - min(accs) < 0.15


def test_criterion_09_laplacian_invariants():
    with criterion(9, "every laplacian has zero row sums, symmetry, and psd probes"):
        rng = np.random.default_rng(90)
        datasets = [rng.random((30, 25)) + 0.05]
        x, _ = make_synthetic(3, 20, 50, seed=42, separation=6.0, spread=0.2)
        datasets.append(x)
        for data in datasets:
            for knn in (3, 5, 8):
                for mode in ("mutual", "symmetrized"):
                    lap = laplacian(build_knn_affinity(data, knn, mode=mode))
                    assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
                    assert np.array_equal(lap, lap.T)
                    n = lap.shape[0]
                    for _ in range(100):
                        v = rng.standard_normal(n)
                        assert v @ lap @ v >= -1e-10


def test_criterion_10_experiment_determinism(tmp_path):
    with criterion(10, "repeated experiment runs emit byte-identical artifacts"):
        x, labels = make_synthetic(3, 10, 30, seed=7, separation=6.0, spread=0.2)
        fx, fy = write_dataset(tmp_path, "data", x, labels)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "dataset": {"features": fx, "labels": fy},
                    "k_range": [2],
                    "variants": [
                        {"variant": "l2", "max_iter": 150},
                        {"variant": "mccgr", "alpha": 10.0, "theta": 3.0, "max_iter": 150},
                    ],
                    "repeats": 3,
                    "base_seed": 11,
                    "knn": 4,
                    "alpha_sweep": [1.0, 10.0],
                }
            )
        )

        def run(out_dir):
            assert cli_main(["experiment", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
            found = {}
            for root, _, files in os.walk(out_dir):
                for name in files:
                    path = os.path.join(root, name)
                    rel = os.path.relpath(path, out_dir)
                    with open(path, "rb") as fh:
                        found[rel] = fh.read()
            return found

        first = run(tmp_path / "run1")
        second = run(tmp_path / "run2")
        assert set(first) == set(second)
        assert "alpha_sweep.csv" in first
        for rel in first:
            assert first[rel] == second[rel], rel
