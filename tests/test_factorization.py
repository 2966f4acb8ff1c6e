"""Objectives, auxiliary weights, multiplicative updates, and the solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mccgr import (
    AffinityGraph,
    DataError,
    NumericalError,
    SolverConfig,
    build_knn_affinity,
    dual_gradient_h,
    dual_gradient_w,
    dual_objective,
    graph_penalty,
    init_factors,
    kkt_products,
    laplacian,
    mcc_objective,
    objective_kl,
    objective_l2,
    rho_step,
    sigma_update,
    solve,
    update_h,
    update_w,
)
from mccgr.factorization import EPSILON


def random_instance(rng, d=8, n=10, k=3):
    x = rng.random((d, n)) + 0.1
    h = rng.random((d, k)) + 0.1
    w = rng.random((k, n)) + 0.1
    return x, h, w


def lee_seung_step(x, h, w):
    # textbook multiplicative updates, no epsilon, no floor; w sees fresh h
    h = h * (x @ w.T) / (h @ (w @ w.T))
    w = w * (h.T @ x) / ((h.T @ h) @ w)
    return h, w


def test_objective_l2_matches_loop():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, h, w = random_instance(rng)
        v = h @ w
        expect = sum(
            (x[i, j] - v[i, j]) ** 2 for i in range(x.shape[0]) for j in range(x.shape[1])
        )
        assert objective_l2(x, h, w) == pytest.approx(expect, rel=1e-12)


def test_objective_kl_matches_loop():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, h, w = random_instance(rng)
        v = h @ w
        expect = sum(
            x[i, j] * np.log(x[i, j] / v[i, j]) - x[i, j] + v[i, j]
            for i in range(x.shape[0])
            for j in range(x.shape[1])
        )
        assert objective_kl(x, h, w) == pytest.approx(expect, rel=1e-12)


def test_objective_kl_zero_entries_contribute_reconstruction():
    x = np.array([[0.0, 2.0]])
    h = np.array([[1.0]])
    w = np.array([[0.5, 2.0]])
    # 0-entry contributes v = 0.5; the other contributes 2 log 1 - 2 + 2 = 0
    assert objective_kl(x, h, w) == pytest.approx(0.5, rel=1e-12)


def mask_kl_divergence(x, h, w):
    # The divergence gathered with the boolean mask x > 0, in the arithmetic
    # order the library uses.
    pos = x > 0
    xp = x[pos]
    v = h @ w
    terms = np.log(xp / v[pos])
    terms *= xp
    return float(np.sum(terms) - np.sum(xp) + np.sum(v))


@pytest.mark.parametrize("shape", [(1, 5, 1), (9, 7, 2), (40, 60, 3), (256, 150, 4)])
def test_kl_flat_index_gather_equals_the_mask_with_zero_data(shape):
    d, n, k = shape
    rng = np.random.default_rng(d * n)
    x = rng.random((d, n)) + 0.05
    x[rng.random((d, n)) < 0.3] = 0.0
    h0 = rng.random((d, k)) + 0.1
    w0 = rng.random((k, n)) + 0.1
    expect = np.float64(mask_kl_divergence(x, h0, w0)).tobytes()
    assert np.float64(objective_kl(x, h0, w0)).tobytes() == expect
    # Flat indices follow C order whatever the memory layout of the data.
    assert np.float64(objective_kl(np.asfortranarray(x), h0, w0)).tobytes() == expect
    cfg = SolverConfig(variant="kl", k=k, max_iter=25, tol=0.0)
    res = solve(x, None, cfg, h0, w0, record_iterates=True)
    trace = [mask_kl_divergence(x, h0, w0)]
    trace += [mask_kl_divergence(x, h, w) for h, w in res.iterates]
    assert res.trace.tobytes() == np.array(trace).tobytes()


def test_objective_kl_infinite_divergence_raises():
    x = np.array([[1.0]])
    with pytest.raises(NumericalError):
        objective_kl(x, np.array([[0.0]]), np.array([[1.0]]))


def test_objective_kl_nonnegative_at_matching_mass():
    # KL >= 0 with equality iff v == x
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert objective_kl(x, x, np.eye(2)) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, h, w = random_instance(rng)
        assert objective_kl(x, h, w) >= 0.0


def test_sigma_update_formula():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, h, w = random_instance(rng)
        theta = float(rng.uniform(0.5, 5.0))
        total = float(np.sum((x - h @ w) ** 2))
        expect = np.sqrt(theta * total / (2.0 * x.shape[0]))
        assert sigma_update(x, h, w, theta) == pytest.approx(expect, rel=1e-12)


def test_sigma_update_floor_on_exact_fit():
    rng = np.random.default_rng(4)
    h = rng.random((6, 2)) + 0.1
    w = rng.random((2, 5)) + 0.1
    x = h @ w
    assert sigma_update(x, h, w, 1.0) == 1e-12
    assert sigma_update(x, h, w, 1.0, floor=1e-6) == 1e-6


def test_sigma_floor_caps_kernel_exponent():
    # however small the residual, the exponent r2_d / (2 sigma^2) stays
    # bounded by D / theta, so weights cannot underflow en masse
    rng = np.random.default_rng(5)
    h = rng.random((6, 2)) + 0.1
    w = rng.random((2, 5)) + 0.1
    x = h @ w
    x[0, 0] += 1e-7  # nearly exact
    theta = 1.0
    sigma = sigma_update(x, h, w, theta)
    rho = rho_step(x, h, w, sigma)
    assert np.all(rho <= -np.exp(-x.shape[0] / theta) * (1 - 1e-12))


def test_rho_step_formula_and_range():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, h, w = random_instance(rng)
        sigma = sigma_update(x, h, w, 2.0)
        rho = rho_step(x, h, w, sigma)
        r2 = np.sum((x - h @ w) ** 2, axis=1)
        assert np.allclose(rho, -np.exp(-r2 / (2 * sigma * sigma)), rtol=1e-12)
        assert np.all(rho < 0.0) and np.all(rho >= -1.0)


def test_rho_step_never_reaches_zero():
    # a row with an astronomically large residual keeps a strictly
    # negative weight (kernel floored at the smallest positive double)
    x = np.array([[1e150, 1e150], [1.0, 1.0]])
    h = np.array([[1.0], [1.0]])
    w = np.array([[1.0, 1.0]])
    rho = rho_step(x, h, w, 1.0)
    assert np.all(rho < 0.0)
    assert rho[0] == -np.finfo(np.float64).tiny


def test_rho_orders_rows_by_residual():
    rng = np.random.default_rng(7)
    x, h, w = random_instance(rng, d=6)
    x[2] += 5.0  # make row 2 the worst fit
    sigma = sigma_update(x, h, w, 1.0)
    rho = rho_step(x, h, w, sigma)
    assert np.argmax(rho) == 2 or np.argmin(-rho) == 2  # closest to zero


def test_mcc_objective_matches_loop():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x, h, w = random_instance(rng)
        sigma = 1.5
        r2 = np.sum((x - h @ w) ** 2, axis=1)
        expect = float(np.sum(np.exp(-r2 / (2 * sigma * sigma))))
        assert mcc_objective(x, h, w, sigma) == pytest.approx(expect, rel=1e-12)


def test_dual_objective_reduces_to_l2():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, h, w = random_instance(rng)
        rho = -np.ones(x.shape[0])
        assert dual_objective(x, h, w, rho) == pytest.approx(objective_l2(x, h, w), rel=1e-12)


def test_dual_objective_with_graph_term():
    rng = np.random.default_rng(10)
    x, h, w = random_instance(rng, d=6, n=12, k=3)
    g = build_knn_affinity(x, 3, "mutual")
    rho = -rng.random(6) - 0.01
    base = dual_objective(x, h, w, rho)
    full = dual_objective(x, h, w, rho, alpha=2.5, graph=g)
    assert full == pytest.approx(base + 2.5 * graph_penalty(w, g), rel=1e-12)
    with pytest.raises(DataError):
        dual_objective(x, h, w, rho, alpha=1.0, graph=None)


def test_dual_objective_weighted_loop_oracle():
    rng = np.random.default_rng(11)
    x, h, w = random_instance(rng, d=5, n=6, k=2)
    rho = -rng.random(5) - 0.01
    r = x - h @ w
    expect = sum(
        -rho[i] * r[i, j] ** 2 for i in range(5) for j in range(6)
    )
    assert dual_objective(x, h, w, rho) == pytest.approx(expect, rel=1e-12)


def test_rho_validation():
    rng = np.random.default_rng(12)
    x, h, w = random_instance(rng)
    with pytest.raises(DataError):
        update_h(x, h, w, np.zeros(x.shape[0]))  # not strictly negative
    with pytest.raises(DataError):
        update_h(x, h, w, -np.ones(x.shape[0] + 1))  # wrong length


def test_update_h_scaling_invariance_in_rho():
    # only relative weights matter: scaling rho by c > 0 cancels exactly
    # up to the epsilon guard, so use matched epsilon scaling
    rng = np.random.default_rng(13)
    x, h, w = random_instance(rng)
    rho = -rng.random(x.shape[0]) - 0.1
    a = update_h(x, h, w, rho, epsilon=1e-12)
    b = update_h(x, h, w, 7.0 * rho, epsilon=7.0 * 1e-12)
    assert np.allclose(a, b, rtol=1e-12)


def test_updates_match_lee_seung_at_unit_weights():
    rng = np.random.default_rng(14)
    for _ in range(5):
        x, h, w = random_instance(rng)
        rho = -np.ones(x.shape[0])
        h2, w2 = h.copy(), w.copy()
        for _ in range(100):
            h2, w2 = lee_seung_step(x, h2, w2)
        hm, wm = h.copy(), w.copy()
        for _ in range(100):
            hm = update_h(x, hm, wm, rho)
            wm = update_w(x, hm, wm, rho)
        assert np.allclose(hm, h2, rtol=1e-9)
        assert np.allclose(wm, w2, rtol=1e-9)


def test_update_w_graph_terms():
    rng = np.random.default_rng(15)
    x, h, w = random_instance(rng, d=6, n=12, k=3)
    g = build_knn_affinity(x, 3, "mutual")
    rho = -np.ones(6)
    # manual evaluation of the documented formula
    alpha = 2.0
    numer = h.T @ x + alpha * (w @ g.affinity)
    denom = (h.T @ h) @ w + alpha * (w * g.degree[None, :]) + 1e-12
    expect = np.maximum(w * numer / denom, 1e-16)
    got = update_w(x, h, w, rho, alpha=alpha, graph=g)
    assert np.allclose(got, expect, rtol=1e-12)
    with pytest.raises(DataError):
        update_w(x, h, w, rho, alpha=1.0, graph=None)


def test_monotone_descent_fixed_weights():
    # for any fixed strictly negative rho the update pair never increases
    # the dual objective (half-quadratic M-step guarantee)
    rng = np.random.default_rng(16)
    for trial in range(10):
        x, h, w = random_instance(rng, d=10, n=12, k=3)
        rho = -rng.random(10) - 0.05
        g = build_knn_affinity(x, 3, "mutual")
        alpha = (0.0, 1.0, 100.0)[trial % 3]
        graph = g if alpha > 0 else None
        value = dual_objective(x, h, w, rho, alpha, graph)
        for _ in range(50):
            h = update_h(x, h, w, rho)
            w = update_w(x, h, w, rho, alpha, graph)
            nxt = dual_objective(x, h, w, rho, alpha, graph)
            assert nxt <= value * (1 + 1e-10) + 1e-15
            value = nxt


def test_kl_trace_monotone():
    rng = np.random.default_rng(21)
    for _ in range(5):
        x, h0, w0 = random_instance(rng, d=10, n=12, k=3)
        cfg = SolverConfig(variant="kl", k=3, max_iter=80, tol=0.0)
        res = solve(x, None, cfg, h0, w0)
        trace = np.asarray(res.trace)
        assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10) + 1e-15)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    x, h, w = random_instance(rng, d=7, n=9, k=3)
    g = build_knn_affinity(x, 3, "mutual")
    rho = -rng.random(7) - 0.05
    alpha = 1.5
    step = 1e-6
    gh = dual_gradient_h(x, h, w, rho)
    gw = dual_gradient_w(x, h, w, rho, alpha, g)
    for _ in range(10):
        i, j = rng.integers(7), rng.integers(3)
        hp, hm = h.copy(), h.copy()
        hp[i, j] += step
        hm[i, j] -= step
        fd = (dual_objective(x, hp, w, rho, alpha, g) - dual_objective(x, hm, w, rho, alpha, g)) / (2 * step)
        assert abs(fd - gh[i, j]) <= 1e-5 * max(1.0, abs(gh[i, j]))
    for _ in range(10):
        i, j = rng.integers(3), rng.integers(9)
        wp, wm = w.copy(), w.copy()
        wp[i, j] += step
        wm[i, j] -= step
        fd = (dual_objective(x, h, wp, rho, alpha, g) - dual_objective(x, h, wm, rho, alpha, g)) / (2 * step)
        assert abs(fd - gw[i, j]) <= 1e-5 * max(1.0, abs(gw[i, j]))


def test_kkt_products_vanish_at_fixed_point():
    rng = np.random.default_rng(18)
    x = rng.random((15, 12)) + 0.05
    h0 = rng.random((15, 3)) + 0.1
    w0 = rng.random((3, 12)) + 0.1
    cfg = SolverConfig(variant="l2", k=3, max_iter=3000, tol=1e-12)
    res = solve(x, None, cfg, h0, w0)
    ph, pw = kkt_products(x, res.h, res.w, res.rho)
    gate = 1e-6 * float(x.max())
    assert np.max(np.abs(ph)) < gate
    assert np.max(np.abs(pw)) < gate


def test_solver_config_validation():
    with pytest.raises(DataError):
        SolverConfig(variant="frobenius", k=3)
    with pytest.raises(DataError):
        SolverConfig(variant="l2", k=0)
    with pytest.raises(DataError):
        SolverConfig(variant="l2", k=3, alpha=-1.0)
    with pytest.raises(DataError):
        SolverConfig(variant="l2", k=3, theta=0.0)
    with pytest.raises(DataError):
        SolverConfig(variant="l2", k=3, max_iter=0)
    with pytest.raises(DataError):
        SolverConfig(variant="l2", k=3, tol=-1e-6)
    cfg = SolverConfig(variant="MCCGR", k=3)
    assert cfg.variant == "mccgr"


@pytest.mark.parametrize(
    "setting",
    [
        {"k": 2.0},
        {"k": True},
        {"k": "3"},
        {"max_iter": 2.5},
        {"max_iter": False},
        {"alpha": "x"},
        {"alpha": None},
        {"theta": "1"},
        {"tol": [1e-6]},
        {"alpha": float("inf")},
        {"theta": float("nan")},
        {"tol": float("nan")},
    ],
)
def test_solver_config_rejects_settings_of_the_wrong_type(setting):
    with pytest.raises(DataError, match=next(iter(setting))):
        SolverConfig(**dict({"variant": "l2", "k": 3}, **setting))


def test_solver_config_accepts_numpy_scalars():
    cfg = SolverConfig(variant="l2", k=np.int64(3), max_iter=np.int32(5), alpha=np.float64(2.0), tol=np.float32(0))
    assert cfg.k == 3 and cfg.max_iter == 5


@pytest.mark.parametrize("variant", ["l2", "kl", "grnmf", "mcc", "mccgr"])
def test_graph_weight_is_alpha_for_the_graph_variants_only(variant):
    cfg = SolverConfig(variant=variant, k=2, alpha=7.0)
    assert cfg.graph_weight == (7.0 if variant in ("grnmf", "mccgr") else 0.0)


def test_init_factors_is_the_two_draw_sequence_byte_for_byte():
    x = np.ones((13, 7))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        expect_h = 1.0 - rng.random((13, 4))
        expect_w = 1.0 - rng.random((4, 7))
        h0, w0 = init_factors(x, 4, seed)
        assert h0.tobytes() == expect_h.tobytes()
        assert w0.tobytes() == expect_w.tobytes()
        assert np.all(h0 > 0.0) and np.all(h0 <= 1.0)
        assert np.all(w0 > 0.0) and np.all(w0 <= 1.0)
    assert not np.array_equal(init_factors(x, 4, 0)[0], init_factors(x, 4, 1)[0])


def test_init_factors_rejects_bad_input():
    for x in (np.ones(5), np.ones((2, 3, 4))):
        with pytest.raises(DataError, match="2-D"):
            init_factors(x, 2, 0)
    for k in (0, -1, 2.0, True):
        with pytest.raises(DataError, match="k must"):
            init_factors(np.ones((3, 4)), k, 0)


def graph_argument_calls():
    # Each public function that takes (alpha, graph), as a call on one problem.
    rng = np.random.default_rng(26)
    x = rng.random((6, 8)) + 0.1
    h = rng.random((6, 2)) + 0.1
    w = rng.random((2, 8)) + 0.1
    rho = -np.ones(6)

    def run_solve(alpha, graph):
        cfg = SolverConfig(variant="mccgr", k=2, max_iter=2)
        cfg.alpha = alpha  # past __post_init__, so solve's own check is reached
        return solve(x, graph, cfg, h, w)

    return x, {
        "update_w": lambda alpha, graph: update_w(x, h, w, rho, alpha, graph),
        "dual_objective": lambda alpha, graph: dual_objective(x, h, w, rho, alpha, graph),
        "dual_gradient_w": lambda alpha, graph: dual_gradient_w(x, h, w, rho, alpha, graph),
        "kkt_products": lambda alpha, graph: kkt_products(x, h, w, rho, alpha, graph),
        "solve": run_solve,
    }


@pytest.mark.parametrize("name", ["update_w", "dual_objective", "dual_gradient_w", "kkt_products", "solve"])
def test_graph_arguments_are_checked_alike(name):
    x, calls = graph_argument_calls()
    call = calls[name]
    good = build_knn_affinity(x, 2, "mutual")
    small = build_knn_affinity(x[:, :5], 2, "mutual")
    call(1.0, good)
    call(0.0, None)
    with pytest.raises(DataError, match="graph size 5 does not match sample count 8"):
        call(1.0, small)
    with pytest.raises(DataError, match="alpha > 0 requires an affinity graph"):
        call(1.0, None)
    with pytest.raises(DataError, match="alpha must be >= 0"):
        call(-1.0, good)


def test_solve_input_validation():
    rng = np.random.default_rng(19)
    x = rng.random((6, 8)) + 0.1
    h0 = rng.random((6, 2)) + 0.1
    w0 = rng.random((2, 8)) + 0.1
    cfg = SolverConfig(variant="l2", k=2)
    bad = x.copy()
    bad[0, 0] = -1.0
    with pytest.raises(DataError):
        solve(bad, None, cfg, h0, w0)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        solve(bad, None, cfg, h0, w0)
    with pytest.raises(DataError):
        solve(x, None, cfg, h0[:, :1], w0)
    with pytest.raises(DataError):
        solve(x, None, cfg, np.zeros_like(h0) , w0)
    with pytest.raises(DataError):
        solve(x, None, SolverConfig(variant="mccgr", k=2, alpha=1.0), h0, w0)
    small = build_knn_affinity(x[:, :5], 2, "mutual")
    with pytest.raises(DataError):
        solve(x, small, SolverConfig(variant="mccgr", k=2, alpha=1.0), h0, w0)


def test_solve_trace_and_flags():
    rng = np.random.default_rng(20)
    x = rng.random((8, 10)) + 0.1
    h0 = rng.random((8, 2)) + 0.1
    w0 = rng.random((2, 10)) + 0.1
    cfg = SolverConfig(variant="l2", k=2, max_iter=40, tol=0.0)
    res = solve(x, None, cfg, h0, w0)
    assert not res.converged
    assert res.iterations_run == 40
    assert len(res.trace) == 41
    assert res.trace[0] == pytest.approx(objective_l2(x, h0, w0), rel=1e-12)
    # a generous tolerance stops immediately
    loose = solve(x, None, SolverConfig(variant="l2", k=2, max_iter=40, tol=0.9), h0, w0)
    assert loose.converged and loose.iterations_run == 1


def test_solve_deterministic():
    rng = np.random.default_rng(21)
    x = rng.random((8, 10)) + 0.1
    h0 = rng.random((8, 2)) + 0.1
    w0 = rng.random((2, 10)) + 0.1
    for variant in ("l2", "kl", "mcc"):
        cfg = SolverConfig(variant=variant, k=2, max_iter=30, tol=0.0)
        a = solve(x, None, cfg, h0, w0)
        b = solve(x, None, cfg, h0, w0)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.w, b.w)
        assert np.array_equal(a.trace, b.trace)


def test_solve_does_not_mutate_inputs():
    rng = np.random.default_rng(22)
    x = rng.random((8, 10)) + 0.1
    h0 = rng.random((8, 2)) + 0.1
    w0 = rng.random((2, 10)) + 0.1
    xc, hc, wc = x.copy(), h0.copy(), w0.copy()
    solve(x, None, SolverConfig(variant="mcc", k=2, max_iter=20, tol=0.0), h0, w0)
    assert np.array_equal(x, xc) and np.array_equal(h0, hc) and np.array_equal(w0, wc)


def test_record_iterates():
    rng = np.random.default_rng(23)
    x = rng.random((6, 8)) + 0.1
    h0 = rng.random((6, 2)) + 0.1
    w0 = rng.random((2, 8)) + 0.1
    cfg = SolverConfig(variant="l2", k=2, max_iter=15, tol=0.0)
    res = solve(x, None, cfg, h0, w0, record_iterates=True)
    assert len(res.iterates) == res.iterations_run
    hl, wl = res.iterates[-1]
    assert np.array_equal(hl, res.h) and np.array_equal(wl, res.w)
    plain = solve(x, None, cfg, h0, w0)
    assert plain.iterates is None


def test_mccgr_alpha_zero_is_mcc_bitwise():
    rng = np.random.default_rng(24)
    x = rng.random((10, 12)) + 0.1
    h0 = rng.random((10, 3)) + 0.1
    w0 = rng.random((3, 12)) + 0.1
    g = build_knn_affinity(x, 3, "mutual")
    a = solve(x, g, SolverConfig(variant="mccgr", k=3, alpha=0.0, max_iter=25, tol=0.0), h0, w0)
    b = solve(x, None, SolverConfig(variant="mcc", k=3, max_iter=25, tol=0.0), h0, w0)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.trace, b.trace)


def test_grnmf_ignores_theta_and_uses_frozen_weights():
    rng = np.random.default_rng(25)
    x = rng.random((8, 10)) + 0.1
    h0 = rng.random((8, 2)) + 0.1
    w0 = rng.random((2, 10)) + 0.1
    g = build_knn_affinity(x, 3, "mutual")
    a = solve(x, g, SolverConfig(variant="grnmf", k=2, alpha=1.0, theta=1.0, max_iter=20, tol=0.0), h0, w0)
    b = solve(x, g, SolverConfig(variant="grnmf", k=2, alpha=1.0, theta=9.0, max_iter=20, tol=0.0), h0, w0)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.w, b.w)
    assert np.all(a.rho == -1.0)


def make_planted(seed):
    # disjoint feature blocks per component, strictly positive product
    rng = np.random.default_rng(seed)
    d, n, k = 20, 30, 3
    h = np.zeros((d, k))
    for j, rows in enumerate(np.array_split(np.arange(d), k)):
        h[rows, j] = rng.uniform(0.8, 1.2, size=len(rows))
    w = rng.uniform(0.05, 0.15, size=(k, n))
    for j in range(k):
        w[j, j * 10 : (j + 1) * 10] += 1.0
    x = h @ w
    h0 = h * rng.uniform(0.7, 1.3, size=h.shape) + 0.02
    w0 = w * rng.uniform(0.7, 1.3, size=w.shape)
    return x, h0, w0


def test_planted_recovery_all_variants():
    # warm starts near a planted factorization: every variant converges and
    # reconstructs to 0.1% relative error
    settings = {
        "l2": {},
        "kl": {},
        "grnmf": {"alpha": 0.01},
        "mcc": {},
        "mccgr": {"alpha": 0.01, "theta": 20.0},
    }
    for seed in range(5):
        x, h0, w0 = make_planted(seed)
        g = build_knn_affinity(x, 5, "mutual")
        for variant, extra in settings.items():
            cfg = SolverConfig(variant=variant, k=3, max_iter=500, tol=1e-8, **extra)
            graph = g if variant in ("grnmf", "mccgr") else None
            res = solve(x, graph, cfg, h0, w0)
            rel = np.linalg.norm(x - res.h @ res.w) / np.linalg.norm(x)
            assert res.converged, f"{variant} seed {seed} never converged"
            assert rel <= 1e-3, f"{variant} seed {seed} rel resid {rel}"


def reference_solve(x, graph, cfg, h0, w0):
    # The solver loop written over the public step functions: every residual
    # recomputed by each one, the Laplacian rebuilt per objective.
    d = x.shape[0]
    h, w = h0.copy(), w0.copy()
    alpha = cfg.alpha if cfg.variant in ("grnmf", "mccgr") else 0.0
    live_rho = cfg.variant in ("mcc", "mccgr")
    kl = cfg.variant == "kl"
    eps = EPSILON
    rho = -np.ones(d)
    sigma = sigma_update(x, h, w, cfg.theta, floor=eps)
    if live_rho:
        rho = rho_step(x, h, w, sigma)

    def tracked(h_, w_, rho_):
        if kl:
            return objective_kl(x, h_, w_)
        return dual_objective(x, h_, w_, rho_, alpha, graph)

    trace = [tracked(h, w, rho)]
    scale = abs(trace[0])
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        if kl:
            ratio = x / np.maximum(h @ w, eps)
            h = np.maximum(h * (ratio @ w.T) / (np.sum(w, axis=1)[None, :] + eps), 1e-16)
            ratio = x / np.maximum(h @ w, eps)
            w = np.maximum(w * (h.T @ ratio) / (np.sum(h, axis=0)[:, None] + eps), 1e-16)
        else:
            sigma = sigma_update(x, h, w, cfg.theta, floor=eps)
            if live_rho:
                rho = rho_step(x, h, w, sigma)
            h = update_h(x, h, w, rho, eps)
            w = update_w(x, h, w, rho, alpha, graph, eps)
        value = tracked(h, w, rho)
        diff = abs(value - trace[-1])
        trace.append(value)
        rel = 0.0 if diff == 0.0 else (np.inf if scale == 0.0 else diff / scale)
        if rel < cfg.tol:
            converged = True
            break
    return h, w, rho, sigma, np.array(trace), iterations, converged


@pytest.mark.parametrize("variant", ["l2", "kl", "grnmf", "mcc", "mccgr"])
@pytest.mark.parametrize("with_graph", [True, False])
@pytest.mark.parametrize(
    "shape, max_iter, tol",
    [((50, 60, 3), 40, 0.0), ((50, 60, 3), 300, 1e-2), ((500, 40, 4), 10, 0.0)],
)
def test_solve_matches_public_step_loop_bitwise(variant, with_graph, shape, max_iter, tol):
    # D=500 reaches the sizes where BLAS syrk (h.T @ h on one buffer) rounds
    # differently from gemm, which the solver must not switch to.
    d, n, k = shape
    rng = np.random.default_rng(d + n)
    x = rng.random((d, n)) + 0.05
    x[rng.choice(d, size=d // 10, replace=False)] += 20.0 * rng.random((d // 10, n))
    h0 = rng.random((d, k)) + 0.1
    w0 = rng.random((k, n)) + 0.1
    graph = build_knn_affinity(x, 5, "symmetrized") if with_graph else None
    alpha = 10.0 if with_graph else 0.0
    cfg = SolverConfig(variant=variant, k=k, alpha=alpha, theta=0.7, max_iter=max_iter, tol=tol)
    h, w, rho, sigma, trace, iterations, converged = reference_solve(x, graph, cfg, h0, w0)
    res = solve(x, graph, cfg, h0, w0)
    if tol > 0:
        assert converged and iterations < max_iter
    assert res.h.tobytes() == h.tobytes()
    assert res.w.tobytes() == w.tobytes()
    assert res.rho.tobytes() == rho.tobytes()
    assert np.float64(res.sigma).tobytes() == np.float64(sigma).tobytes()
    assert res.trace.tobytes() == trace.tobytes()
    assert res.iterations_run == iterations
    assert res.converged == converged


# The squared-error kernels as they were before the weights moved onto the
# small products and the graph terms onto W A: diag(neg) x formed in full,
# the fit summed over a weighted copy of r * r, the penalty through the
# Laplacian. The library's kernels must agree with them.


def reference_weighted_fit(r, neg):
    return float(np.sum(neg[:, None] * r * r))


def reference_update_h(nx, h, w, neg, epsilon):
    numer = nx @ w.T
    denom = (neg[:, None] * h) @ (w @ w.T) + epsilon
    return np.maximum(h * numer / denom, 1e-16)


def reference_update_w(nx, h, w, neg, alpha, graph, epsilon):
    numer = h.T @ nx
    denom = (h.T @ (neg[:, None] * h)) @ w
    if alpha > 0:
        numer = numer + alpha * (w @ graph.affinity)
        denom = denom + alpha * (w * graph.degree[None, :])
    return np.maximum(w * numer / (denom + epsilon), 1e-16)


def reference_penalty(w, lap):
    return max(float(np.sum((w @ lap) * w)), 0.0)


def weighted_graph(rng, n):
    # Symmetric, zero diagonal, non-binary weights, about half the pairs joined.
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    a = np.triu(a, 1)
    return AffinityGraph(affinity=a + a.T)


@st.composite
def kernel_problems(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(d, n)))
    return d, n, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(kernel_problems())
@example((5, 2, 2, 0))
@example((3, 7, 3, 1))
@example((12, 12, 12, 2))
def test_squared_error_kernels_agree_with_the_weighted_copy_forms(problem):
    d, n, k, seed = problem
    rng = np.random.default_rng(seed)
    x = rng.random((d, n))
    x[rng.random((d, n)) < 0.2] = 0.0
    h = rng.random((d, k)) + 0.01
    w = rng.random((k, n)) + 0.01
    rho = -rng.uniform(1e-3, 1.0, size=d)
    neg = -rho
    alpha = float(rng.uniform(0.1, 100.0))
    graph = weighted_graph(rng, n)
    eps = 1e-12
    nx = neg[:, None] * x

    expect = reference_update_h(nx, h, w, neg, eps)
    np.testing.assert_allclose(update_h(x, h, w, rho, eps), expect, rtol=1e-12, atol=0)
    for a, g in ((0.0, None), (alpha, graph)):
        expect = reference_update_w(nx, h, w, neg, a, g, eps)
        np.testing.assert_allclose(update_w(x, h, w, rho, a, g, eps), expect, rtol=1e-12, atol=0)

    fit = reference_weighted_fit(x - h @ w, neg)
    assert dual_objective(x, h, w, rho) == pytest.approx(fit, rel=1e-12)
    # The penalty is a difference of two non-negative sums; near zero the
    # bound is relative to their size.
    floor = 1e-12 * float(graph.degree @ np.sum(w * w, axis=0))
    penalty = reference_penalty(w, laplacian(graph))
    assert graph_penalty(w, graph) == pytest.approx(penalty, rel=1e-12, abs=floor)
    full = dual_objective(x, h, w, rho, alpha, graph)
    assert full == pytest.approx(fit + alpha * penalty, rel=1e-12, abs=alpha * floor)

    # The gradient's graph term is 2 alpha w L, formed without L.
    step = neg[:, None] * (h @ w - x)
    expect = 2.0 * (h.T @ step) + 2.0 * alpha * (w @ laplacian(graph))
    scale = 2.0 * (np.abs(h.T) @ np.abs(step) + alpha * np.abs(w) @ (np.abs(laplacian(graph))))
    got = dual_gradient_w(x, h, w, rho, alpha, graph)
    assert np.all(np.abs(got - expect) <= 1e-12 * scale)


@pytest.mark.parametrize("variant", ["l2", "grnmf"])
@pytest.mark.parametrize("shape", [(50, 60, 3), (7, 2, 2), (500, 40, 4)])
def test_unit_weight_solve_equals_the_weighted_copy_loop_bitwise(variant, shape):
    # With unit weights the factors are the earlier kernels' bit for bit:
    # multiplying by 1.0 is exact and (1 * h).T @ x is the gemm h.T @ x.
    d, n, k = shape
    rng = np.random.default_rng(d * n)
    x = rng.random((d, n)) + 0.05
    h0 = rng.random((d, k)) + 0.1
    w0 = rng.random((k, n)) + 0.1
    graph = weighted_graph(rng, n) if variant == "grnmf" else None
    cfg = SolverConfig(variant=variant, k=k, alpha=10.0, max_iter=40, tol=0.0)
    res = solve(x, graph, cfg, h0, w0)
    ones = np.ones(d)
    alpha = cfg.alpha if graph is not None else 0.0
    h, w = h0.copy(), w0.copy()
    for _ in range(cfg.max_iter):
        h = reference_update_h(x, h, w, ones, EPSILON)
        w = reference_update_w(x, h, w, ones, alpha, graph, EPSILON)
    assert res.h.tobytes() == h.tobytes()
    assert res.w.tobytes() == w.tobytes()


def test_graph_solve_allocates_no_n_by_n_array():
    d, n, k = 40, 800, 4
    rng = np.random.default_rng(31)
    x = rng.random((d, n)) + 0.05
    graph = build_knn_affinity(x, 5, "mutual")
    h0 = rng.random((d, k)) + 0.1
    w0 = rng.random((k, n)) + 0.1
    cfg = SolverConfig(variant="mccgr", k=k, alpha=10.0, max_iter=5, tol=0.0)
    tracemalloc.start()
    try:
        solve(x, graph, cfg, h0, w0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
