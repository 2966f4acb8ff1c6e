"""Objectives, auxiliary weights, multiplicative updates, and the solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import mccgr
from mccgr import (
    AffinityGraph,
    DataError,
    NumericalError,
    SolverConfig,
    build_knn_affinity,
    dual_gradient_h,
    dual_gradient_w,
    dual_objective,
    evaluate,
    graph_penalty,
    init_factors,
    kkt_products,
    laplacian,
    make_synthetic,
    solve,
    update_h,
    update_w,
)
from mccgr.factorization import (
    _CANCEL,
    EPSILON,
    FLOOR,
    _gram_r2,
    _kl_divergence,
    _kl_start,
    _products,
    _rho,
    _row_sq,
)


def scipy_csr(a):
    # The graph's CSR arrays as scipy's CSR array: scipy's product is the
    # reference for the library's own.
    return sparse.csr_array((a.data, a.indices, a.indptr), shape=a.shape)


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


def first_step(x, h, w, variant="mcc", theta=1.0):
    # One solver iteration from (h, w): its trace[0] is the tracked objective
    # at (h, w), and its sigma and rho are the E-step at (h, w).
    cfg = SolverConfig(variant=variant, k=h.shape[1], theta=theta, max_iter=1, tol=0.0)
    return solve(x, None, cfg, h, w)


def kl_divergence(x, h, w):
    # The solver's divergence kernel, fed the data term and the sums as
    # solve forms them; it reaches factors with zero entries, which solve
    # rejects.
    c, log_v = _kl_start(x)
    return _kl_divergence(x, c, h, w, np.empty_like(x), log_v, h.sum(axis=0), w.sum(axis=1))


def test_objective_l2_matches_loop():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, h, w = random_instance(rng)
        v = h @ w
        expect = sum(
            (x[i, j] - v[i, j]) ** 2 for i in range(x.shape[0]) for j in range(x.shape[1])
        )
        assert first_step(x, h, w, "l2").trace[0] == pytest.approx(expect, rel=1e-12)


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
        assert first_step(x, h, w, "kl").trace[0] == pytest.approx(expect, rel=1e-12)


def test_objective_kl_zero_entries_contribute_reconstruction():
    x = np.array([[0.0, 2.0]])
    h = np.array([[1.0]])
    w = np.array([[0.5, 2.0]])
    # 0-entry contributes v = 0.5; the other contributes 2 log 1 - 2 + 2 = 0
    assert first_step(x, h, w, "kl").trace[0] == pytest.approx(0.5, rel=1e-12)


def mask_kl_divergence(x, h, w):
    # The divergence gathered with the boolean mask x > 0, in the arithmetic
    # order the library uses.
    pos = x > 0
    xp = x[pos]
    v = h @ w
    terms = np.log(xp / v[pos])
    terms *= xp
    return float(np.sum(terms) - np.sum(xp) + np.sum(v))


def kl_scale(x):
    # sum(x |log x|) + 2 sum(x): the size of the sums whose cancellation is
    # the divergence at a fit near x, v near x.
    log_x = np.log(x, out=np.zeros_like(x), where=x > 0)
    return float(np.sum(x * np.abs(log_x)) + 2.0 * np.sum(x))


@pytest.mark.parametrize("shape", [(1, 5, 1), (9, 7, 2), (40, 60, 3), (256, 150, 4)])
def test_kl_trace_equals_the_masked_divergence_with_zero_data(shape):
    d, n, k = shape
    rng = np.random.default_rng(d * n)
    x = rng.random((d, n)) + 0.05
    x[rng.random((d, n)) < 0.3] = 0.0
    h0 = rng.random((d, k)) + 0.1
    w0 = rng.random((k, n)) + 0.1
    cfg = SolverConfig(variant="kl", k=k, max_iter=25, tol=0.0)
    res = solve(x, None, cfg, h0, w0, record_iterates=True)
    trace = [mask_kl_divergence(x, h0, w0)]
    trace += [mask_kl_divergence(x, h, w) for h, w in res.iterates]
    # Where the fit becomes exact the trace is rounding noise on either side.
    np.testing.assert_allclose(res.trace, trace, rtol=1e-12, atol=1e-12 * kl_scale(x))
    # The flat dot with log v follows C order whatever the memory layout of
    # the data.
    fortran = solve(np.asfortranarray(x), None, cfg, h0, w0)
    assert fortran.trace.tobytes() == res.trace.tobytes()


def test_objective_kl_infinite_divergence_raises():
    x = np.array([[1.0]])
    with pytest.raises(NumericalError):
        kl_divergence(x, np.array([[0.0]]), np.array([[1.0]]))


def test_kl_start_whose_product_underflows_under_zero_data_runs():
    # The first row of x is zero and the first row of h0 so small that its
    # part of h0 @ w0 underflows to 0: those entries contribute v = 0, so the
    # start's divergence is finite, as the masked sum gives it.
    rng = np.random.default_rng(3)
    x = rng.random((4, 6)) + 0.1
    x[0] = 0.0
    h0 = rng.random((4, 2)) + 0.1
    w0 = (rng.random((2, 6)) + 0.1) * 1e-170
    h0[0] = 1e-170
    h0[1:] *= 1e170
    res = solve(x, None, SolverConfig(variant="kl", k=2, max_iter=5, tol=0.0), h0, w0)
    assert res.trace[0] == pytest.approx(mask_kl_divergence(x, h0, w0), rel=1e-12)
    assert np.all(np.isfinite(res.trace))


def test_objective_kl_nonnegative_at_matching_mass():
    # KL >= 0 with equality iff v == x
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert kl_divergence(x, x, np.eye(2)) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, h, w = random_instance(rng)
        assert kl_divergence(x, h, w) >= 0.0


def test_sigma_update_formula():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, h, w = random_instance(rng)
        theta = float(rng.uniform(0.5, 5.0))
        total = float(np.sum((x - h @ w) ** 2))
        expect = np.sqrt(theta * total / (2.0 * x.shape[0]))
        assert first_step(x, h, w, theta=theta).sigma == pytest.approx(expect, rel=1e-12)


def test_sigma_update_floor_on_exact_fit():
    rng = np.random.default_rng(4)
    h = rng.random((6, 2)) + 0.1
    w = rng.random((2, 5)) + 0.1
    x = h @ w
    assert first_step(x, h, w).sigma == EPSILON == 1e-12


def test_sigma_floor_caps_kernel_exponent():
    # however small the residual, the exponent r2_d / (2 sigma^2) stays
    # bounded by D / theta, so weights cannot underflow en masse
    rng = np.random.default_rng(5)
    h = rng.random((6, 2)) + 0.1
    w = rng.random((2, 5)) + 0.1
    x = h @ w
    x[0, 0] += 1e-7  # nearly exact
    theta = 1.0
    rho = first_step(x, h, w, theta=theta).rho
    assert np.all(rho <= -np.exp(-x.shape[0] / theta) * (1 - 1e-12))


def test_rho_step_formula_and_range():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, h, w = random_instance(rng)
        res = first_step(x, h, w, theta=2.0)
        sigma, rho = res.sigma, res.rho
        r2 = np.sum((x - h @ w) ** 2, axis=1)
        assert np.allclose(rho, -np.exp(-r2 / (2 * sigma * sigma)), rtol=1e-12)
        assert np.all(rho < 0.0) and np.all(rho >= -1.0)


def test_rho_step_never_reaches_zero():
    # a row with an astronomically large residual keeps a strictly
    # negative weight (kernel floored at the smallest positive double); the
    # self-tuned sigma of a solve never gets this far, so sigma is fixed at 1
    x = np.array([[1e150, 1e150], [1.0, 1.0]])
    h = np.array([[1.0], [1.0]])
    w = np.array([[1.0, 1.0]])
    rho = _rho(_row_sq(x, h, w), 1.0)
    assert np.all(rho < 0.0)
    assert rho[0] == -np.finfo(np.float64).tiny


def test_rho_orders_rows_by_residual():
    rng = np.random.default_rng(7)
    x, h, w = random_instance(rng, d=6)
    x[2] += 5.0  # make row 2 the worst fit
    rho = first_step(x, h, w).rho
    assert np.argmax(rho) == 2 or np.argmin(-rho) == 2  # closest to zero


def test_dual_objective_reduces_to_l2():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, h, w = random_instance(rng)
        rho = -np.ones(x.shape[0])
        assert dual_objective(x, h, w, rho) == pytest.approx(np.sum((x - h @ w) ** 2), rel=1e-12)


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
    # Row d of h sees only row d of x, so its weight cancels: the step is the
    # unit-weight one bit for bit, down to a weight of the smallest normal
    # double and under a rescale of every weight.
    rng = np.random.default_rng(13)
    x, h, w = random_instance(rng)
    d = x.shape[0]
    tiny = np.finfo(np.float64).tiny
    rho = -rng.uniform(tiny, 1.0, size=d)
    rho[0] = -tiny
    expect = update_h(x, h, w, -np.ones(d)).tobytes()
    assert update_h(x, h, w, rho).tobytes() == expect
    assert update_h(x, h, w, 7.0 * rho).tobytes() == expect


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
    numer = h.T @ x + alpha * (w @ scipy_csr(g.affinity))
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


def test_kkt_products_checks_its_arguments_once(monkeypatch):
    # One check of the step arguments and one of the graph arguments serve
    # both parts.
    calls = []
    for name in ("_check_step", "_graph_terms"):
        original = getattr(mccgr.factorization, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(mccgr.factorization, name, counted)
    x, h, w = random_instance(np.random.default_rng(18))
    kkt_products(x, h, w, -np.ones(8))
    assert sorted(calls) == ["_check_step", "_graph_terms"]


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


# Every function that seeds a generator, called on valid data but the seed.
SEEDED = {
    "init_factors": lambda seed: init_factors(np.ones((3, 4)), 2, seed),
    "kmeans": lambda seed: mccgr.kmeans(np.eye(2), 2, seed=seed),
    "evaluate": lambda seed: mccgr.evaluate(np.eye(2), [0, 1], 2, seed=seed),
    "make_synthetic": lambda seed: mccgr.make_synthetic(2, 3, 4, seed=seed),
    "sample_categories": lambda seed: mccgr.sample_categories([0, 1], 2, seed),
}


@pytest.mark.parametrize("name", SEEDED)
def test_a_bad_seed_is_a_data_error_naming_the_seed(name):
    # numpy's own errors are a TypeError for 1.5 and a bare "expected
    # non-negative integer" for -1.
    for seed, message in ((-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")):
        with pytest.raises(DataError) as caught:
            SEEDED[name](seed)
        assert str(caught.value) == message
    SEEDED[name](np.int64(2))


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



@pytest.mark.parametrize("name", ["update_w", "dual_objective", "dual_gradient_w", "kkt_products", "solve"])
def test_an_alpha_that_is_not_a_finite_real_is_a_data_error(name):
    # Before, NaN > 0 was False, so a NaN alpha dropped the graph term
    # without a word, True was taken as 1, and "1" and None raised a bare
    # TypeError.
    x, calls = graph_argument_calls()
    good = build_knn_affinity(x, 2, "mutual")
    for alpha in (float("nan"), float("inf"), True, "1", None):
        with pytest.raises(DataError, match="^alpha "):
            calls[name](alpha, good)


def step_calls(x):
    # Each public step function, as a call on data x with valid factors.
    h = np.ones((x.shape[0], 2))
    w = np.ones((2, x.shape[1]))
    rho = -np.ones(x.shape[0])
    return {
        "update_h": lambda: update_h(x, h, w, rho),
        "update_w": lambda: update_w(x, h, w, rho),
        "dual_objective": lambda: dual_objective(x, h, w, rho),
        "dual_gradient_h": lambda: dual_gradient_h(x, h, w, rho),
        "dual_gradient_w": lambda: dual_gradient_w(x, h, w, rho),
        "kkt_products": lambda: kkt_products(x, h, w, rho),
    }


@pytest.mark.parametrize("name", list(step_calls(np.ones((1, 1)))))
def test_step_functions_reject_bad_data_as_solve_does(name):
    # Without the check a NaN came back as NaN entries, with no warning.
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        x = np.random.default_rng(27).random((6, 8)) + 0.1
        x[2, 3] = bad
        with pytest.raises(DataError) as by_solve:
            solve(x, None, SolverConfig(variant="l2", k=2), np.ones((6, 2)), np.ones((2, 8)))
        with pytest.raises(DataError) as by_step:
            step_calls(x)[name]()
        assert str(by_step.value) == str(by_solve.value), bad


def factor_calls(x, h, w):
    # Each public step function and solve, as a call on data x with factors
    # h and w; solve runs at rank 2.
    rho = -np.ones(x.shape[0])
    return {
        "update_h": lambda: update_h(x, h, w, rho),
        "update_w": lambda: update_w(x, h, w, rho),
        "dual_objective": lambda: dual_objective(x, h, w, rho),
        "dual_gradient_h": lambda: dual_gradient_h(x, h, w, rho),
        "dual_gradient_w": lambda: dual_gradient_w(x, h, w, rho),
        "kkt_products": lambda: kkt_products(x, h, w, rho),
        "solve": lambda: solve(x, None, SolverConfig(variant="l2", k=2), h, w),
    }


@pytest.mark.parametrize("name", list(factor_calls(np.ones((1, 1)), None, None)))
def test_factors_that_do_not_fit_the_data_are_a_data_error_naming_them(name):
    # One factor check: h is (D, K) and w (K, N), at cfg.k for solve and at
    # h's own rank for a step; solve names its factors h0 and w0.
    x = np.random.default_rng(27).random((6, 8)) + 0.1
    h_name, w_name = ("h0", "w0") if name == "solve" else ("h", "w")
    bad = [(np.ones((5, 2)), np.ones((2, 8))), (np.ones((6, 2)), np.ones((2, 7))), (np.ones((6, 2)), np.ones((3, 8)))]
    if name == "solve":
        bad.append((np.ones((6, 3)), np.ones((3, 8))))
    for h, w in bad:
        with pytest.raises(DataError) as caught:
            factor_calls(x, h, w)[name]()
        rank = 2 if name == "solve" else h.shape[1]
        assert str(caught.value) == f"incompatible shapes: x (6, 8), {h_name} {h.shape}, {w_name} {w.shape}, rank {rank}"
    factor_calls(x, np.ones((6, 2)), np.ones((2, 8)))[name]()


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
    assert res.trace[0] == pytest.approx(np.sum((x - h0 @ w0) ** 2), rel=1e-12)
    # a generous tolerance stops immediately
    loose = solve(x, None, SolverConfig(variant="l2", k=2, max_iter=40, tol=0.9), h0, w0)
    assert loose.converged and loose.iterations_run == 1


@pytest.mark.parametrize("variant", ["l2", "mcc"])
def test_a_start_whose_objective_overflows_is_a_numerical_error(variant):
    # The start objective overflows to inf. Checked only from iteration 1,
    # it became the scale of every change, so the second iteration's change
    # read as 0 and the run "converged" after 2 iterations; the same data
    # scaled by 1e152 runs hundreds.
    x = np.random.default_rng(0).random((20, 30)) * 1e153
    h0, w0 = init_factors(x, 3, 0)
    with pytest.warns(RuntimeWarning), pytest.raises(NumericalError, match="at iteration 0$"):
        solve(x, None, SolverConfig(variant=variant, k=3), h0, w0)


def test_kl_runs_clean_where_the_squared_residual_overflows():
    # The data of the test above, whose squared residual overflows: kl reads
    # no squared residual, so it runs with no RuntimeWarning and converges.
    x = np.random.default_rng(0).random((20, 30)) * 1e153
    h0, w0 = init_factors(x, 3, 0)
    res = solve(x, None, SolverConfig(variant="kl", k=3), h0, w0)
    assert res.converged
    assert res.sigma == np.inf


def refuse(name):
    def kernel(*args):
        raise AssertionError(f"{name} called")

    return kernel


@pytest.mark.parametrize("variant", mccgr.VARIANTS)
def test_only_mcc_and_mccgr_run_the_e_step(variant, monkeypatch):
    rng = np.random.default_rng(26)
    x = rng.random((8, 10)) + 0.1
    h0, w0 = init_factors(x, 2, 26)
    graph = build_knn_affinity(x, 3, "mutual")
    cfg = SolverConfig(variant=variant, k=2, alpha=1.0, max_iter=20, tol=0.0)
    live = variant in ("mcc", "mccgr")
    if not live:
        for name in ("_sigma", "_rho") + (("_row_sq",) if variant == "kl" else ()):
            monkeypatch.setattr(mccgr.factorization, name, refuse(name))
    res = solve(x, graph if cfg.graph_weight > 0 else None, cfg, h0, w0)
    if live:
        assert np.isfinite(res.sigma) and res.sigma >= EPSILON
    else:
        # The width at which every kernel value is exactly 1, as rho = -1 is.
        assert res.sigma == np.inf
        assert np.all(res.rho == -1.0)


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


def test_correntropy_beats_l2_on_heavy_noise_at_low_separation():
    # The paper's mechanism where it matters: at separation 1 the corrupted
    # feature rows swamp the class blocks for l2, while the correntropy
    # weights drop them. Paired by seed over the data, the start and k-means.
    gains = {"mcc": [], "mccgr": []}
    for seed in range(8):
        x, y = make_synthetic(5, 30, 200, noise="heavy", seed=seed, separation=1.0)
        graph = build_knn_affinity(x, 5, "mutual")
        h0, w0 = init_factors(x, 5, seed)
        acc = {}
        for variant in ("l2", "mcc", "mccgr"):
            cfg = SolverConfig(variant=variant, k=5, alpha=10.0, max_iter=200)
            res = solve(x, graph if cfg.graph_weight > 0 else None, cfg, h0, w0)
            acc[variant] = evaluate(res.w, y, 5, seed=seed).accuracy
        for variant in gains:
            gains[variant].append(acc[variant] - acc["l2"])
    for variant, gain in gains.items():
        assert np.mean(gain) >= 0.25, f"{variant} mean gain {np.mean(gain):.3f}"
        assert sum(g > 0 for g in gain) >= 6, f"{variant} wins {gain}"


def reference_solve(x, graph, cfg, h0, w0):
    # The solver loop over the public update_h, update_w and dual_objective,
    # with the E-step and the KL step and divergence written out in numpy
    # and every product recomputed where it is read.
    d = x.shape[0]
    h, w = h0.copy(), w0.copy()
    alpha = cfg.alpha if cfg.variant in ("grnmf", "mccgr") else 0.0
    live_rho = cfg.variant in ("mcc", "mccgr")
    kl = cfg.variant == "kl"
    eps = EPSILON
    xsq = np.einsum("ij,ij->i", x, x)

    def e_step(h_, w_):
        # Only mcc and mccgr have a kernel; the others report its unit limit.
        if not live_rho:
            return np.inf, -np.ones(d)
        # The Gram form of the row sums of (x - h w)^2, with the rows it
        # leaves under 1e3 eps ||x_d||^2 summed from the explicit residual.
        wt = np.ascontiguousarray(w_.T)
        r2 = np.einsum("ij,ij->i", h_, h_ @ (w_ @ wt) - 2.0 * (x @ wt)) + xsq
        low = r2 < 1e3 * np.finfo(np.float64).eps * xsq
        r = x[low] - h_[low] @ w_
        r2[low] = np.einsum("ij,ij->i", r, r)
        sigma_ = max(float(np.sqrt(cfg.theta * float(r2.sum()) / (2.0 * d))), eps)
        rho_ = -np.maximum(np.exp(-r2 / (2.0 * sigma_ * sigma_)), np.finfo(np.float64).tiny)
        return sigma_, rho_

    def tracked(h_, w_, rho_):
        if kl:
            # sum(x log(x / v) - x + v) as sum(x log x - x) - <x, log v> + sum(v).
            log_x = np.log(x, out=np.zeros_like(x), where=x > 0)
            c = float(np.einsum("ij,ij->", x, log_x)) - float(x.sum())
            return c - float(np.einsum("ij,ij->", x, np.log(h_ @ w_))) + float(h_.sum(axis=0) @ w_.sum(axis=1))
        return dual_objective(x, h_, w_, rho_, alpha, graph)

    sigma, rho = e_step(h, w)
    trace = [tracked(h, w, rho)]
    scale = abs(trace[0])
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        if kl:
            ratio = x / np.maximum(h @ w, eps)
            h = np.maximum(h * (ratio @ np.ascontiguousarray(w.T)) / (np.sum(w, axis=1)[None, :] + eps), 1e-16)
            ratio = x / np.maximum(h @ w, eps)
            w = np.maximum(w * (np.ascontiguousarray(h.T) @ ratio) / (np.sum(h, axis=0)[:, None] + eps), 1e-16)
        else:
            sigma, rho = e_step(h, w)
            h = update_h(x, h, w, rho)
            w = update_w(x, h, w, rho, alpha, graph)
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


# The transposed operands are copied to C order and alpha scales the
# affinity and the degrees, as in the library's kernels, so that with unit
# weights the two run the same arithmetic.


def reference_update_h(nx, h, w, neg, epsilon):
    wt = np.ascontiguousarray(w.T)
    numer = nx @ wt
    denom = (neg[:, None] * h) @ (w @ wt) + epsilon
    return np.maximum(h * numer / denom, 1e-16)


def reference_update_w(nx, h, w, neg, alpha, graph, epsilon):
    ht = np.ascontiguousarray(h.T)
    numer = ht @ nx
    denom = (ht @ (neg[:, None] * h)) @ w
    if alpha > 0:
        numer = numer + w @ (alpha * scipy_csr(graph.affinity))
        denom = denom + w * (alpha * graph.degree[None, :])
    return np.maximum(w * numer / (denom + epsilon), 1e-16)


def reference_penalty(w, lap):
    return max(float(np.sum((w @ lap) * w)), 0.0)


def weighted_graph(rng, n):
    # Symmetric, zero diagonal, non-binary weights, about half the pairs joined.
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    a = np.triu(a, 1)
    return AffinityGraph(affinity=a + a.T)


@st.composite
def kernel_problems(draw, max_d=12, max_n=12):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(2, max_n))
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
    nx = neg[:, None] * x

    # The H step's weights cancel row by row, so its reference has unit weights.
    expect = reference_update_h(x, h, w, np.ones(d), EPSILON)
    np.testing.assert_allclose(update_h(x, h, w, rho), expect, rtol=1e-12, atol=0)
    for a, g in ((0.0, None), (alpha, graph)):
        expect = reference_update_w(nx, h, w, neg, a, g, EPSILON)
        np.testing.assert_allclose(update_w(x, h, w, rho, a, g), expect, rtol=1e-12, atol=0)

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


def explicit_gradients(x, h, w, rho, alpha, lap):
    # The gradients over the explicit D x N residual and the dense Laplacian
    # L: 2 diag(-rho) (h w - x) w^T and 2 h^T diag(-rho) (h w - x) + 2 alpha
    # w L. Returns each with the absolute scale of its terms, the same sums
    # over |h w| + x and |L|.
    neg = -rho[:, None]
    step = neg * (h @ w - x)
    size = neg * (h @ w + x)
    gh, gw = 2.0 * step @ w.T, 2.0 * (h.T @ step) + 2.0 * alpha * (w @ lap)
    return gh, gw, 2.0 * size @ w.T, 2.0 * (h.T @ size) + 2.0 * alpha * (w @ np.abs(lap))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 100.0]), st.sampled_from(["zeros", "exact"]),
)
@example(1, 1, 1, 0, 0.0, "zeros")
@example(1, 1, 1, 1, 100.0, "exact")
def test_gradients_equal_the_explicit_residual_forms(d, n, k, seed, alpha, data):
    # The gradients come from the products the steps divide; they equal
    # the explicit-residual forms to within 1e-12 of the terms' scale, at
    # exact fits too, where the residual cancels to rounding.
    k = min(k, d, n)
    rng = np.random.default_rng(seed)
    h = rng.random((d, k)) + 0.01
    w = rng.random((k, n)) + 0.01
    if data == "exact":
        x = h @ w
    else:
        x = rng.random((d, n))
        x[rng.random((d, n)) < 0.3] = 0.0
    rho = -rng.uniform(1e-3, 1.0, size=d)
    graph = weighted_graph(rng, n) if alpha > 0 else None
    lap = np.zeros((n, n)) if graph is None else laplacian(graph)
    gh, gw, sh, sw = explicit_gradients(x, h, w, rho, alpha, lap)
    assert np.all(np.abs(dual_gradient_h(x, h, w, rho) - gh) <= 1e-12 * sh)
    assert np.all(np.abs(dual_gradient_w(x, h, w, rho, alpha, graph) - gw) <= 1e-12 * sw)
    ph, pw = kkt_products(x, h, w, rho, alpha, graph)
    assert np.all(np.abs(ph - 0.5 * gh * h) <= 1e-12 * sh * h)
    assert np.all(np.abs(pw - 0.5 * gw * w) <= 1e-12 * sw * w)


@settings(max_examples=200, deadline=None)
@given(kernel_problems(max_d=12, max_n=40), st.sampled_from(["zeros", "positive", "exact"]))
@example((1, 2, 1, 0), "exact")
@example((12, 2, 2, 1), "zeros")
def test_kl_divergence_equals_the_masked_sum(problem, data):
    # c - <x, log v> + sum(v) is sum over x > 0 of x log(x / v) - x, plus
    # sum(v). At an exact fit the divergence is a cancellation of sums as
    # large as sum(x |log x|), so there it is held to that scale.
    d, n, k, seed = problem
    rng = np.random.default_rng(seed)
    h = rng.random((d, k)) + 0.01
    w = rng.random((k, n)) + 0.01
    if data == "exact":
        x = h @ w
    else:
        x = rng.random((d, n)) + (0.01 if data == "positive" else 0.0)
        if data == "zeros":
            x[rng.random((d, n)) < 0.3] = 0.0
    got = kl_divergence(x, h, w)
    expect = mask_kl_divergence(x, h, w)
    if data == "exact":
        assert abs(got - expect) <= 1e-12 * kl_scale(x)
    else:
        assert got == pytest.approx(expect, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(kernel_problems(max_d=12, max_n=40), st.sampled_from(["sparse", "near", "exact"]))
@example((5, 2, 2, 0), "exact")
@example((12, 2, 1, 1), "near")
def test_gram_residual_matches_the_explicit_row_sums(problem, data):
    # ||x_d||^2 - 2 h_d.(x w^T)_d + h_d.(h w w^T)_d equals the row sums of
    # (x - h w)^2 to a few eps ||x_d||^2. At an exact rank the form cancels to
    # that rounding level, so the explicit fallback must have run: its sums
    # are rounding squared.
    d, n, k, seed = problem
    rng = np.random.default_rng(seed)
    h = rng.random((d, k)) + 0.01
    w = rng.random((k, n)) + 0.01
    if data == "sparse":
        x = rng.random((d, n))
        x[rng.random((d, n)) < 0.2] = 0.0
    else:
        x = h @ w
        if data == "near":
            x = np.abs(x + 1e-6 * rng.standard_normal((d, n)))
    xsq = np.einsum("ij,ij->i", x, x)
    got = _gram_r2(x, h, w, *_products(x, h, w), xsq, _CANCEL * xsq)
    expect = ((x - h @ w) ** 2).sum(axis=1)
    assert np.all(np.abs(got - expect) <= np.maximum(1e-10 * expect, 1e-12 * xsq))
    if data == "exact":
        assert np.all(got <= 1e-24 * xsq)


def test_fixed_weight_descent_holds_on_exact_rank_data():
    # Criterion 1 on data of exact rank K from a warm start: the fit runs
    # into the rows the Gram form cannot resolve, where the objective must
    # still never rise. Without the explicit fallback 442 steps rose on these
    # instances; with it from 1e1 eps ||x_d||^2, 76; from 3e1 up, none.
    rng = np.random.default_rng(10)
    for _ in range(6):
        h = (rng.random((50, 5)) + 0.2) * 0.01
        w = rng.random((5, 40)) + 0.2
        x = h @ w
        h = h * rng.uniform(0.95, 1.05, size=h.shape)
        w = w * rng.uniform(0.95, 1.05, size=w.shape)
        rho = -rng.uniform(0.05, 1.0, size=50)
        f = dual_objective(x, h, w, rho)
        for _ in range(1000):
            h = update_h(x, h, w, rho)
            w = update_w(x, h, w, rho)
            f_next = dual_objective(x, h, w, rho)
            assert f_next <= f + 1e-10 * abs(f)
            f = f_next
        xsq = np.einsum("ij,ij->i", x, x)
        assert np.any(_row_sq(x, h, w) < _CANCEL * xsq)


@pytest.mark.parametrize("variant", ["l2", "grnmf"])
@pytest.mark.parametrize("shape", [(50, 60, 3), (7, 2, 2), (500, 40, 4)])
def test_unit_weight_solve_equals_the_weighted_copy_loop_bitwise(variant, shape):
    # With unit weights the factors are the weighted-copy kernels' bit for
    # bit: multiplying by 1.0 is exact, so (1 * h).T in C order is the copy
    # of h.T that the reference multiplies x by.
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


@pytest.mark.parametrize("d, n, k", [(256, 150, 5), (500, 2000, 4)])
@pytest.mark.parametrize(
    "variant, mode",
    [("l2", None), ("mcc", None), ("grnmf", "mutual"), ("mccgr", "mutual"), ("grnmf", "symmetrized"), ("mccgr", "symmetrized")],
)
def test_squared_error_solve_peaks_at_most_1_2_data_matrices(variant, mode, d, n, k):
    # No D x N array beyond the input checks' masks: the residual comes
    # from D x K products. Measured 0.13-0.36 D x N float64 arrays at these
    # shapes (the experiment cell's and the CLI's) without a graph or with
    # the mutual one. The arrays of W A, (K + 1) nnz int64 indices and nnz
    # weights, are O(K nnz), not O(D N); the symmetrized graph stores about
    # three times the mutual one's entries, and (K + 1) nnz int64s are
    # allowed on top for it (measured 0.50 and 0.12 beside them).
    rng = np.random.default_rng(37)
    x = rng.random((d, n)) + 0.05
    cfg = SolverConfig(variant=variant, k=k, alpha=10.0, max_iter=5, tol=0.0)
    graph = build_knn_affinity(x, 5, mode) if mode else None
    h0 = rng.random((d, k)) + 0.1
    w0 = rng.random((k, n)) + 0.1
    tracemalloc.start()
    try:
        solve(x, graph, cfg, h0, w0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = 8 * (k + 1) * graph.affinity.nnz if mode == "symmetrized" else 0
    assert peak <= 0.6 * d * n * 8 + extra, peak / (d * n * 8)


@pytest.mark.parametrize("d, n, k", [(256, 150, 5), (500, 2000, 4)])
def test_kl_solve_peaks_at_most_4_4_data_matrices(d, n, k):
    # kl works in two D x N buffers, the reconstruction and log(H W); the
    # start's x > 0 mask is freed before the loop: measured 2.12 and 2.02 D x
    # N float64 arrays at these shapes (the experiment cell's and the
    # CLI's), with every entry of x positive.
    rng = np.random.default_rng(37)
    x = rng.random((d, n)) + 0.05
    cfg = SolverConfig(variant="kl", k=k, max_iter=5, tol=0.0)
    h0 = rng.random((d, k)) + 0.1
    w0 = rng.random((k, n)) + 0.1
    tracemalloc.start()
    try:
        solve(x, None, cfg, h0, w0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * d * n * 8, peak / (d * n * 8)


@pytest.mark.parametrize("d, n, k", [(256, 150, 5), (500, 2000, 4)])
def test_gradients_and_kkt_products_peak_at_most_0_3_data_matrices(d, n, k):
    # The gradients read the D x K products of the H step and the K x N
    # parts of the W step, so no D x N residual is formed: measured 0.13-0.25
    # D x N float64 arrays at these shapes (the experiment cell's and the
    # CLI's), the input check's masks included; an explicit residual h w - x
    # and its weighted copy took 2.01-2.26.
    rng = np.random.default_rng(37)
    x = rng.random((d, n)) + 0.05
    h = rng.random((d, k)) + 0.1
    w = rng.random((k, n)) + 0.1
    rho = -rng.uniform(0.05, 1.0, size=d)
    graph = build_knn_affinity(x, 5, "mutual")
    calls = {"dual_gradient_h": lambda: dual_gradient_h(x, h, w, rho)}
    for alpha in (0.0, 10.0):
        calls[f"dual_gradient_w({alpha})"] = lambda a=alpha: dual_gradient_w(x, h, w, rho, a, graph)
        calls[f"kkt_products({alpha})"] = lambda a=alpha: kkt_products(x, h, w, rho, a, graph)
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * d * n * 8, (name, peak / (d * n * 8))


def assert_close_to_scale(got, expect):
    # Within 1e-9 of the array's largest entry: reordering changes only the
    # order of floating-point sums.
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9 * float(np.max(np.abs(expect))))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_solve_does_not_depend_on_feature_or_sample_order(d, n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((d, n))
    x[rng.random((d, n)) < 0.2] = 0.0
    h0, w0 = init_factors(x, k, seed)
    graph = weighted_graph(rng, n)
    p, q = rng.permutation(d), rng.permutation(n)
    a = graph.affinity.toarray()
    graph_q = AffinityGraph(affinity=a[q][:, q])
    for variant in mccgr.VARIANTS:
        cfg = SolverConfig(variant=variant, k=k, alpha=10.0, max_iter=20, tol=0.0)
        g, g_q = (graph, graph_q) if cfg.graph_weight > 0 else (None, None)
        base = solve(x, g, cfg, h0, w0)
        rows = solve(x[p], g, cfg, h0[p], w0)
        assert_close_to_scale(rows.h, base.h[p])
        assert_close_to_scale(rows.w, base.w)
        assert_close_to_scale(rows.rho, base.rho[p])
        assert_close_to_scale(rows.trace, base.trace)
        cols = solve(x[:, q], g_q, cfg, h0, w0[:, q])
        assert_close_to_scale(cols.h, base.h)
        assert_close_to_scale(cols.w, base.w[:, q])
        assert_close_to_scale(cols.trace, base.trace)


@settings(max_examples=300, deadline=None)
@given(
    kernel_problems(max_d=4, max_n=6),
    st.sampled_from([0.0, 0.3, 0.7]),
)
def test_every_variant_survives_degenerate_shapes_and_sparse_data(problem, zeroed):
    # One feature, two samples, k = min(D, N), data mostly or wholly zero:
    # every variant keeps finite factors at or above FLOOR and a finite
    # trace, and the variants without an E-step descend monotonically.
    d, n, k, seed = problem
    rng = np.random.default_rng(seed)
    x = rng.random((d, n))
    x[rng.random((d, n)) < zeroed] = 0.0
    h0, w0 = init_factors(x, k, seed)
    graph = build_knn_affinity(x, 1)
    for variant in mccgr.VARIANTS:
        cfg = SolverConfig(variant=variant, k=k, alpha=10.0, max_iter=50, tol=0.0)
        res = solve(x, graph if cfg.graph_weight > 0 else None, cfg, h0, w0)
        for factor in (res.h, res.w):
            assert np.all(np.isfinite(factor)) and np.all(factor >= FLOOR), variant
        assert len(res.trace) == 51 and np.all(np.isfinite(res.trace)), variant
        if variant in ("l2", "grnmf", "kl"):
            slack = 1e-10 * abs(res.trace[0])
            assert np.all(np.diff(res.trace) <= slack), (variant, res.trace)
