"""Every public entry point checks counts, data matrices and label vectors
alike: a bad argument is a DataError that names it, never a numpy TypeError,
a ZeroDivisionError or a quietly truncated value."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mccgr import (
    VARIANTS,
    AffinityGraph,
    DataError,
    ExperimentSpec,
    SolverConfig,
    accuracy,
    build_knn_affinity,
    dual_gradient_h,
    dual_gradient_w,
    dual_objective,
    evaluate,
    init_factors,
    kkt_products,
    kmeans,
    make_synthetic,
    nmi,
    sample_categories,
    save_csv,
    save_labels,
    solve,
    update_h,
    update_w,
)


def spec(**settings):
    # Paths are only read by run_experiment, so none need exist here.
    given = {"k_range": (2,), "variants": ({"variant": "l2"},), **settings}
    return ExperimentSpec(features_path="x.csv", labels_path="y.csv", **given)


# Every counted argument of every public function, as (call on an otherwise
# valid problem, smallest valid value, the name its message starts with).
# Each call is valid at the value 2.
COUNTED = {
    "SolverConfig(k)": (lambda v: SolverConfig(variant="l2", k=v), 1, "k"),
    "SolverConfig(max_iter)": (lambda v: SolverConfig(variant="l2", k=2, max_iter=v), 1, "max_iter"),
    "init_factors(k)": (lambda v: init_factors(np.ones((3, 4)), v, 0), 1, "k"),
    "init_factors(seed)": (lambda v: init_factors(np.ones((3, 4)), 2, v), 0, "seed"),
    "build_knn_affinity(k)": (lambda v: build_knn_affinity(np.eye(4), v), 1, "knn"),
    "kmeans(k)": (lambda v: kmeans(np.eye(2), v), 1, "k"),
    "kmeans(seed)": (lambda v: kmeans(np.eye(2), 2, seed=v), 0, "seed"),
    "kmeans(restarts)": (lambda v: kmeans(np.eye(2), 2, restarts=v), 1, "restarts"),
    "evaluate(k)": (lambda v: evaluate(np.eye(2), [0, 1], v), 1, "k"),
    "evaluate(seed)": (lambda v: evaluate(np.eye(2), [0, 1], 2, seed=v), 0, "seed"),
    "sample_categories(k)": (lambda v: sample_categories([0, 1], v, 0), 1, "k"),
    "sample_categories(seed)": (lambda v: sample_categories([0, 1], 2, v), 0, "seed"),
    "make_synthetic(classes)": (lambda v: make_synthetic(v, 3, 4), 1, "classes"),
    "make_synthetic(per_class)": (lambda v: make_synthetic(2, v, 4), 1, "per_class"),
    "make_synthetic(dim)": (lambda v: make_synthetic(2, 3, v), 2, "dim"),
    "make_synthetic(seed)": (lambda v: make_synthetic(2, 3, 4, seed=v), 0, "seed"),
    "ExperimentSpec(k_range)": (lambda v: spec(k_range=(v,)), 2, "spec key 'k_range'"),
    "ExperimentSpec(repeats)": (lambda v: spec(repeats=v), 1, "spec key 'repeats'"),
    "ExperimentSpec(base_seed)": (lambda v: spec(base_seed=v), 0, "spec key 'base_seed'"),
    "ExperimentSpec(knn)": (lambda v: spec(knn=v), 1, "spec key 'knn'"),
}


@pytest.mark.parametrize("kind", ["bool", "fraction", "numpy float", "below the bound"])
def test_a_bad_count_is_a_data_error_naming_the_argument(kind):
    # numpy's own errors were a TypeError naming no argument (kmeans(p, 2.0),
    # build_knn_affinity(x, True), make_synthetic(2.5, 3, 10)), and a bool
    # or a whole float passed for a count.
    for where, (call, low, name) in COUNTED.items():
        value = {"bool": True, "fraction": 2.5, "numpy float": np.float64(2.0), "below the bound": low - 1}[kind]
        with pytest.raises(DataError) as caught:
            call(value)
        assert re.match(rf"{re.escape(name)}(?!\w)", str(caught.value)), (where, str(caught.value))
        call(np.int64(2))


def with_alpha(alpha):
    # An mccgr config whose alpha is set past __post_init__, so that solve's
    # own check is the one reached.
    cfg = SolverConfig(variant="mccgr", k=2, max_iter=2)
    cfg.alpha = alpha
    return cfg


def floored_calls():
    # Every real argument with a floor, as (call on an otherwise valid
    # problem, the floor, the name its message starts with). Each call is
    # valid at the floor and at the floor plus one.
    x, h, w, rho = np.ones((3, 4)), np.ones((3, 2)), np.ones((2, 4)), -np.ones(3)
    graph = build_knn_affinity(np.arange(8.0).reshape(2, 4), 1)
    return {
        "SolverConfig(alpha)": (lambda v: SolverConfig(variant="l2", k=2, alpha=v), 0, "alpha"),
        "SolverConfig(tol)": (lambda v: SolverConfig(variant="l2", k=2, tol=v), 0, "tol"),
        "update_w(alpha)": (lambda v: update_w(x, h, w, rho, v, graph), 0, "alpha"),
        "dual_objective(alpha)": (lambda v: dual_objective(x, h, w, rho, v, graph), 0, "alpha"),
        "dual_gradient_w(alpha)": (lambda v: dual_gradient_w(x, h, w, rho, v, graph), 0, "alpha"),
        "kkt_products(alpha)": (lambda v: kkt_products(x, h, w, rho, v, graph), 0, "alpha"),
        "solve(cfg.alpha)": (lambda v: solve(x, graph, with_alpha(v), h, w), 0, "alpha"),
        "ExperimentSpec(alpha_sweep)": (lambda v: spec(alpha_sweep=(v,)), 0, "spec key 'alpha_sweep'"),
        "make_synthetic(spread)": (lambda v: make_synthetic(2, 3, 4, spread=v), 0, "spread"),
        "make_synthetic(outlier_scale)": (
            lambda v: make_synthetic(2, 3, 4, "heavy", outlier_scale=v), 0, "outlier_scale"
        ),
    }


@pytest.mark.parametrize("where", list(floored_calls()))
def test_a_bad_floored_real_is_a_data_error_naming_the_argument(where):
    call, low, name = floored_calls()[where]
    for value in (float("nan"), float("inf"), True, "1", None):
        with pytest.raises(DataError) as caught:
            call(value)
        assert re.match(rf"{re.escape(name)}(?!\w)", str(caught.value)), (value, str(caught.value))
    # Below the floor: one message for every floor, as a count's floor words it.
    with pytest.raises(DataError, match=rf"^{re.escape(name)} must be >= {low}, got -1$"):
        call(low - 1)
    call(low)
    call(np.float64(low + 1))


# Every public function that takes a label vector, called with given labels
# on two samples in two classes.
LABELED = {
    "save_labels": lambda y, tmp_path: save_labels(y, tmp_path / "y.csv"),
    "sample_categories": lambda y, tmp_path: sample_categories(y, 2, 0),
    "accuracy": lambda y, tmp_path: accuracy(y, [0, 1]),
    "accuracy (true)": lambda y, tmp_path: accuracy([0, 1], y),
    "nmi": lambda y, tmp_path: nmi(y, [0, 1]),
    "nmi (second)": lambda y, tmp_path: nmi([0, 1], y),
    "evaluate": lambda y, tmp_path: evaluate(np.eye(2), y, 2),
}


@pytest.mark.parametrize("name", LABELED)
def test_a_label_vector_that_is_not_integral_is_a_data_error(name, tmp_path):
    # Before, the labels were truncated without a word: [0.5, 1.9] read as
    # [0, 1], and accuracy([0, 1, 0, 1], [0.2, 1.9, 0.1, 1.2]) was 1.0.
    for bad in ([0.5, 1.9], [0.0, np.nan], [0.0, np.inf], [0.0, 2.0**64], np.array([0, 2**63], dtype=np.uint64)):
        with pytest.raises(DataError, match="must hold integers within int64"):
            LABELED[name](np.array(bad), tmp_path)
    for bad in ([], [[0, 1]]):
        with pytest.raises(DataError, match="non-empty flat vector"):
            LABELED[name](np.array(bad), tmp_path)
    LABELED[name](np.array([0.0, 1.0]), tmp_path)
    LABELED[name]([np.int64(0), 1], tmp_path)


# Every public function that takes a data matrix, called with a matrix of
# the given shape and otherwise valid arguments, and the name it gives it.
def shaped_calls(d, n):
    x = np.ones((d, n))
    h, w, rho = np.ones((d, 2)), np.ones((2, n)), -np.ones(d)
    return {
        "solve": ("x", lambda: solve(x, None, SolverConfig(variant="l2", k=2), h, w)),
        "init_factors": ("x", lambda: init_factors(x, 2, 0)),
        "build_knn_affinity": ("x", lambda: build_knn_affinity(x, 1)),
        "kmeans": ("points", lambda: kmeans(x, 1)),
        "update_h": ("x", lambda: update_h(x, h, w, rho)),
        "update_w": ("x", lambda: update_w(x, h, w, rho)),
        "dual_objective": ("x", lambda: dual_objective(x, h, w, rho)),
        "dual_gradient_h": ("x", lambda: dual_gradient_h(x, h, w, rho)),
        "dual_gradient_w": ("x", lambda: dual_gradient_w(x, h, w, rho)),
        "kkt_products": ("x", lambda: kkt_products(x, h, w, rho)),
    }


@pytest.mark.parametrize("name", list(shaped_calls(1, 1)))
def test_data_with_no_rows_or_no_columns_is_a_data_error_naming_it(name):
    # Before, solve raised ZeroDivisionError with no rows and ran with no
    # columns, and the others returned empty results or named no argument.
    for shape in ((0, 4), (3, 0), (0, 0)):
        arg, call = shaped_calls(*shape)[name]
        with pytest.raises(DataError) as caught:
            call()
        assert str(caught.value) == f"{arg} must be 2-D with at least one row and one column, got shape {shape}"


# Input numpy cannot read as an array of float64s.
NOT_NUMBERS = {
    "text": "abc",
    "text-cells": [["0", "x"], ["x", "0"]],
    "ragged": [[0.0, 1.0], [1.0]],
    "dict": {},
}


@pytest.mark.parametrize("bad", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_input_that_is_not_numbers_is_a_data_error_naming_it(bad, tmp_path):
    calls = {
        "affinity": lambda: AffinityGraph(affinity=bad),
        "x": lambda: build_knn_affinity(bad, 1),
        "points": lambda: kmeans(bad, 1),
        "matrix": lambda: save_csv(bad, tmp_path / "m.csv"),
    }
    for name, call in calls.items():
        with pytest.raises(DataError, match=f"^{name} must be an array of numbers: "):
            call()


def degenerate_calls(x, k, variant):
    # Every entry point that takes a data matrix, at rank (or cluster count) k.
    d, n = x.shape
    h, w, rho = np.ones((d, k)), np.ones((k, n)), -np.ones(d)
    labels = np.arange(n) % 2

    def run_solve():
        try:
            graph = build_knn_affinity(x, 1)
        except DataError:
            graph = None
        return solve(x, graph, SolverConfig(variant=variant, k=k, max_iter=5), h, w)

    return {
        "solve": run_solve,
        "init_factors": lambda: init_factors(x, k, 0),
        "build_knn_affinity": lambda: build_knn_affinity(x, k),
        "kmeans": lambda: kmeans(x, k, restarts=2),
        "evaluate": lambda: evaluate(x, labels, k),
        "update_h": lambda: update_h(x, h, w, rho),
        "update_w": lambda: update_w(x, h, w, rho),
        "dual_objective": lambda: dual_objective(x, h, w, rho),
        "kkt_products": lambda: kkt_products(x, h, w, rho),
    }


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(0, 3),
    n=st.integers(0, 3),
    k=st.integers(0, 4),
    zeros=st.booleans(),
    variant=st.sampled_from(VARIANTS),
)
def test_degenerate_shapes_succeed_or_raise_data_error(d, n, k, zeros, variant):
    # N=1, D=1, k=N and empty axes: each entry point either works or
    # refuses with a DataError, never with another exception type.
    x = np.zeros((d, n)) if zeros else np.random.default_rng(d * 16 + n).random((d, n)) + 0.1
    for name, call in degenerate_calls(x, k, variant).items():
        try:
            call()
        except DataError:
            pass
        except Exception as exc:
            raise AssertionError(f"{name} on shape {(d, n)}, k={k}, {variant}: {exc!r}") from exc
