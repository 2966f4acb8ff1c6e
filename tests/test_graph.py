"""Affinity graphs: construction invariants, Laplacian, smoothness penalty."""

import numpy as np
import pytest

from mccgr import AffinityGraph, DataError, build_knn_affinity, graph_penalty, laplacian


def brute_force_neighbors(x, k):
    # per-column k nearest columns by Euclidean distance, lower index on ties
    n = x.shape[1]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = np.sqrt(np.sum((x[:, i] - x[:, j]) ** 2)) if i != j else np.inf
    lists = []
    for i in range(n):
        order = sorted(range(n), key=lambda j: (d[i, j], j))
        lists.append(set(order[:k]))
    return lists


def pairwise_penalty(w, affinity):
    # 0.5 * sum_ij a_ij ||w_i - w_j||^2, the textbook form of Tr(W L W^T)
    n = affinity.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = w[:, i] - w[:, j]
            total += 0.5 * affinity[i, j] * float(diff @ diff)
    return total


def test_affinity_invariants_random_data():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(1, min(6, n - 1) + 1))
        x = rng.random((4, n))
        mode = ("mutual", "symmetrized")[trial % 2]
        g = build_knn_affinity(x, k, mode)
        a = g.affinity
        assert a.shape == (n, n)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.array_equal(g.degree, a.sum(axis=1))
        assert g.knn == k and g.mode == mode


def test_mutual_subset_of_symmetrized():
    rng = np.random.default_rng(1)
    for _ in range(15):
        x = rng.random((5, 18))
        mutual = build_knn_affinity(x, 4, "mutual").affinity
        union = build_knn_affinity(x, 4, "symmetrized").affinity
        assert np.all(mutual <= union)
        # row degree bounds: mutual <= k, symmetrized >= k
        assert np.all(mutual.sum(axis=1) <= 4)
        assert np.all(union.sum(axis=1) >= 4)


def test_neighbor_lists_match_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(5, 14))
        k = int(rng.integers(1, n - 1))
        x = rng.random((3, n))
        lists = brute_force_neighbors(x, k)
        member = np.zeros((n, n), dtype=bool)
        for i, s in enumerate(lists):
            member[i, list(s)] = True
        expect_mutual = (member & member.T).astype(np.float64)
        expect_union = (member | member.T).astype(np.float64)
        assert np.array_equal(build_knn_affinity(x, k, "mutual").affinity, expect_mutual)
        assert np.array_equal(build_knn_affinity(x, k, "symmetrized").affinity, expect_union)


def test_distance_ties_break_to_lower_index():
    # three columns at equal distance from column 0; k=1 must pick index 1
    x = np.array([
        [0.0, 1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, -1.0],
    ])
    g = build_knn_affinity(x, 1, "symmetrized")
    # column 0 lists column 1; columns 1..4 all list column 0
    assert g.affinity[0, 1] == 1.0
    assert np.all(g.affinity[0, 2:] == 1.0)  # symmetrized keeps their edges too


def test_duplicate_columns_are_fine():
    x = np.ones((3, 6))
    g = build_knn_affinity(x, 2, "mutual")
    # all distances zero, stable ties: column i lists the two lowest other indices
    assert np.array_equal(g.affinity, g.affinity.T)
    assert np.all(np.diag(g.affinity) == 0.0)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.random((4, 12))
        g = build_knn_affinity(x, 3, "mutual")
        lap = laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(np.diag(lap), g.degree)
        # PSD: x^T L x >= 0 for random vectors
        for _ in range(5):
            v = rng.standard_normal(g.n)
            assert v @ lap @ v >= -1e-12


def test_graph_penalty_matches_pairwise_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        x = rng.random((3, n))
        g = build_knn_affinity(x, 2, "symmetrized")
        w = rng.random((4, n))
        assert graph_penalty(w, g) == pytest.approx(pairwise_penalty(w, g.affinity), rel=1e-12)


def test_graph_penalty_zero_for_constant_columns():
    x = np.random.default_rng(5).random((3, 8))
    g = build_knn_affinity(x, 2, "mutual")
    w = np.tile(np.array([[1.0], [2.0]]), (1, 8))
    assert graph_penalty(w, g) == 0.0


def test_build_rejects_bad_arguments():
    x = np.random.default_rng(6).random((3, 8))
    with pytest.raises(DataError):
        build_knn_affinity(x, 0, "mutual")
    with pytest.raises(DataError):
        build_knn_affinity(x, 8, "mutual")
    with pytest.raises(DataError):
        build_knn_affinity(x, 2, "nope")
    with pytest.raises(DataError):
        build_knn_affinity(x[:, :1], 1, "mutual")
    with pytest.raises(DataError):
        build_knn_affinity(x[0], 2, "mutual")


def test_affinity_graph_validation():
    with pytest.raises(DataError, match="square"):
        AffinityGraph(affinity=np.ones((2, 3)), knn=1, mode="mutual")
    with pytest.raises(DataError, match="symmetric"):
        AffinityGraph(affinity=np.array([[0.0, 1.0], [0.0, 0.0]]), knn=1, mode="mutual")
    with pytest.raises(DataError, match="diagonal"):
        AffinityGraph(affinity=np.eye(2), knn=1, mode="mutual")
    with pytest.raises(DataError, match="negative"):
        AffinityGraph(affinity=np.array([[0.0, -1.0], [-1.0, 0.0]]), knn=1, mode="mutual")


def test_penalty_rejects_mismatched_width():
    x = np.random.default_rng(7).random((3, 8))
    g = build_knn_affinity(x, 2, "mutual")
    with pytest.raises(DataError):
        graph_penalty(np.ones((2, 5)), g)


def argsort_affinity(x, k, mode):
    # The stable-argsort selection build_knn_affinity replaced, on the same d2.
    gram = x.T @ x
    sq = np.diag(gram).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, np.inf)
    n = x.shape[1]
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    member = np.zeros((n, n), dtype=bool)
    member[np.repeat(np.arange(n), k), neighbors.ravel()] = True
    adjacency = member & member.T if mode == "mutual" else member | member.T
    return adjacency.astype(np.float64)


def test_partition_selection_matches_stable_argsort_on_ties():
    # small integer coordinates put many columns at equal distances, so most
    # rows have ties across the k-th neighbour; every k and both modes
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(2, 16))
        d = int(rng.integers(1, 4))
        x = rng.integers(0, 3, size=(d, n)).astype(np.float64)
        for k in range(1, n):
            for mode in ("mutual", "symmetrized"):
                got = build_knn_affinity(x, k, mode).affinity
                assert np.array_equal(got, argsort_affinity(x, k, mode)), (trial, k, mode)


def test_build_rejects_non_finite_data():
    x = np.random.default_rng(13).random((3, 8))
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[1, 4] = bad
        with pytest.raises(DataError, match="NaN or Inf"):
            build_knn_affinity(y, 2, "mutual")


def test_build_rejects_overflowing_distances():
    x = np.random.default_rng(14).random((3, 8))
    x[0, 2] = 1e160  # finite, but its squared norm overflows
    with pytest.raises(DataError, match="too large"):
        build_knn_affinity(x, 2, "mutual")
