"""Affinity graphs: construction invariants, Laplacian, smoothness penalty."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from mccgr import AffinityGraph, DataError, build_knn_affinity, graph_penalty, laplacian
from mccgr.graph import _BLOCK, MODES, CSRMatrix, _neighbor_lists, _product_plan, _times_affinity


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
        a = g.affinity.toarray()
        assert a.shape == (n, n)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.array_equal(g.degree, a.sum(axis=1))


def test_mutual_subset_of_symmetrized():
    rng = np.random.default_rng(1)
    for _ in range(15):
        x = rng.random((5, 18))
        mutual = build_knn_affinity(x, 4, "mutual").affinity.toarray()
        union = build_knn_affinity(x, 4, "symmetrized").affinity.toarray()
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
        assert np.array_equal(build_knn_affinity(x, k, "mutual").affinity.toarray(), expect_mutual)
        assert np.array_equal(build_knn_affinity(x, k, "symmetrized").affinity.toarray(), expect_union)


def test_distance_ties_break_to_lower_index():
    # three columns at equal distance from column 0; k=1 must pick index 1
    x = np.array([
        [0.0, 1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, -1.0],
    ])
    g = build_knn_affinity(x, 1, "symmetrized")
    # column 0 lists column 1; columns 1..4 all list column 0
    assert g.affinity.toarray()[0, 1] == 1.0
    assert np.all(g.affinity.toarray()[0, 2:] == 1.0)  # symmetrized keeps their edges too


def test_duplicate_columns_are_fine():
    x = np.ones((3, 6))
    g = build_knn_affinity(x, 2, "mutual")
    # all distances zero, stable ties: column i lists the two lowest other indices
    assert np.array_equal(g.affinity.toarray(), g.affinity.toarray().T)
    assert np.all(np.diag(g.affinity.toarray()) == 0.0)


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
        assert graph_penalty(w, g) == pytest.approx(pairwise_penalty(w, g.affinity.toarray()), rel=1e-12)


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
        AffinityGraph(affinity=np.ones((2, 3)))
    with pytest.raises(DataError, match="symmetric"):
        AffinityGraph(affinity=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DataError, match="diagonal"):
        AffinityGraph(affinity=np.eye(2))
    with pytest.raises(DataError, match="negative"):
        AffinityGraph(affinity=np.array([[0.0, -1.0], [-1.0, 0.0]]))


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
                got = build_knn_affinity(x, k, mode).affinity.toarray()
                assert np.array_equal(got, argsort_affinity(x, k, mode)), (trial, k, mode)


@st.composite
def real_valued_data(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 14))
    unit = arrays(np.float64, (d, n), elements=st.floats(-1.0, 1.0, allow_subnormal=False))
    return draw(unit) * 10.0 ** draw(st.integers(-5, 5))


@settings(max_examples=150, deadline=None)
@given(real_valued_data())
@example(np.array([[0.25, -3.0]]))
@example(np.array([[1e-5, 2e-5, 3e-5, 1e-5]]))
@example(np.array([[1e5, 0.0], [-1e5, 3e5]]))
@example(np.array([[-0.3, 0.0, 0.3, 0.6, -0.6]]) * 1e-5)  # mirrored points: exact ties
def test_selection_matches_stable_argsort_on_real_valued_data(x):
    # The builder uses its d2 as computed and the reference symmetrizes its
    # own, so a d2 that is not exactly symmetric can split a tie between rows
    # i and j differently and list other neighbours.
    for k in range(1, x.shape[1]):
        for mode in ("mutual", "symmetrized"):
            got = build_knn_affinity(x, k, mode).affinity.toarray()
            assert np.array_equal(got, argsort_affinity(x, k, mode)), (k, mode)


@st.composite
def integer_data_and_order(draw):
    # Small integer entries, so every squared distance is exact; a sample
    # order p and a neighbour count.
    d = draw(st.integers(2, 4))
    n = draw(st.integers(2, 9))
    x = draw(arrays(np.int64, (d, n), elements=st.integers(0, 50))).astype(np.float64)
    return x, np.array(draw(st.permutations(range(n)))), draw(st.integers(1, n - 1))


@settings(max_examples=60, deadline=None)
@given(integer_data_and_order())
def test_the_affinity_does_not_depend_on_sample_order(problem):
    # With distinct distances in each row there is no tie for the column
    # order to break, so permuting the samples only permutes the graph.
    x, p, knn = problem
    d2 = ((x[:, :, None] - x[:, None, :]) ** 2).sum(axis=0)
    for row in range(x.shape[1]):
        others = np.delete(d2[row], row)
        assume(np.unique(others).size == others.size)
    for mode in ("mutual", "symmetrized"):
        expected = build_knn_affinity(x, knn, mode).affinity.toarray()[np.ix_(p, p)]
        assert np.array_equal(build_knn_affinity(x[:, p], knn, mode).affinity.toarray(), expected), mode


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


# Graphs above one row block of the builder: the selection, the CSR form and
# the AffinityGraph checks must not depend on where a block ends.
ABOVE_ONE_BLOCK = (_BLOCK + 1, 2 * _BLOCK + 37)


def scipy_csr(a):
    # The graph's CSR arrays as scipy's CSR array, the tests' reference.
    return sparse.csr_array((a.data, a.indices, a.indptr), shape=a.shape)


def csr_invariants(a, n):
    assert isinstance(a, CSRMatrix) and a.data.dtype == np.float64 and a.shape == (n, n)
    assert not any(arr.flags.writeable for arr in (a.rows, a.indptr, a.indices, a.data))
    assert a.indptr.shape == (n + 1,) and a.indptr[0] == 0 and a.indptr[-1] == a.nnz == a.indices.size
    # rows holds each stored entry's row, in storage order.
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    assert np.array_equal(a.rows, rows)
    # Within each row the column indices strictly increase: sorted, no duplicates.
    same_row = rows[1:] == rows[:-1]
    assert np.all(a.indices[1:][same_row] > a.indices[:-1][same_row])
    assert np.all(a.data != 0.0)
    s = scipy_csr(a)
    assert (s != s.T).nnz == 0
    assert np.all(s.diagonal() == 0.0)


@pytest.mark.parametrize("n", ABOVE_ONE_BLOCK)
@pytest.mark.parametrize("data", ["tie_heavy", "real_valued"])
def test_selection_above_one_row_block_matches_stable_argsort(n, data):
    rng = np.random.default_rng(n)
    for d in (1, 3):
        if data == "tie_heavy":
            x = rng.integers(0, 3, size=(d, n)).astype(np.float64)
        else:
            x = rng.standard_normal((d, n)) * 10.0 ** int(rng.integers(-5, 6))
        for k in (1, 5, 40, n - 1):
            for mode in ("mutual", "symmetrized"):
                g = build_knn_affinity(x, k, mode)
                csr_invariants(g.affinity, n)
                assert np.all(g.affinity.data == 1.0)
                expect = argsort_affinity(x, k, mode)
                assert np.array_equal(g.affinity.toarray(), expect), (d, k, mode)
                assert np.array_equal(g.degree, expect.sum(axis=1))


def same_graph(a, b):
    for name in ("rows", "indptr", "indices", "data"):
        assert np.array_equal(getattr(a.affinity, name), getattr(b.affinity, name))
    assert a.degree.tobytes() == b.degree.tobytes()


@pytest.mark.parametrize("n", ABOVE_ONE_BLOCK)
def test_affinity_graph_is_the_same_from_dense_and_sparse_input(n):
    rng = np.random.default_rng(n + 1)
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.02)
    a = np.triu(a, 1)
    a = a + a.T
    dense = AffinityGraph(affinity=a)
    csr_invariants(dense.affinity, n)
    assert np.array_equal(dense.affinity.toarray(), a)
    assert np.allclose(dense.degree, a.sum(axis=1), rtol=1e-12, atol=0)
    for given in (sparse.csr_array(a), sparse.csr_matrix(a), sparse.csc_array(a), sparse.coo_array(a)):
        same_graph(AffinityGraph(affinity=given), dense)
    # A CSRMatrix is stored as it is, not rebuilt.
    again = AffinityGraph(affinity=dense.affinity)
    assert again.affinity is dense.affinity
    same_graph(again, dense)
    # Raw CSR arrays with column indices descending in each row, one edge
    # stored as two halves, and a stored zero on the diagonal are all
    # brought to the same canonical form.
    coo = sparse.coo_array(a)
    i, j, v = coo.row[0], coo.col[0], coo.data[0]
    rows = np.concatenate((coo.row[1:], [i, i, 3]))
    cols = np.concatenate((coo.col[1:], [j, j, 3]))
    vals = np.concatenate((coo.data[1:], [v / 2, v / 2, 0.0]))
    order = np.lexsort((-cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    messy = sparse.csr_array((vals[order], cols[order], indptr), shape=(n, n))
    assert not messy.has_sorted_indices
    same_graph(AffinityGraph(affinity=messy), dense)
    # The graph owns its arrays and they are read-only: the caller's arrays
    # and the graph's never change through each other.
    given = sparse.csr_array(a)
    graph = AffinityGraph(affinity=given)
    with pytest.raises(ValueError, match="read-only"):
        graph.affinity.data[:] = 7.0
    given.data[:] = 7.0
    same_graph(graph, dense)


BAD_AFFINITIES = [
    ("square", np.ones((2, 3))),
    ("square", np.ones(3)),
    ("symmetric", np.array([[0.0, 1.0], [0.0, 0.0]])),
    ("symmetric", np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.5, 0.0]])),
    ("diagonal", np.eye(2)),
    ("negative", np.array([[0.0, -1.0], [-1.0, 0.0]])),
    ("NaN or Inf", np.array([[0.0, np.nan], [np.nan, 0.0]])),
    ("NaN or Inf", np.array([[0.0, np.inf], [np.inf, 0.0]])),
]


@pytest.mark.parametrize("message, bad", BAD_AFFINITIES)
def test_affinity_graph_rejects_the_same_inputs_dense_and_sparse(message, bad):
    with pytest.raises(DataError, match=message):
        AffinityGraph(affinity=bad)
    if bad.ndim == 2:
        for given in (sparse.csr_array(bad), sparse.coo_array(bad)):
            with pytest.raises(DataError, match=message):
                AffinityGraph(affinity=given)


def scipy_edge_set(x, k, mode):
    # The affinity as scipy forms it from each sample's listed neighbors L:
    # the elementwise product L * L^T (mutual) or maximum (symmetrized).
    n = x.shape[1]
    listed = sparse.csr_array((np.ones(n * k), _neighbor_lists(x, k).ravel(), np.arange(0, n * k + 1, k)), shape=(n, n))
    a = listed.multiply(listed.T) if mode == "mutual" else listed.maximum(listed.T)
    return canonical_scipy(a)


def canonical_scipy(a):
    a = sparse.csr_array(a, dtype=np.float64, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    return a


def same_as_scipy(graph, ref):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(graph.affinity, name), getattr(ref, name)), name
    # The degrees are the row sums in storage order, as scipy's CSR product
    # with a vector of ones forms them (its sum(axis=1) uses reduceat, whose
    # order differs for non-binary weights).
    assert graph.degree.tobytes() == (ref @ np.ones(ref.shape[1])).tobytes()


def product_matches_scipy(graph, ref, w):
    got = _times_affinity(w, _product_plan(graph, w.shape[0]))
    assert got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray((ref @ w.T).T).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 7),
    st.sampled_from(MODES),
    st.integers(0, 2),
    st.booleans(),
    st.integers(-8, 8),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_built_graph_and_product_equal_scipy_bitwise(n, k, mode, outliers, ties, scale, rank, seed):
    # The edge sets come from codes and the product from bincount; scipy's
    # set operations and CSR product are the reference, bit for bit.
    assume(k < n)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(3, n)).astype(np.float64) if ties else rng.standard_normal((3, n))
    # Far-off columns list neighbours that do not list them back: in the
    # mutual graph they are isolated samples.
    x[:, :outliers] += 1e3 * (1 + np.arange(outliers))
    x *= 10.0**scale
    graph = build_knn_affinity(x, k, mode)
    ref = scipy_edge_set(x, k, mode)
    same_as_scipy(graph, ref)
    product_matches_scipy(graph, ref, rng.random((rank, n)) * 10.0 ** rng.integers(-8, 9))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(-8, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_weighted_graph_from_any_input_form_equals_scipy_bitwise(n, density, scale, rank, seed):
    # A symmetric non-binary affinity given dense, as csr, csc or coo, with
    # an entry split into duplicate halves, or with each row's indices
    # reversed, is stored in scipy's canonical CSR form with scipy's row
    # sums, and its product equals scipy's.
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), 1) * 10.0**scale
    a = a + a.T
    ref = canonical_scipy(a)
    coo = sparse.coo_array(a)
    # The first stored entry given as two halves.
    half = coo.data[:1] / 2
    duplicated = sparse.coo_array(
        (np.concatenate((half, coo.data[1:], half)), (np.r_[coo.row, coo.row[:1]], np.r_[coo.col, coo.col[:1]])),
        shape=(n, n),
    )
    rows = np.repeat(np.arange(n), np.diff(ref.indptr))
    back = np.lexsort((-ref.indices, rows))
    reversed_rows = sparse.csr_array((ref.data[back], ref.indices[back], ref.indptr), shape=(n, n))
    forms = [a, sparse.csr_array(a), sparse.csr_matrix(a), sparse.csc_array(a), coo, duplicated, reversed_rows]
    for given_form in forms:
        graph = AffinityGraph(affinity=given_form)
        same_as_scipy(graph, ref)
        csr_invariants(graph.affinity, n)
    product_matches_scipy(AffinityGraph(affinity=a), ref, rng.random((rank, n)) * 10.0 ** rng.integers(-8, 9))


def warm_up_build():
    # The first build in a process loads numpy's set-operation module, whose
    # allocations would count against that build.
    build_knn_affinity(np.random.default_rng(0).random((2, 8)), 2, "mutual")


@pytest.mark.parametrize("n, bound", [(150, 3.0), (2000, 1.25)])
def test_build_peak_memory_in_n_by_n_arrays(n, bound):
    # The Gram matrix is the one N x N float array the build holds: no
    # second distance array and no dense float affinity. At N = 2000 the
    # peak is 1.165 N x N float64 arrays; at N = 150 the block of distances
    # and the O(N k) codes weigh more against N^2, 2.78 arrays.
    x = np.random.default_rng(17).random((20, n))
    warm_up_build()
    for mode in MODES:
        tracemalloc.start()
        try:
            graph = build_knn_affinity(x, 5, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n == n
        assert peak <= bound * n * n * 8, (mode, peak / (n * n * 8))
