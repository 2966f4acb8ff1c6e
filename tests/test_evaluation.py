"""Clustering, optimal matching, and agreement scores."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mccgr import DataError, NumericalError, accuracy, evaluate, evaluation, hungarian_match, kmeans, nmi


def brute_force_best_sum(confusion):
    # max over permutations of the matched diagonal sum
    size = confusion.shape[0]
    best = -1.0
    for perm in itertools.permutations(range(size)):
        s = sum(confusion[i, perm[i]] for i in range(size))
        best = max(best, s)
    return best


def blobs(rng, k=3, per=15, dim=2, gap=10.0, jitter=0.5):
    centers = rng.random((dim, k)) + gap * np.arange(k)[None, :]
    pts = np.concatenate(
        [centers[:, [j]] + jitter * rng.standard_normal((dim, per)) for j in range(k)],
        axis=1,
    )
    labels = np.repeat(np.arange(k), per)
    return pts, labels


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(0)
    for seed in range(10):
        pts, labels = blobs(rng)
        result = kmeans(pts, 3, seed=seed)
        assert accuracy(result.assignments, labels).accuracy == 1.0
        assert result.assignments.shape == (45,)
        assert result.centroids.shape == (2, 3)
        assert result.inertia >= 0.0


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(1)
    pts = rng.random((3, 40))
    a = kmeans(pts, 4, seed=7)
    b = kmeans(pts, 4, seed=7)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_kmeans_inertia_never_worse_with_more_restarts():
    rng = np.random.default_rng(2)
    pts = rng.random((2, 50))
    one = kmeans(pts, 5, seed=3, restarts=1)
    many = kmeans(pts, 5, seed=3, restarts=20)
    assert many.inertia <= one.inertia + 1e-12


def test_kmeans_k_equals_n():
    pts = np.array([[0.0, 1.0, 2.0, 3.0]])
    result = kmeans(pts, 4, seed=0)
    # every point its own cluster, zero inertia
    assert result.inertia == pytest.approx(0.0, abs=1e-15)
    assert len(set(result.assignments.tolist())) == 4


def test_kmeans_duplicate_points_repair():
    # more clusters than distinct locations forces empty-cluster repair
    pts = np.array([[0.0, 0.0, 0.0, 10.0, 10.0, 10.0]])
    result = kmeans(pts, 3, seed=0)
    assert set(result.assignments.tolist()) == {0, 1, 2}
    assert np.isfinite(result.inertia)


def reference_sq_dist(points, centroids):
    p2 = np.sum(points * points, axis=0)
    c2 = np.sum(centroids * centroids, axis=0)
    d2 = c2[:, None] + p2[None, :] - 2.0 * (centroids.T @ points)
    return np.maximum(d2, 0.0)


def reference_lloyd(points, init_idx, max_rounds=300):
    # Lloyd rounds with a scan per cluster for empties, and each centroid
    # its members' sum, added one at a time in ascending point order, over
    # their count.
    n = points.shape[1]
    k = len(init_idx)
    centroids = points[:, init_idx].copy()
    assign = None
    for _ in range(max_rounds):
        d2 = reference_sq_dist(points, centroids)
        new_assign = np.argmin(d2, axis=0)
        own = None
        for j in range(k):
            if not np.any(new_assign == j):
                if own is None:
                    own = d2[new_assign, np.arange(n)]
                candidate = int(np.argmax(own))
                centroids[:, j] = points[:, candidate]
                new_assign[candidate] = j
                own[candidate] = 0.0
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = np.flatnonzero(assign == j)
            if len(members):
                total = np.zeros(points.shape[0])
                for i in members:
                    total += points[:, i]
                centroids[:, j] = total / len(members)
    inertia = float(np.sum((points - centroids[:, assign]) ** 2))
    return assign, centroids, inertia


def reference_kmeans(points, k, seed=0, restarts=10):
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[1]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init_idx = rng.choice(n, size=k, replace=False)
        assign, centroids, inertia = reference_lloyd(points, init_idx)
        if best is None or inertia < best[2]:
            best = (assign, centroids, inertia)
    return best[0].astype(np.int64), best[1], best[2]


def assert_kmeans_matches_reference(points, k, seed, restarts):
    assign, centroids, inertia = reference_kmeans(points, k, seed=seed, restarts=restarts)
    result = kmeans(points, k, seed=seed, restarts=restarts)
    assert result.assignments.dtype == assign.dtype
    assert result.assignments.tobytes() == assign.tobytes()
    assert result.centroids.tobytes() == centroids.tobytes()
    assert np.float64(result.inertia).tobytes() == np.float64(inertia).tobytes()


@st.composite
def tie_heavy_problems(draw):
    # Columns drawn with repetition from a small pool of integer points, so
    # distances tie and clusters empty often.
    d = draw(st.integers(1, 3))
    column = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    pool = draw(st.lists(column, min_size=1, max_size=5))
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    points = np.array(cols, dtype=np.float64).T
    k = draw(st.integers(1, points.shape[1]))
    return points, k, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(tie_heavy_problems())
def test_kmeans_matches_reference_on_tie_heavy_points(problem):
    assert_kmeans_matches_reference(*problem)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    n=st.integers(2, 400),
    k=st.integers(1, 6),
    restarts=st.integers(1, 4),
)
def test_kmeans_matches_reference_on_real_points(seed, d, n, k, restarts):
    # Non-integer coordinates make the centroid sums depend on summation
    # order, one-row points (drawn here about a quarter of the time)
    # included. Columns repeat through the draw.
    rng = np.random.default_rng(seed)
    base = rng.random((d, n)) + 3.0 * rng.integers(0, 3, size=n)[None, :]
    points = base[:, rng.integers(0, n, size=n)]
    assert_kmeans_matches_reference(points, min(k, n), seed, restarts)


def test_kmeans_repair_that_empties_a_later_cluster():
    # Seed 22 starts the centroids at points 1, 3, 2, 0 (4, 5, 5, 0). Point 2
    # ties with cluster 1 and joins it, leaving cluster 2 empty. Every point
    # sits on its centroid, so the repair claims point 0, the sole member of
    # cluster 3; cluster 3, now empty, reclaims point 0, and cluster 2 ends
    # the round empty again.
    points = np.array([[0.0, 4.0, 5.0, 5.0]])
    assert np.random.default_rng(22).choice(4, size=4, replace=False).tolist() == [1, 3, 2, 0]
    assert_kmeans_matches_reference(points, 4, 22, 1)
    assert kmeans(points, 4, seed=22, restarts=1).assignments.tolist() == [3, 0, 1, 1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), restarts=st.integers(1, 4))
def test_kmeans_matches_reference_on_one_row_points_with_large_clusters(seed, k, restarts):
    # Groups of 9-300 members, 10 apart, give clusters of those sizes: past
    # 8 and 128 members numpy's own row sum of one-row points would go
    # pairwise, in blocks of eight and then recursively, and differ from the
    # ascending sum.
    rng = np.random.default_rng(seed)
    sizes = rng.integers(9, 301, size=k)
    values = np.repeat(10.0 * np.arange(k), sizes) + rng.random(sizes.sum())
    points = values[None, rng.permutation(sizes.sum())]
    assert_kmeans_matches_reference(points, k, seed, restarts)


def test_kmeans_one_row_centroid_is_the_ascending_sum_over_the_count():
    # A cluster of 200 members, past the 128 at which numpy's own row sum of
    # one-row points turns recursive pairwise, whose pairwise sum differs
    # from the ascending one, beside a cluster of 20 far from it.
    rng = np.random.default_rng(1)
    points = np.concatenate([rng.random(200), 10.0 + rng.random(20)])[None, :]
    result = kmeans(points, 2, seed=0)
    big = int(result.assignments[0])
    assert np.array_equal(result.assignments, np.repeat([big, 1 - big], [200, 20]))
    for j in range(2):
        total = 0.0
        for i in np.flatnonzero(result.assignments == j):
            total += points[0, i]
        assert result.centroids[0, j] == total / np.count_nonzero(result.assignments == j)
    assert np.sum(points[0, :200]) / 200 != result.centroids[0, big]


def converges_within(points, init_idx, rounds):
    # Whether Lloyd's rounds from init_idx repeat an assignment by the given
    # round. A restart that does so in round t ends with round t - 1's
    # centroids, so t - 1 capped rounds already give its result.
    if rounds < 2:
        return False
    capped = reference_lloyd(points, init_idx, max_rounds=rounds - 1)
    full = reference_lloyd(points, init_idx)
    return capped[0].tobytes() == full[0].tobytes() and capped[1].tobytes() == full[1].tobytes()


@pytest.mark.parametrize("max_rounds", [1, 2, 3])
def test_kmeans_matches_reference_when_the_round_cap_stops_restarts(monkeypatch, max_rounds):
    # Three tight blobs: a restart seeded once in each blob converges in its
    # second round, others take longer, so one call holds restarts stopped by
    # the cap beside restarts that converged (at a cap of 1, none converge).
    monkeypatch.setattr(evaluation, "_MAX_ROUNDS", max_rounds)
    mixed = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        points = np.ascontiguousarray(blobs(rng, per=20)[0])
        n = points.shape[1]
        draws = np.random.default_rng(seed)
        inits = [draws.choice(n, size=3, replace=False) for _ in range(8)]
        runs = [reference_lloyd(points, init_idx, max_rounds=max_rounds) for init_idx in inits]
        best = min(runs, key=lambda run: run[2])  # the earliest of the lowest
        result = kmeans(points, 3, seed=seed, restarts=8)
        assert result.assignments.tobytes() == best[0].astype(np.int64).tobytes()
        assert result.centroids.tobytes() == best[1].tobytes()
        assert np.float64(result.inertia).tobytes() == np.float64(best[2]).tobytes()
        converged = sum(converges_within(points, init_idx, max_rounds) for init_idx in inits)
        mixed += 0 < converged < len(inits)
    assert mixed > 0 or max_rounds == 1


@pytest.mark.parametrize("d, n, bound", [(5, 150, 64.0), (4, 2000, 44.0)])
def test_kmeans_peak_allocation_in_units_of_k_by_n_floats(d, n, bound):
    # The experiment cell's shape and the CLI's, with k = d. The restarts
    # run as one batch, so the distances, their argmin copy and the tiled
    # points are each R = 10 times k x n: measured 56.5 and 37.9 k x n
    # float64s, about 20 of the smaller shape's being the 120 KiB of buffers
    # numpy's broadcasting add allocates (restarts run one at a time peaked
    # at 6.3-6.8).
    rng = np.random.default_rng(17)
    points = rng.random((d, n)) + 3.0 * rng.integers(0, d, size=n)[None, :]
    tracemalloc.start()
    try:
        kmeans(points, d, seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * d * n * 8, peak / (d * n * 8)


def test_kmeans_argument_validation():
    pts = np.random.default_rng(3).random((2, 10))
    with pytest.raises(DataError):
        kmeans(pts, 0)
    with pytest.raises(DataError):
        kmeans(pts, 11)
    with pytest.raises(DataError):
        kmeans(pts, 3, restarts=0)
    with pytest.raises(DataError):
        kmeans(pts[0], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_and_evaluate_reject_non_finite_points(bad):
    # Without the check a NaN gave assignments, an inertia of nan and a
    # score, with no warning; an Inf gave only RuntimeWarnings.
    pts = np.random.default_rng(5).random((2, 12))
    pts[1, 4] = bad
    with pytest.raises(DataError, match="NaN or Inf"):
        kmeans(pts, 3)
    with pytest.raises(DataError, match="w contains NaN or Inf"):
        evaluate(pts, np.repeat([0, 1, 2], 4), 3)


def test_kmeans_raises_a_floating_point_fault_where_it_happens():
    # Squares of these points overflow. Before, evaluate warned 8 times and
    # scored the clustering as accuracy 0.525.
    w = np.random.default_rng(0).random((3, 40)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^k-means: overflow encountered in multiply at iteration 0$"):
            evaluate(w, np.repeat([0, 1], 20), 2)
        with pytest.raises(NumericalError, match="^k-means: .* at iteration 0$"):
            kmeans(w, 2)


def test_hungarian_matches_brute_force_loop():
    rng = np.random.default_rng(4)
    for _ in range(200):
        size = int(rng.integers(2, 7))
        confusion = rng.integers(0, 30, size=(size, size)).astype(np.float64)
        perm = hungarian_match(confusion)
        achieved = float(confusion[np.arange(size), perm].sum())
        assert sorted(perm.tolist()) == list(range(size))
        assert achieved == brute_force_best_sum(confusion)


def square_matrices(n, cells):
    # An n x n float64 matrix whose entries cells draws.
    return st.lists(cells, min_size=n * n, max_size=n * n).map(
        lambda values: np.array(values, dtype=np.float64).reshape(n, n)
    )


# Square confusion tables, n from 1 to 12: counts 0-2 (many ties), counts
# 0-50, real values, and constant matrices (all-zero among them).
confusion_tables = st.integers(1, 12).flatmap(
    lambda n: st.one_of(
        square_matrices(n, st.integers(0, 2)),
        square_matrices(n, st.integers(0, 50)),
        square_matrices(n, st.floats(0.0, 1e6, allow_nan=False)),
        st.floats(0.0, 1e6, allow_nan=False).map(lambda value: np.full((n, n), value)),
        st.just(np.zeros((n, n))),
    )
)


@settings(max_examples=300, deadline=None)
@given(confusion_tables)
def test_hungarian_match_equals_scipy_ties_included(confusion):
    # The same permutation as scipy's solver, not just an equally good one,
    # so every matching written to an _eval.json stays as it was.
    from scipy.optimize import linear_sum_assignment

    perm = hungarian_match(confusion)
    assert perm.dtype == np.int64
    assert perm.tolist() == linear_sum_assignment(-confusion)[1].tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 7), min_size=n, max_size=n).map(np.array),
            st.lists(st.integers(0, 3), min_size=n, max_size=n).map(np.array),
        )
    ),
    st.booleans(),
)
def test_accuracy_matching_equals_scipy_on_padded_tables(pair, swap):
    # Cluster and class id counts differ, so the table is padded to square
    # before it is matched; padded ids never reach the matching.
    from scipy.optimize import linear_sum_assignment

    pred, true = pair[::-1] if swap else pair
    pids, pinv = np.unique(pred, return_inverse=True)
    tids, tinv = np.unique(true, return_inverse=True)
    size = max(len(pids), len(tids))
    confusion = np.zeros((size, size))
    np.add.at(confusion, (pinv, tinv), 1)
    perm = linear_sum_assignment(-confusion)[1]
    expected = {int(pids[i]): int(tids[perm[i]]) for i in range(len(pids)) if perm[i] < len(tids)}
    result = accuracy(pred, true)
    assert result.matching == expected
    assert result.accuracy == confusion[np.arange(size), perm].sum() / len(pred)


def test_hungarian_validation():
    with pytest.raises(DataError):
        hungarian_match(np.ones((2, 3)))
    with pytest.raises(DataError):
        hungarian_match(np.array([[1.0, -2.0], [0.0, 1.0]]))


def test_accuracy_perfect_and_permuted():
    true = np.array([0, 0, 1, 1, 2, 2])
    assert accuracy(true, true).accuracy == 1.0
    # cluster ids permuted relative to class ids still score 1.0
    pred = np.array([2, 2, 0, 0, 1, 1])
    result = accuracy(pred, true)
    assert result.accuracy == 1.0
    assert result.matching == {2: 0, 0: 1, 1: 2}


def test_accuracy_known_value():
    pred = np.array([0, 0, 1, 1])
    true = np.array([0, 1, 1, 1])
    # best matching keeps ids in place: hits at positions 0, 2, 3
    result = accuracy(pred, true)
    assert result.accuracy == pytest.approx(0.75)
    assert result.confusion.tolist() == [[1, 1], [0, 2]]


def test_accuracy_pads_unequal_id_counts():
    pred = np.array([0, 1, 2, 3])
    true = np.array([0, 0, 1, 1])
    result = accuracy(pred, true)
    assert result.confusion.shape == (4, 4)
    assert result.accuracy == pytest.approx(0.5)
    # padded class columns never appear as matched targets
    assert set(result.matching.values()) <= {0, 1}


def test_accuracy_arbitrary_id_values():
    pred = np.array([10, 10, -5, -5])
    true = np.array([7, 7, 3, 3])
    result = accuracy(pred, true)
    assert result.accuracy == 1.0
    assert result.matching == {10: 7, -5: 3}


def test_accuracy_validation():
    with pytest.raises(DataError):
        accuracy(np.array([0, 1]), np.array([0, 1, 2]))
    with pytest.raises(DataError):
        accuracy(np.array([[0, 1]]), np.array([0, 1]))


def test_nmi_frozen_example():
    # hand-computed: MI = 0.5 ln(4/3) + 0.25 ln(2/3) + 0.25 ln 2 nats,
    # H_a = ln 2, H_b = -(0.75 ln 0.75 + 0.25 ln 0.25), NMI = MI / H_a
    value = nmi(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 1]))
    assert value == pytest.approx(0.31127812445913283, abs=1e-10)


def test_nmi_identical_and_permuted_labels():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.integers(0, 4, size=60)
        if len(np.unique(a)) < 2:
            continue
        assert nmi(a, a) == pytest.approx(1.0, abs=1e-12)
        shuffled = (a + 1) % 4  # relabeling, same partition
        assert nmi(a, shuffled) == pytest.approx(1.0, abs=1e-12)


# Two labellings of one length, with ids 0 to 4.
labeling_pairs = st.integers(1, 30).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 4), min_size=n, max_size=n).map(np.array)] * 2)
)


def renamed(data, labels, ordered):
    # labels with each id replaced by a distinct new one drawn from data, in
    # the ids' own order when ordered.
    ids = np.unique(labels)
    new = data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=ids.size, max_size=ids.size, unique=True))
    return np.array(sorted(new) if ordered else new)[np.searchsorted(ids, labels)]


@settings(max_examples=60, deadline=None)
@given(labeling_pairs, st.data())
def test_accuracy_does_not_depend_on_label_names(pair, data):
    pred, true = pair
    value = accuracy(pred, true).accuracy
    assert accuracy(renamed(data, pred, False), true).accuracy == value
    assert accuracy(pred, renamed(data, true, False)).accuracy == value


@settings(max_examples=60, deadline=None)
@given(labeling_pairs, st.data())
def test_nmi_does_not_depend_on_label_names(pair, data):
    # An order-preserving renaming leaves the contingency table as it was,
    # so the value is the same bit for bit; any other permutes its rows or
    # columns, which changes only the order of the sums.
    a, b = pair
    value = nmi(a, b)
    assert nmi(renamed(data, a, True), renamed(data, b, True)) == value
    assert nmi(renamed(data, a, False), b) == pytest.approx(value, rel=1e-12)
    assert nmi(a, renamed(data, b, False)) == pytest.approx(value, rel=1e-12)


def test_nmi_symmetry_and_range():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 5, size=40)
        v1, v2 = nmi(a, b), nmi(b, a)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert 0.0 <= v1 <= 1.0


def test_nmi_independent_labelings_near_zero():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2, size=4000)
    b = rng.integers(0, 2, size=4000)
    assert nmi(a, b) < 0.01


def test_nmi_degenerate_conventions():
    ones = np.zeros(8, dtype=np.int64)
    mixed = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert nmi(ones, ones) == 1.0
    assert nmi(ones, mixed) == 0.0
    assert nmi(mixed, ones) == 0.0


def test_evaluate_end_to_end():
    rng = np.random.default_rng(8)
    pts, labels = blobs(rng)
    report = evaluate(pts, labels, 3, seed=0)
    assert report.accuracy == 1.0
    assert report.nmi == pytest.approx(1.0, abs=1e-12)
    d = report.as_dict()
    assert set(d) == {"accuracy", "nmi", "matching", "confusion"}
    assert all(isinstance(k, str) for k in d["matching"])
    assert isinstance(d["confusion"][0][0], int)


def test_evaluate_validation():
    with pytest.raises(DataError):
        evaluate(np.ones((2, 5)), np.zeros(4, dtype=np.int64), 2)
