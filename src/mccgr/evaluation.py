"""Clustering of coefficient columns and agreement scores against labels.

Samples live in the columns of the matrix being clustered (for NMF output
that is W, one K-dimensional column per sample). Accuracy matches cluster
ids to class ids with an optimal assignment before counting hits; mutual
information is measured in nats and normalized by the larger entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, _check_count, _check_labels, _check_matrix

__all__ = [
    "Clustering",
    "EvalReport",
    "MatchResult",
    "accuracy",
    "evaluate",
    "hungarian_match",
    "kmeans",
    "nmi",
]

# The most Lloyd rounds a k-means restart runs; kmeans documents the cap.
_MAX_ROUNDS = 300
# kmeans's restart count, which evaluate uses as it is.
_RESTARTS = 10


@dataclass
class Clustering:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float


@dataclass
class MatchResult:
    accuracy: float
    matching: dict[int, int]
    confusion: np.ndarray


@dataclass
class EvalReport:
    accuracy: float
    nmi: float
    matching: dict[int, int]
    confusion: np.ndarray

    def as_dict(self) -> dict:
        """JSON-ready form: accuracy, nmi, matching, confusion."""
        return {
            "accuracy": self.accuracy,
            "nmi": self.nmi,
            "matching": {str(k): int(v) for k, v in self.matching.items()},
            "confusion": self.confusion.astype(int).tolist(),
        }


def _nearest(points, p2, centroids, first):
    # Each restart's assignment of the n points to its nearest centroid, and
    # the (R, k) cluster counts, after the empty-cluster repair (which moves
    # the centroids it reseeds). p2 = sum(points**2, axis=0) depends on the
    # points alone, and first[i] = i k. The distances are one (k, d) @ (d, n)
    # gemm per restart, the product the one-restart form made, and
    # -2 x + (c2 + p2) rounds as c2 + p2 - 2 x does; they are clipped against
    # tiny negative roundoff.
    c2 = np.add.reduce(centroids * centroids, axis=1)
    d2 = np.matmul(centroids.transpose(0, 2, 1), points)
    d2 *= -2.0
    d2 += c2[:, :, None] + p2
    np.maximum(d2, 0.0, out=d2)
    assign = d2.argmin(axis=1)  # ties go to the lower cluster index
    r, k = c2.shape
    counts = np.bincount((assign + first[:r]).ravel(), minlength=r * k).reshape(r, k)
    if not counts.all():
        for i in np.flatnonzero(~counts.all(axis=1)):
            _repair(points, d2[i], assign[i], counts[i], centroids[i])
    return assign, counts


def _repair(points, d2, assign, counts, centroids):
    # Empty-cluster repair of one restart, in place on its views: reseed, in
    # ascending cluster order, to the point currently farthest from its own
    # centroid, claiming it so a later empty cluster picks the next-farthest.
    # A claimed point can empty a later cluster, which the counts then show.
    own = d2[assign, np.arange(len(assign))]
    for j in range(len(counts)):
        if counts[j] == 0:
            candidate = int(np.argmax(own))
            centroids[:, j] = points[:, candidate]
            counts[assign[candidate]] -= 1
            counts[j] += 1
            assign[candidate] = j
            own[candidate] = 0.0


def _lloyd(points, init):
    # Lloyd's rounds of every restart at once, from the (R, k) seed columns
    # init; returns each restart's assignments, (R, d, k) centroids and
    # inertia. The restarts still moving are compacted to the front of the
    # round's arrays and live maps them to their restart; a restart leaves
    # in the round that assigns as the last one did, keeping its repairs.
    d, n = points.shape
    r, k = init.shape
    cent = points[:, init].transpose(1, 0, 2).copy()
    out_assign = np.empty((r, n), dtype=np.intp)
    out_cent = np.empty_like(cent)
    first = np.arange(r)[:, None] * k
    # Entry (i, row, j) of the centroids sits at rows[i, row] + j of their
    # flat form, which is also the key under which one bincount of the tiled
    # points sums it, the members one at a time in ascending point order.
    rows = (np.arange(r * d) * k).reshape(r, d, 1)
    tiled = np.tile(points.ravel(), r)
    live = np.arange(r)
    assign = None
    rounds = 0
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            p2 = np.sum(points * points, axis=0)
            for rounds in range(_MAX_ROUNDS):
                new, counts = _nearest(points, p2, cent, first)
                if assign is not None:
                    stop = (new == assign).all(axis=1)
                    if stop.any():
                        done = live[stop]
                        out_assign[done] = new[stop]
                        out_cent[done] = cent[stop]
                        if len(done) == len(live):
                            break
                        go = ~stop
                        live, new, counts, cent = live[go], new[go], counts[go], cent[go]
                assign = new
                a = len(live)
                sums = np.bincount(
                    (assign[:, None, :] + rows[:a]).ravel(), weights=tiled[: a * d * n], minlength=a * d * k
                )
                # A cluster the repair left empty keeps its centroid.
                np.divide(sums.reshape(a, d, k), counts[:, None, :], out=cent, where=counts[:, None, :] > 0)
            else:
                out_assign[live] = assign
                out_cent[live] = cent
            # Each restart's residual as one (d, n) block, summed as a whole; its
            # sign does not change the squares.
            resid = np.take(out_cent, rows + out_assign[:, None, :])
            resid -= points
            return out_assign, out_cent, np.sum(np.square(resid, out=resid), axis=(1, 2))
    except FloatingPointError as exc:
        raise NumericalError(f"k-means: {exc} at iteration {rounds}") from exc


def kmeans(points, k: int, seed: int = 0, restarts: int = _RESTARTS) -> Clustering:
    """Lloyd's algorithm over column vectors.

    Each restart seeds the centroids by sampling k distinct columns; the
    run with the lowest inertia wins (earliest on ties). Assignment breaks
    distance ties toward the lower cluster index; a cluster that empties is
    reseeded to the point farthest from its own centroid. Rounds are capped
    at 300 per restart.

    The restarts run as one batch: each round computes the distances of
    every restart still moving at once, and a restart leaves the batch in
    the round that repeats its assignment. Results equal running the
    restarts one after another bit for bit. A centroid is its members' sum
    divided by their count, the members added one at a time in ascending
    point order, by one bincount per round over (restart, row, cluster)
    keys.
    The batch costs memory: the distances are restarts x k x n float64s
    and a tiled copy of the points restarts x d x n, so with d = k and the
    default 10 restarts the peak is about 38 k x n float64s, against about
    6 for restarts run one at a time.

    A numpy divide by zero, overflow or invalid operation raises
    NumericalError where it happens, naming k-means and the round, 0 for
    the start; underflow is not a fault.
    """
    return _kmeans(_check_matrix(points, "points"), k, seed, restarts)


def _kmeans(points, k, seed, restarts):
    # kmeans on points that _check_matrix has already passed.
    _check_count("k", k, 1)
    n = points.shape[1]
    if k > n:
        raise DataError(f"k={k} exceeds the number of points {n}")
    _check_count("restarts", restarts, 1)
    _check_count("seed", seed, 0)

    rng = np.random.default_rng(seed)
    init = np.array([rng.choice(n, size=k, replace=False) for _ in range(restarts)])
    assign, centroids, inertia = _lloyd(points, init)
    best = int(np.argmin(inertia))  # the earliest of the lowest
    return Clustering(
        assignments=assign[best].astype(np.int64),
        centroids=centroids[best],
        inertia=float(inertia[best]),
    )


def hungarian_match(confusion) -> np.ndarray:
    """Permutation of columns maximizing the matched diagonal sum.

    confusion[i, j] counts points in cluster i with class j; the returned
    array maps cluster index i to its matched class index.

    The solver is Crouse's shortest augmenting path (IEEE TAES 2016), the
    algorithm of `scipy.optimize.linear_sum_assignment`, ported with its
    operation order and tie rules, so ties resolve as in
    `linear_sum_assignment(-confusion)`. It is O(k^3) in pure Python:
    about 52 us at k = 10.
    """
    c = _check_matrix(confusion, "confusion matrix", nonneg=True)
    if c.shape[0] != c.shape[1]:
        raise DataError(f"confusion matrix must be square, got shape {c.shape}")
    return _assign(c)


def _assign(c):
    # hungarian_match on a square, finite, non-negative c: scipy's
    # rectangular_lsap.cpp minimizing cost = -c, one row added per pass. A
    # pass grows a shortest path tree from the new row over the reduced
    # costs until it reaches a column with no row, updates the duals u, v
    # and flips the path; a finite square cost always has such a column.
    cost = (-c.astype(np.float64)).tolist()
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        # Reverse column order, so a constant cost gives the identity.
        remaining = list(range(n - 1, -1, -1))
        short = [math.inf] * n
        rows_seen = [False] * n
        cols_seen = [False] * n
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            rows_seen[i] = True
            row, ui = cost[i], u[i]
            index = -1
            lowest = math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                # At equal cost, prefer a column with no row: it ends the path.
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    lowest = short[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if rows_seen[i] and i != cur:
                u[i] += min_val - short[col4row[i]]
        for j in range(n):
            if cols_seen[j]:
                v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


def _check_pair(a, b, a_name, b_name):
    # Two label vectors of one length, as int64.
    a = _check_labels(a, a_name)
    b = _check_labels(b, b_name)
    if a.shape[0] != b.shape[0]:
        raise DataError(
            f"label vectors disagree in length: {a.shape[0]} vs {b.shape[0]}"
        )
    return a, b


def _contingency(a, b):
    # Two checked label vectors of one length: their distinct ids, ascending,
    # and the int64 count table with a row per id of a and a column per id
    # of b.
    aids, ainv = np.unique(a, return_inverse=True)
    bids, binv = np.unique(b, return_inverse=True)
    na, nb = len(aids), len(bids)
    return aids, bids, np.bincount(ainv * nb + binv, minlength=na * nb).reshape(na, nb)


def accuracy(pred, true) -> MatchResult:
    """Clustering accuracy under the best cluster-to-class matching.

    The confusion matrix is padded to square when the id counts differ;
    `matching` maps each real cluster id to its matched real class id
    (padded ids never appear).
    """
    return _accuracy(*_contingency(*_check_pair(pred, true, "predicted labels", "true labels")))


def _accuracy(pids, tids, table) -> MatchResult:
    # accuracy's score of a _contingency result.
    size = max(table.shape)
    confusion = np.zeros((size, size), dtype=np.int64)
    confusion[: len(pids), : len(tids)] = table
    perm = _assign(confusion)
    matched = int(confusion[np.arange(size), perm].sum())
    matching = {
        int(pids[i]): int(tids[perm[i]])
        for i in range(len(pids))
        if perm[i] < len(tids)
    }
    return MatchResult(accuracy=matched / int(table.sum()), matching=matching, confusion=confusion)


def nmi(a, b) -> float:
    """Normalized mutual information in nats, MI / max(H(a), H(b)).

    Conventions for degenerate partitions: 1.0 when both sides have a
    single block, 0.0 when exactly one does.
    """
    return _nmi(_contingency(*_check_pair(a, b, "first labeling", "second labeling"))[2])


def _nmi(table) -> float:
    # nmi's score of a _contingency count table.
    p = table.astype(np.float64) / int(table.sum())
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    ha = -float(np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))))
    hb = -float(np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mask = p > 0
    mi = float(np.sum(p[mask] * np.log(p[mask] / (pa[:, None] * pb[None, :])[mask])))
    return min(max(mi / max(ha, hb), 0.0), 1.0)


def evaluate(w, true_labels, k: int, seed: int = 0) -> EvalReport:
    """Cluster the columns of w with kmeans, at its default restart count,
    and score the clustering against the true labels. A floating-point
    fault in kmeans is its NumericalError, not a score."""
    true_labels = _check_labels(true_labels, "true labels")
    w = _check_matrix(w, "w")
    if w.shape[1] != true_labels.shape[0]:
        raise DataError(f"coefficient shape {w.shape} does not match {true_labels.shape[0]} labels")
    assignments = _kmeans(w, k, seed, _RESTARTS).assignments
    pids, tids, table = _contingency(assignments, true_labels)
    match = _accuracy(pids, tids, table)
    return EvalReport(
        accuracy=match.accuracy,
        nmi=_nmi(table),
        matching=match.matching,
        confusion=match.confusion,
    )
