"""Clustering of coefficient columns and agreement scores against labels.

Samples live in the columns of the matrix being clustered (for NMF output
that is W, one K-dimensional column per sample). Accuracy matches cluster
ids to class ids with an optimal assignment before counting hits; mutual
information is measured in nats and normalized by the larger entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, _check_count, _check_labels, _check_matrix

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


def _sq_dist(points, p2, centroids):
    # (k, n) squared distances, clipped against tiny negative roundoff;
    # p2 = sum(points**2, axis=0) depends on the points alone.
    c2 = np.sum(centroids * centroids, axis=0)
    d2 = c2[:, None] + p2[None, :] - 2.0 * (centroids.T @ points)
    return np.maximum(d2, 0.0)


def _lloyd(points, p2, init_idx):
    n = points.shape[1]
    k = len(init_idx)
    centroids = points[:, init_idx].copy()
    assign = None
    for _ in range(_MAX_ROUNDS):
        d2 = _sq_dist(points, p2, centroids)
        new_assign = np.argmin(d2, axis=0)  # ties go to the lower cluster index
        counts = np.bincount(new_assign, minlength=k)
        if not counts.all():
            # Empty-cluster repair: reseed, in ascending cluster order, to the
            # point currently farthest from its own centroid, claiming it so a
            # later empty cluster picks the next-farthest. A claimed point can
            # empty a later cluster, which the counts then show.
            own = d2[new_assign, np.arange(n)]
            for j in range(k):
                if counts[j] == 0:
                    candidate = int(np.argmax(own))
                    centroids[:, j] = points[:, candidate]
                    counts[new_assign[candidate]] -= 1
                    counts[j] += 1
                    new_assign[candidate] = j
                    own[candidate] = 0.0
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # Members of each cluster, in ascending point order, as one gather.
        grouped = points[:, np.argsort(assign, kind="stable")]
        end = 0
        for j in range(k):
            start, end = end, end + counts[j]
            if start < end:
                centroids[:, j] = grouped[:, start:end].sum(axis=1) / counts[j]
    inertia = float(np.sum((points - centroids[:, assign]) ** 2))
    return assign, centroids, inertia


def kmeans(points, k: int, seed: int = 0, restarts: int = 10) -> Clustering:
    """Lloyd's algorithm over column vectors.

    Each restart seeds the centroids by sampling k distinct columns; the
    run with the lowest inertia wins (earliest on ties). Assignment breaks
    distance ties toward the lower cluster index; a cluster that empties is
    reseeded to the point farthest from its own centroid. Rounds are capped
    at 300 per restart.

    The squared point norms are computed once per call and shared by every
    round of every restart. A centroid is its members' row sums divided by
    their count, taken from one stable sort of the assignment; that is the
    same pairwise row reduction and the same division as
    `points[:, members].mean(axis=1)`, so it equals the mean bit for bit.
    """
    points = _check_matrix(points, "points")
    _check_count("k", k, 1)
    n = points.shape[1]
    if k > n:
        raise DataError(f"k={k} exceeds the number of points {n}")
    _check_count("restarts", restarts, 1)
    _check_count("seed", seed, 0)

    p2 = np.sum(points * points, axis=0)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init_idx = rng.choice(n, size=k, replace=False)
        assign, centroids, inertia = _lloyd(points, p2, init_idx)
        if best is None or inertia < best[2]:
            best = (assign, centroids, inertia)
    return Clustering(
        assignments=best[0].astype(np.int64),
        centroids=best[1],
        inertia=best[2],
    )


def hungarian_match(confusion) -> np.ndarray:
    """Permutation of columns maximizing the matched diagonal sum.

    confusion[i, j] counts points in cluster i with class j; the returned
    array maps cluster index i to its matched class index.
    """
    c = _check_matrix(confusion, "confusion matrix", nonneg=True)
    if c.shape[0] != c.shape[1]:
        raise DataError(f"confusion matrix must be square, got shape {c.shape}")
    _, cols = linear_sum_assignment(-c)
    return cols.astype(np.int64)


def _contingency(a, b, a_name, b_name):
    # Two label vectors of one length: their distinct ids, ascending, and the
    # int64 count table with a row per id of a and a column per id of b.
    a = _check_labels(a, a_name)
    b = _check_labels(b, b_name)
    if a.shape[0] != b.shape[0]:
        raise DataError(
            f"label vectors disagree in length: {a.shape[0]} vs {b.shape[0]}"
        )
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
    pids, tids, table = _contingency(pred, true, "predicted labels", "true labels")
    size = max(table.shape)
    confusion = np.zeros((size, size), dtype=np.int64)
    confusion[: len(pids), : len(tids)] = table
    perm = hungarian_match(confusion)
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
    _, _, table = _contingency(a, b, "first labeling", "second labeling")
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
    and score the clustering against the true labels."""
    true_labels = _check_labels(true_labels, "true labels")
    w = _check_matrix(w, "w")
    if w.shape[1] != true_labels.shape[0]:
        raise DataError(f"coefficient shape {w.shape} does not match {true_labels.shape[0]} labels")
    assignments = kmeans(w, k, seed=seed).assignments
    match = accuracy(assignments, true_labels)
    return EvalReport(
        accuracy=match.accuracy,
        nmi=nmi(assignments, true_labels),
        matching=match.matching,
        confusion=match.confusion,
    )
