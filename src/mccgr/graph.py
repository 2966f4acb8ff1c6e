"""k-nearest-neighbor affinity graphs over sample columns.

The affinity matrix feeds a local-invariance penalty on the coefficient
matrix: samples joined by an edge are pushed toward nearby coefficient
columns. Weights are binary; distances are plain Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["AffinityGraph", "build_knn_affinity", "graph_penalty", "laplacian"]

MODES = ("mutual", "symmetrized")


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric binary affinity over n samples, with cached degrees."""

    affinity: np.ndarray
    knn: int
    mode: str
    weighting: str = "binary"
    degree: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.affinity, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError(f"affinity must be square, got shape {a.shape}")
        if np.any(a < 0):
            raise DataError("affinity has negative weights")
        if not np.array_equal(a, a.T):
            raise DataError("affinity must be symmetric")
        if np.any(np.diag(a) != 0):
            raise DataError("affinity must have a zero diagonal")
        object.__setattr__(self, "affinity", a)
        object.__setattr__(self, "degree", a.sum(axis=1))

    @property
    def n(self) -> int:
        return self.affinity.shape[0]


def build_knn_affinity(x, k: int, mode: str = "mutual") -> AffinityGraph:
    """Binary k-NN affinity over the columns of `x`.

    Each sample lists its k nearest other columns by Euclidean distance
    (ties broken toward the lower column index). `mutual` keeps an edge
    only when both endpoints list each other; `symmetrized` keeps it when
    either does. The diagonal is always zero.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {x.shape}")
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {MODES}")
    n = x.shape[1]
    if n < 2:
        raise DataError("need at least two samples to build a graph")
    if not 1 <= k < n:
        raise DataError(f"k must satisfy 1 <= k <= n-1, got k={k} for n={n}")

    gram = x.T @ x
    sq = np.diag(gram).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    d2 = 0.5 * (d2 + d2.T)  # exact symmetry so row i and row j agree on ties
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    neighbors = order[:, :k]

    member = np.zeros((n, n), dtype=bool)
    member[np.repeat(np.arange(n), k), neighbors.ravel()] = True
    if mode == "mutual":
        adjacency = member & member.T
    else:
        adjacency = member | member.T
    return AffinityGraph(affinity=adjacency.astype(np.float64), knn=k, mode=mode)


def laplacian(graph: AffinityGraph) -> np.ndarray:
    """Unnormalized graph Laplacian, degree matrix minus affinity."""
    return np.diag(graph.degree) - graph.affinity


def graph_penalty(w, graph: AffinityGraph) -> float:
    """Smoothness penalty Tr(W L W^T).

    Equals half the affinity-weighted sum of squared distances between
    coefficient columns; clipped at zero against roundoff.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != graph.n:
        raise DataError(
            f"coefficient matrix shape {w.shape} does not match graph size {graph.n}"
        )
    return _penalty(w, laplacian(graph))


def _penalty(w, lap) -> float:
    # Takes the Laplacian built by the caller, so a solver can build it once
    # per solve rather than once per objective evaluation.
    return max(float(np.sum((w @ lap) * w)), 0.0)
