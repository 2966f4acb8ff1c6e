"""k-nearest-neighbor affinity graphs over sample columns.

The affinity matrix feeds a local-invariance penalty on the coefficient
matrix: samples joined by an edge are pushed toward nearby coefficient
columns. Weights are binary; distances are plain Euclidean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["AffinityGraph", "build_knn_affinity", "graph_penalty", "laplacian"]

MODES = ("mutual", "symmetrized")

# With every entry of a d-row matrix at most _MAX_ENTRY / sqrt(d) in size, each
# squared column norm is at most a sixteenth of the largest float64, so no
# Gram entry, squared distance or sum of two of them overflows, and no NaN
# (inf - inf) can arise.
_MAX_ENTRY = math.sqrt(np.finfo(np.float64).max / 16)


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric binary affinity over n samples, with cached degrees."""

    affinity: np.ndarray
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

    Each row's k-th smallest squared distance comes from np.partition, and
    the row lists every column at or below it. In a row where that value is
    tied across the cut, the tied columns with the highest indices are
    dropped until k remain, which picks the same k columns as a stable sort.
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
    # The selection below must not see NaN: its NaN order differs from a sort's.
    if not np.all(np.isfinite(x)):
        raise DataError("data contains NaN or Inf entries")
    limit = _MAX_ENTRY / math.sqrt(max(x.shape[0], 1))
    if max(np.max(x, initial=0.0), -np.min(x, initial=0.0)) > limit:
        raise DataError("data entries too large: squared distances overflow; rescale the data")

    gram = x.T @ x
    sq = np.diag(gram).copy()
    # Exactly symmetric, so row i and row j agree on ties: numpy sends x.T @ x
    # to BLAS syrk, which mirrors one triangle, and sq_i + sq_j == sq_j + sq_i.
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.fill_diagonal(d2, np.inf)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1].copy()
    member = d2 <= kth[:, None]
    counts = np.count_nonzero(member, axis=1)
    for i in np.flatnonzero(counts > k):
        tied = np.flatnonzero(d2[i] == kth[i])
        member[i, tied[k - (counts[i] - tied.size):]] = False

    if mode == "mutual":
        adjacency = member & member.T
    else:
        adjacency = member | member.T
    return AffinityGraph(affinity=adjacency.astype(np.float64))


def laplacian(graph: AffinityGraph) -> np.ndarray:
    """Unnormalized graph Laplacian, degree matrix minus affinity.

    An N x N array, for inspection and tests: the solver, the penalty and
    the gradients work from the affinity and the degrees directly.
    """
    return np.diag(graph.degree) - graph.affinity


def graph_penalty(w, graph: AffinityGraph) -> float:
    """Smoothness penalty Tr(W L W^T).

    Equals half the affinity-weighted sum of squared distances between
    coefficient columns. Computed as sum_n deg_n ||w_n||^2 - <W, W A>, with
    w_n the n-th column of W, so only the K x N product W A is formed and no
    Laplacian; clipped at zero against roundoff.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != graph.n:
        raise DataError(
            f"coefficient matrix shape {w.shape} does not match graph size {graph.n}"
        )
    return _penalty(w, w @ graph.affinity, graph.degree)


def _penalty(w, wa, degree) -> float:
    # wa is w @ A, formed by the caller: the solver shares it with the next
    # W step's numerator.
    colsq = np.einsum("ij,ij->j", w, w)
    return max(float(degree @ colsq - np.vdot(wa, w)), 0.0)
