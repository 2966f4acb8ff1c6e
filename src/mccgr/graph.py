"""k-nearest-neighbor affinity graphs over sample columns.

The affinity matrix feeds a local-invariance penalty on the coefficient
matrix: samples joined by an edge are pushed toward nearby coefficient
columns. Weights are binary; distances are plain Euclidean. A k-NN graph
has at most k N edges, so the affinity is held as a scipy.sparse CSR array
and every product with it costs O(K nnz), not O(K N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DataError, _check_count, _check_matrix

__all__ = ["AffinityGraph", "build_knn_affinity", "graph_penalty", "laplacian"]

# The neighbour rules build_knn_affinity knows; the first is the default of
# every caller that takes a mode.
MODES = ("mutual", "symmetrized")

# With every entry of a d-row matrix at most _MAX_ENTRY / sqrt(d) in size, each
# squared column norm is at most a sixteenth of the largest float64, so no
# Gram entry, squared distance or sum of two of them overflows, and no NaN
# (inf - inf) can arise.
_MAX_ENTRY = math.sqrt(np.finfo(np.float64).max / 16)

# Rows of the squared-distance matrix the builder selects from at a time; its
# scratch buffer holds this many rows of n distances.
_BLOCK = 256


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric non-negative affinity over n samples, with cached degrees.

    `affinity` may be given as a dense array or any scipy.sparse matrix. It
    is stored as a float64 scipy.sparse.csr_array with sorted indices and no
    stored zeros, and `degree` holds its row sums. The checks (square, finite
    and non-negative weights, symmetric, zero diagonal) read only the stored
    entries, so they cost O(nnz) beyond the conversion.
    """

    affinity: sparse.csr_array
    degree: np.ndarray = field(init=False)

    def __post_init__(self):
        a = self.affinity
        if not sparse.issparse(a):
            a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError(f"affinity must be square, got shape {a.shape}")
        # A copy, so the canonical form below never edits the caller's arrays.
        a = sparse.csr_array(a, dtype=np.float64, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if not np.all(np.isfinite(a.data)):
            raise DataError("affinity has NaN or Inf weights")
        if np.any(a.data < 0):
            raise DataError("affinity has negative weights")
        # The transpose in CSR form has sorted indices too, so a symmetric
        # matrix and its transpose store the same three arrays.
        t = a.T.tocsr()
        if not all(np.array_equal(getattr(a, name), getattr(t, name)) for name in ("indptr", "indices", "data")):
            raise DataError("affinity must be symmetric")
        if np.any(a.diagonal() != 0):
            raise DataError("affinity must have a zero diagonal")
        object.__setattr__(self, "affinity", a)
        object.__setattr__(self, "degree", a.sum(axis=1))

    @property
    def n(self) -> int:
        return self.affinity.shape[0]


def build_knn_affinity(x, k: int, mode: str = MODES[0]) -> AffinityGraph:
    """Binary k-NN affinity over the columns of `x`.

    Each sample lists its k nearest other columns by Euclidean distance
    (ties broken toward the lower column index). `mutual` keeps an edge
    only when both endpoints list each other; `symmetrized` keeps it when
    either does. The diagonal is always zero.

    Each row's k-th smallest squared distance comes from np.partition, and
    the row lists every column at or below it. In a row where that value is
    tied across the cut, the tied columns with the highest indices are
    dropped until k remain, which picks the same k columns as a stable sort.

    The squared distances are formed over the Gram matrix's own buffer one
    block of rows at a time, and each row's k listed columns are kept as one
    CSR matrix L of ones. The affinity is the elementwise product L * L^T
    (mutual) or maximum max(L, L^T) (symmetrized), taken by scipy on the
    stored entries. Beside the N x N Gram matrix the build holds one block
    of distances and O(N k) entries, never a second N x N array or a dense
    affinity.
    """
    # The selection below must not see NaN: its NaN order differs from a sort's.
    x = _check_matrix(x, "x")
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {MODES}")
    _check_count("knn", k, 1)
    n = x.shape[1]
    if k >= n:
        raise DataError(
            f"the neighbor count knn must satisfy 1 <= knn <= n-1, got knn={k} for n={n} samples"
        )
    limit = _MAX_ENTRY / math.sqrt(x.shape[0])
    if max(np.max(x, initial=0.0), -np.min(x, initial=0.0)) > limit:
        raise DataError("data entries too large: squared distances overflow; rescale the data")

    # Row i of listed holds a 1.0 at each of the k columns sample i lists.
    neighbors = _neighbor_lists(x, k).ravel()
    listed = sparse.csr_array((np.ones(n * k), neighbors, np.arange(0, n * k + 1, k)), shape=(n, n))
    affinity = listed.multiply(listed.T) if mode == "mutual" else listed.maximum(listed.T)
    return AffinityGraph(affinity=affinity)


def _neighbor_lists(x, k) -> np.ndarray:
    # An (N, k) array whose row i holds, ascending, the k columns sample i
    # lists. The Gram matrix is the one N x N array, freed on return.
    n = x.shape[1]
    gram = x.T @ x
    sq = np.diag(gram).copy()
    neighbors = np.empty((n, k), dtype=np.intp)
    scratch = np.empty((min(_BLOCK, n), n))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        rows = np.arange(stop - start)
        # This block's squared distances (sq_i + sq_j) - 2 gram_ij, written
        # over its own rows of gram, which no later block reads. They are
        # exactly symmetric, so rows i and j agree on ties: numpy sends
        # x.T @ x to BLAS syrk, which mirrors one triangle, and
        # sq_i + sq_j == sq_j + sq_i.
        d2 = gram[start:stop]
        d2 *= 2.0
        part = scratch[: stop - start]
        np.add(sq[start:stop, None], sq[None, :], out=part)
        np.subtract(part, d2, out=d2)
        d2[rows, rows + start] = np.inf
        part[...] = d2
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1]
        lists = d2 <= kth[:, None]
        counts = np.count_nonzero(lists, axis=1)
        for i in np.flatnonzero(counts > k):
            tied = np.flatnonzero(d2[i] == kth[i])
            lists[i, tied[k - (counts[i] - tied.size):]] = False
        neighbors[start:stop] = (np.flatnonzero(lists) % n).reshape(-1, k)
    return neighbors


def laplacian(graph: AffinityGraph) -> np.ndarray:
    """Unnormalized graph Laplacian, degree matrix minus affinity.

    A dense N x N array, for inspection and tests: the solver, the penalty
    and the gradients work from the sparse affinity and the degrees directly.
    """
    return np.diag(graph.degree) - graph.affinity.toarray()


def graph_penalty(w, graph: AffinityGraph) -> float:
    """Smoothness penalty Tr(W L W^T).

    Equals half the affinity-weighted sum of squared distances between
    coefficient columns. Computed as sum_n deg_n ||w_n||^2 - <W, W A>, with
    w_n the n-th column of W, so only the K x N product W A is formed and no
    Laplacian; clipped at zero against roundoff.
    """
    w = _check_matrix(w, "w")
    if w.shape[1] != graph.n:
        raise DataError(
            f"coefficient matrix shape {w.shape} does not match graph size {graph.n}"
        )
    return _penalty(w, _times_affinity(w, graph), graph.degree)


def _times_affinity(w, graph: AffinityGraph) -> np.ndarray:
    # W A, the one product with the affinity, as (A W^T)^T: the CSR product
    # costs O(K nnz). Each entry sums its column's stored weights in index
    # order, whatever calls it, so the solver and the public steps agree.
    # Returned in C order like w, so the penalty's <W A, W> copies neither.
    return np.ascontiguousarray((graph.affinity @ w.T).T)


def _penalty(w, wa, degree) -> float:
    # wa is w @ A, formed by the caller: the solver shares it with the next
    # W step's numerator.
    colsq = np.einsum("ij,ij->j", w, w)
    return max(float(degree @ colsq - np.vdot(wa, w)), 0.0)
