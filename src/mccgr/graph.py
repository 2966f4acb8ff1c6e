"""k-nearest-neighbor affinity graphs over sample columns.

The affinity matrix feeds a local-invariance penalty on the coefficient
matrix: samples joined by an edge are pushed toward nearby coefficient
columns. Weights are binary; distances are plain Euclidean. A k-NN graph
has at most k N edges, so the affinity is held in compressed sparse row
(CSR) form, as four numpy arrays built once, and every product with it
costs O(K nnz), not O(K N^2). Within this module, entry (i, j) of an
N x N matrix is also named by its flat code i N + j: the builder's edge
sets are sorted lists of codes, and the symmetry check is a join of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, _check_count, _check_matrix, _float_array

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


class CSRMatrix:
    """A read-only float64 matrix in compressed sparse row form.

    Row i stores columns `indices[indptr[i]:indptr[i + 1]]`, strictly
    increasing, with the nonzero weights `data` at the same positions: the
    canonical CSR form, with no stored zeros. `rows` holds each stored
    entry's row, in storage order. The four arrays are the matrix's own and
    cannot be written.
    """

    __slots__ = ("shape", "rows", "indptr", "indices", "data")

    def __init__(self, shape, rows, cols, data):
        # rows, cols: the stored entries in (row, column) order, each once.
        self.shape = shape
        self.rows = rows
        self.indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
        self.indices = cols
        self.data = data
        for a in (self.rows, self.indptr, self.indices, self.data):
            a.flags.writeable = False

    @property
    def nnz(self) -> int:
        return self.data.size

    def sum(self) -> np.float64:
        return self.data.sum()

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.rows, self.indices] = self.data
        return dense


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetric non-negative affinity over n samples, with cached degrees.

    `affinity` is a CSRMatrix, such as build_knn_affinity's, stored as it
    is, or anything numpy reads as a square float64 array. An object with a
    toarray() method, such as another library's sparse matrix, is read
    through that dense N x N form. Input other than a CSRMatrix is converted
    once, from np.nonzero of its dense form, into a CSRMatrix with its own
    copy of the weights. `degree` holds the row sums, each added in storage
    order. The checks (square, finite and non-negative weights, symmetric,
    zero diagonal) read only the stored entries, so they cost
    O(nnz log nnz) beyond the conversion.
    """

    affinity: CSRMatrix
    degree: np.ndarray = field(init=False)

    def __post_init__(self):
        a = self.affinity
        if not isinstance(a, CSRMatrix):
            a = _float_array(a.toarray() if hasattr(a, "toarray") else a, "affinity")
        if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
            raise DataError(f"affinity must be square, got shape {a.shape}")
        if isinstance(a, np.ndarray):
            # np.nonzero lists the entries in (row, column) order, each once.
            rows, cols = np.nonzero(a)
            a = CSRMatrix(a.shape, rows, cols, a[rows, cols])
        n = a.shape[0]
        rows, cols, vals = a.rows, a.indices, a.data
        if not np.all(np.isfinite(vals)):
            raise DataError("affinity has NaN or Inf weights")
        if np.any(vals < 0):
            raise DataError("affinity has negative weights")
        # Symmetric iff the transposed code j n + i of every entry's code
        # i n + j is stored, with the same weight; the codes ascend.
        codes = rows * n + cols
        flipped = cols * n + rows
        at = np.minimum(np.searchsorted(codes, flipped), max(codes.size - 1, 0))
        if not (np.array_equal(codes[at], flipped) and np.array_equal(vals[at], vals)):
            raise DataError("affinity must be symmetric")
        if np.any(rows == cols):
            raise DataError("affinity must have a zero diagonal")
        object.__setattr__(self, "affinity", a)
        object.__setattr__(self, "degree", np.bincount(rows, weights=vals, minlength=n))

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
    block of rows at a time. Each listed pair (i, j) is kept as its code
    i N + j, and its flip as j N + i. The mutual edge set is the listed codes
    whose flip is listed too, the symmetrized one the union of both; both
    come out sorted, which is the CSR order. Beside the N x N Gram matrix
    the build holds one block of distances and O(N k) codes, never a second
    N x N array or a dense affinity.
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

    # Row i of the neighbor lists ascends, so the listed codes ascend too.
    neighbors = _neighbor_lists(x, k)
    samples = np.arange(n)[:, None]
    listed = (samples * n + neighbors).ravel()
    flipped = (neighbors * n + samples).ravel()
    if mode == "mutual":
        codes = listed[np.isin(listed, flipped)]
    else:
        codes = np.union1d(listed, flipped)
    rows, cols = np.divmod(codes, n)
    return AffinityGraph(affinity=CSRMatrix((n, n), rows, cols, np.ones(codes.size)))


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
    and the gradients work from the CSR affinity and the degrees directly.
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
    return _penalty(w, _times_affinity(w, _product_plan(graph, w.shape[0])), graph.degree)


def _product_plan(graph: AffinityGraph, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The arrays of W A for a K x N matrix W, formed once per solve. Entry e
    # of the affinity, at row i and column j, adds data[e] W[r, j] to
    # (W A)[r, i], since A is symmetric: cols holds each entry's j, data its
    # weight, bins the flat target r N + i for each r in turn. The entries
    # go by their place within their row: every row's first entry, then
    # every second one, and so on. Each target still adds its terms in
    # storage order, and consecutive terms go to different targets, which
    # bincount adds faster than a run of terms on one target.
    a = graph.affinity
    order = np.argsort(np.arange(a.nnz) - a.indptr[a.rows], kind="stable")
    bins = (np.arange(k)[:, None] * graph.n + a.rows[order]).ravel()
    return a.indices[order], bins, a.data[order]


def _times_affinity(w, plan) -> np.ndarray | None:
    # W A, the one product with the affinity, costs O(K nnz); None when the
    # plan is None, the solver's sign that the graph term is off. bincount
    # adds each target's terms in storage order, from 0, as a row-by-row
    # CSR product loop does, whatever calls it, so the solver and the public
    # steps agree. Returned in C order like w, so the penalty's <W A, W>
    # copies neither.
    if plan is None:
        return None
    cols, bins, data = plan
    terms = np.take(w, cols, axis=1)
    terms *= data
    return np.bincount(bins, weights=terms.ravel(), minlength=w.size).reshape(w.shape)


def _penalty(w, wa, degree) -> float:
    # wa is w @ A, formed by the caller: the solver shares it with the next
    # W step's numerator.
    colsq = np.einsum("ij,ij->j", w, w)
    return max(float(degree @ colsq - np.vdot(wa, w)), 0.0)
