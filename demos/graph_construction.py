"""k-nearest-neighbor affinity graphs and their Laplacians.

The graph encodes which samples should end up with similar coefficient
columns. Binary affinities come from Euclidean k-nearest neighbors in
one of two modes: "mutual" keeps an edge only when both endpoints pick
each other (sparser, no forced edges into outliers), "symmetrized"
keeps an edge when either endpoint picks the other. The Laplacian
L = degree - affinity defines the smoothness penalty: its quadratic form
measures how rough a signal is across edges. The solver evaluates that
form as sum_n deg_n ||w_n||^2 - <W, W A> and never builds L itself.

A k-NN graph has at most k edges per sample, so `AffinityGraph.affinity`
holds only the edges, in compressed sparse row form: row i's neighbors
are `indices[indptr[i]:indptr[i + 1]]`, with their weights at the same
positions of `data` and each entry's row at the same position of `rows`.
`laplacian` builds the dense L for inspection.
"""

import numpy as np

from mccgr import build_knn_affinity, graph_penalty, laplacian
from mccgr.harness import make_synthetic


def edges(graph):
    # Each edge once, as (i, j) with i < j, read from the entries' `rows`
    # and `indices`.
    a = graph.affinity
    upper = a.rows < a.indices
    return a.rows[upper], a.indices[upper]


x, labels = make_synthetic(3, 20, 50, seed=42, separation=6.0, spread=0.2)
n = x.shape[1]

for mode in ("mutual", "symmetrized"):
    g = build_knn_affinity(x, 5, mode=mode)
    degrees = g.degree
    # edges crossing class boundaries would smooth over exactly the
    # structure clustering needs; count them (each edge once, from the
    # upper triangle)
    a, b = edges(g)
    cross = int(np.sum(labels[a] != labels[b]))
    print(f"{mode:12s} edges {g.affinity.nnz // 2:4d}  "
          f"degree min/mean/max {degrees.min():.0f}/{degrees.mean():.1f}/{degrees.max():.0f}  "
          f"cross-class edges {cross}")
print(f"the symmetrized {type(g.affinity).__name__} stores {g.affinity.nnz} of {n * n} entries")
print()

g = build_knn_affinity(x, 5, mode="mutual")
lap = laplacian(g)

# Invariants: rows sum to zero, the matrix is symmetric, and every
# quadratic form is non-negative.
print(f"max |row sum|      {np.max(np.abs(lap.sum(axis=1))):.2e}")
print(f"symmetric          {np.array_equal(lap, lap.T)}")
rng = np.random.default_rng(2)
forms = [float(v @ lap @ v) for v in rng.standard_normal((200, n))]
print(f"min quadratic form {min(forms):.2e} over 200 random probes")
print()

# The penalty 0.5 * sum_ij a_ij ||w_i - w_j||^2 is zero for any signal
# that is constant on every connected component and grows with
# disagreement across edges. On a blurred dataset the neighbor graph
# picks up a few cross-class edges, and a one-hot class encoding pays
# exactly 2 per such edge.
blurred, blabels = make_synthetic(3, 20, 50, seed=42, separation=1.0, spread=1.0)
gb = build_knn_affinity(blurred, 5, mode="mutual")
a, b = edges(gb)
cross = int(np.sum(blabels[a] != blabels[b]))
w_constant = np.ones((3, n))
w_by_class = np.zeros((3, n))
w_by_class[blabels, np.arange(n)] = 1.0
w_noise = rng.random((3, n))
print(f"blurred dataset, {cross} cross-class edges in the mutual graph")
print(f"penalty, constant signal:    {graph_penalty(w_constant, gb):10.4f}")
print(f"penalty, one-hot by class:   {graph_penalty(w_by_class, gb):10.4f}")
print(f"penalty, random signal:      {graph_penalty(w_noise, gb):10.4f}")
