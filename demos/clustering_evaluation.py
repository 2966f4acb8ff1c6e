"""Clustering the coefficient columns and scoring against true labels.

Cluster ids carry no meaning on their own, so accuracy needs the best
relabeling before counting matches: build the confusion matrix, find
the permutation with the largest diagonal sum, score. NMI skips the
relabeling problem entirely because mutual information is invariant to
it. Both are shown here from their definitions on small inputs, then
run end to end on a factorization.
"""

import itertools

import numpy as np

from mccgr import (
    SolverConfig,
    accuracy,
    build_knn_affinity,
    evaluate,
    hungarian_match,
    init_factors,
    kmeans,
    nmi,
    solve,
)
from mccgr.harness import make_synthetic

# k-means on three well-separated blobs recovers them exactly. Points
# are column vectors, matching the coefficient matrix layout.
rng = np.random.default_rng(3)
centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
points = np.vstack([c + rng.normal(0, 0.4, size=(30, 2)) for c in centers]).T
true = np.repeat(np.arange(3), 30)
clus = kmeans(points, 3, seed=0)
print(f"k-means inertia {clus.inertia:.2f}")
rep = accuracy(clus.assignments, true)
print(f"accuracy after matching {rep.accuracy:.3f}")
print()

# The matcher maximizes the confusion diagonal over permutations; a
# brute-force scan over all 3! relabelings agrees.
confusion = np.array([[10.0, 2.0, 1.0], [3.0, 9.0, 0.0], [0.0, 1.0, 12.0]])
perm = hungarian_match(confusion)
best = max(
    (sum(confusion[i, p[i]] for i in range(3)), p)
    for p in itertools.permutations(range(3))
)
print(f"confusion matrix:\n{confusion.astype(int)}")
print(f"matching {perm.tolist()}, matched count {confusion[np.arange(3), perm].sum():.0f}")
print(f"brute force over 3! permutations: count {best[0]:.0f}, permutation {list(best[1])}")
print()

# NMI from the joint histogram, natural log, normalized by the larger
# marginal entropy. Worked 2x2 case: labels [0,0,1,1] vs [0,0,0,1]
# give joint counts [[2,0],[1,1]] over 4 samples.
a = [0, 0, 1, 1]
b = [0, 0, 0, 1]
p = np.array([[2.0, 0.0], [1.0, 1.0]]) / 4.0
pa, pb = p.sum(axis=1), p.sum(axis=0)
mi = sum(
    p[i, j] * np.log(p[i, j] / (pa[i] * pb[j]))
    for i in range(2)
    for j in range(2)
    if p[i, j] > 0
)
ha = -np.sum(pa * np.log(pa))
hb = -np.sum(pb * np.log(pb))
print(f"joint counts [[2,0],[1,1]]: mi {mi:.6f}, h(a) {ha:.6f}, h(b) {hb:.6f}")
print(f"mi / max(h)  {mi / max(ha, hb):.6f}")
print(f"nmi(a, b)    {nmi(a, b):.6f}")
print()

# End to end: factorize, cluster the coefficient columns, score.
x, labels = make_synthetic(3, 20, 50, seed=42, separation=6.0, spread=0.2)
graph = build_knn_affinity(x, 5, mode="mutual")
h0, w0 = init_factors(x, 3, 0)
cfg = SolverConfig(variant="mccgr", k=3, alpha=10.0, theta=3.0, max_iter=300)
res = solve(x, graph, cfg, h0, w0)
report = evaluate(res.w, labels, 3)
print(f"factorize + cluster: accuracy {report.accuracy:.3f}, nmi {report.nmi:.3f}")
print(f"confusion:\n{report.confusion}")
