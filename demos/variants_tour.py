"""All five solver variants on one dataset, plus the reduction chain.

The variants share one code path: l2 is the classical multiplicative
update pair, kl swaps the divergence, grnmf adds the graph penalty to
the w update, mcc swaps the uniform row weights for correntropy
weights, and mccgr combines both. Setting alpha to zero or freezing the
weights at -1 therefore reproduces the simpler variants exactly, which
this script checks iterate by iterate.
"""

import numpy as np

from mccgr import SolverConfig, build_knn_affinity, evaluate, init_factors, solve, update_h, update_w
from mccgr.harness import make_synthetic

x, labels = make_synthetic(3, 20, 50, seed=42, separation=6.0, spread=0.2)
graph = build_knn_affinity(x, 5, mode="mutual")
h0, w0 = init_factors(x, 3, 1)

settings = (
    ("l2", {}),
    ("kl", {}),
    ("grnmf", {"alpha": 10.0}),
    ("mcc", {"theta": 3.0}),
    ("mccgr", {"alpha": 10.0, "theta": 3.0}),
)
print(f"{'variant':8s} {'accuracy':>8s} {'nmi':>8s} {'iters':>6s} {'objective':>12s}")
for name, extra in settings:
    cfg = SolverConfig(variant=name, k=3, max_iter=300, **extra)
    res = solve(x, graph if extra.get("alpha") else None, cfg, h0, w0)
    rep = evaluate(res.w, labels, 3)
    print(f"{name:8s} {rep.accuracy:8.3f} {rep.nmi:8.3f} {res.iterations_run:6d} "
          f"{res.trace[-1]:12.4e}")
print()

# Reduction 1: alpha = 0 turns mccgr into mcc, identically.
a = solve(
    x, None,
    SolverConfig(variant="mccgr", k=3, alpha=0.0, theta=3.0, max_iter=50, tol=0.0),
    h0, w0, record_iterates=True,
)
b = solve(
    x, None,
    SolverConfig(variant="mcc", k=3, theta=3.0, max_iter=50, tol=0.0),
    h0, w0, record_iterates=True,
)
drift = max(
    max(np.max(np.abs(ha - hb)), np.max(np.abs(wa - wb)))
    for (ha, wa), (hb, wb) in zip(a.iterates, b.iterates)
)
print(f"mccgr(alpha=0) vs mcc, max iterate difference over 50 iterations: {drift:.1e}")

# Reduction 2: freezing the row weights at -1 turns mccgr into grnmf.
# update_h/update_w are the public building blocks, so the frozen-weight
# solver is three lines of driver code.
c = solve(
    x, graph,
    SolverConfig(variant="grnmf", k=3, alpha=10.0, max_iter=50, tol=0.0),
    h0, w0, record_iterates=True,
)
rho = -np.ones(50)
h, w = h0.copy(), w0.copy()
drift = 0.0
for hb, wb in c.iterates:
    h = update_h(x, h, w, rho)
    w = update_w(x, h, w, rho, 10.0, graph)
    drift = max(drift, np.max(np.abs(h - hb)), np.max(np.abs(w - wb)))
print(f"frozen weights vs grnmf,  max iterate difference over 50 iterations: {drift:.1e}")
