"""Factorization objectives and multiplicative-update solvers.

A non-negative data matrix X (D features x N samples) is approximated by
H @ W with H (D x K) and W (K x N) non-negative. Variants:

  l2     squared reconstruction error, classic multiplicative updates
  kl     generalized Kullback-Leibler divergence and its updates
  grnmf  squared error plus an affinity-graph smoothness penalty on W
  mcc    squared error reweighted per feature by a Gaussian kernel of the
         feature's residual, solved half-quadratically
  mccgr  the reweighted fit combined with the graph penalty

The half-quadratic variants alternate an E-step, which refreshes the
kernel width sigma and the auxiliary weights rho from the current
residuals, with multiplicative M-step updates of H and then W. A feature
row with weight -rho_d = exp(-r2_d / (2 sigma^2)) close to zero is
effectively dropped from the fit, which is what buys robustness to
grossly corrupted features.

The squared-error kernels never form a weighted copy of the data or of
the squared residual: the row weights scale the D x K and K x K products
of the updates, and the fit is the weighted sum of the per-row squared
residuals r2. The graph terms come from the K x N product W A with the
sparse affinity; no Laplacian is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError, _check_count, _check_matrix, _check_real, _check_shape
from .graph import AffinityGraph, _penalty, _times_affinity

__all__ = [
    "EPSILON",
    "FLOOR",
    "VARIANTS",
    "Factorization",
    "SolverConfig",
    "dual_gradient_h",
    "dual_gradient_w",
    "dual_objective",
    "init_factors",
    "kkt_products",
    "solve",
    "update_h",
    "update_w",
]

VARIANTS = ("l2", "kl", "grnmf", "mcc", "mccgr")

# Smallest value an H or W entry may take after an update. Keeps every
# factor strictly positive so later multiplicative steps can still move it.
FLOOR = 1e-16

# Guard added to every multiplicative-update denominator, and the smallest
# kernel width sigma may take.
EPSILON = 1e-12

# exp() underflows to 0.0 near 745; rho must stay strictly negative, so the
# kernel value is floored at the smallest positive normal double.
_KERNEL_TINY = np.finfo(np.float64).tiny


@dataclass
class SolverConfig:
    """Solver settings; `variant` is one of VARIANTS (case-insensitive).

    These fields and their defaults are the one list of solver settings:
    the CLI flags and the experiment spec's variant keys are read from it.
    """

    variant: str
    k: int
    alpha: float = 100.0
    theta: float = 1.0
    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant.lower() not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        self.variant = self.variant.lower()
        for name in ("k", "max_iter"):
            _check_count(name, getattr(self, name), 1)
        for name in ("alpha", "theta", "tol"):
            _check_real(name, getattr(self, name))
        if self.alpha < 0:
            raise DataError(f"alpha must be >= 0, got {self.alpha}")
        if self.theta <= 0:
            raise DataError(f"theta must be > 0, got {self.theta}")
        if self.tol < 0:
            raise DataError(f"tol must be >= 0, got {self.tol}")

    @property
    def graph_weight(self) -> float:
        """The graph penalty weight a run applies: alpha for the graph variants, else 0."""
        return self.alpha if self.variant in ("grnmf", "mccgr") else 0.0


def init_factors(x, k: int, seed: int):
    """Seeded starting factors (h0, w0) for a (D, N) data matrix.

    One default_rng(seed) draws h0 (D x k) and then w0 (k x N), uniform in
    (0, 1], so every entry is strictly positive. Only the shape of x is read.
    """
    shape = np.shape(x)
    _check_shape("x", shape)
    _check_count("k", k, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    h0 = 1.0 - rng.random((shape[0], k))
    w0 = 1.0 - rng.random((k, shape[1]))
    return h0, w0


@dataclass
class Factorization:
    """Solver output.

    `trace` holds the tracked objective per iteration, entry 0 evaluated
    at the initializers. For l2, grnmf, mcc and mccgr, `rho` and `sigma`
    are the row weights and kernel width of the last iteration's E-step,
    which derives them, like the trace, from one residual pass: the last
    M-step of mcc and mccgr used that rho, while l2 and grnmf hold rho at
    -1 and never read sigma. kl reads neither: its `rho` is -1 and its
    `sigma` the width at the initializers. `iterates` is populated only
    when the solver is asked to record per-iteration copies of H and W.
    """

    h: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    sigma: float
    trace: np.ndarray
    iterations_run: int
    converged: bool
    iterates: list[tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False)


def _kl_divergence(xp, pos, sum_xp, v) -> float:
    # pos holds the flat C-order indices of the positive data entries, xp =
    # x.take(pos) and sum_xp = sum(xp); they depend on the data alone, so the
    # solver forms them once per solve. v.take(pos) picks the same entries in
    # the same order as the mask v[x > 0], at a fraction of its cost.
    vp = v.take(pos)
    if np.any(vp <= 0):
        raise NumericalError("KL divergence is infinite: zero reconstruction under positive data")
    # xp * log(xp / vp), formed in vp's buffer.
    terms = np.divide(xp, vp, out=vp)
    np.log(terms, out=terms)
    terms *= xp
    return float(np.sum(terms) - sum_xp + np.sum(v))


def _row_sq(x, h, w):
    # Per-row sums r2 of the squared residual r = x - h @ w, and their total.
    # r is formed in the buffer of h @ w, so one D x N array is allocated.
    r = h @ w
    np.subtract(x, r, out=r)
    r2 = np.einsum("ij,ij->i", r, r)
    return r2, float(r2.sum())


def _sigma(total, d, theta) -> float:
    # Self-tuned kernel width: sigma^2 = theta * total squared residual / (2 D).
    # The floor at EPSILON keeps a (near-)exact fit from giving a zero width,
    # and it caps every kernel exponent r2_d / (2 sigma^2) at D / theta, so rho
    # cannot underflow en masse when a fit becomes nearly exact.
    return max(float(np.sqrt(theta * total / (2.0 * d))), EPSILON)


def _rho(r2, sigma) -> np.ndarray:
    # Auxiliary weights rho_d = -exp(-r2_d / (2 sigma^2)), one per feature row,
    # in [-1, 0). The kernel is floored at the smallest positive double so an
    # enormous residual cannot zero a weight out entirely.
    return -np.maximum(np.exp(-r2 / (2.0 * sigma * sigma)), _KERNEL_TINY)


def dual_objective(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> float:
    """Weighted squared error plus the graph penalty.

    Tr((x - h w)^T diag(-rho) (x - h w)) + alpha * Tr(w L w^T). With rho
    frozen at -1 and alpha = 0 this is sum((x - h w)^2). Minimized by
    the M-step for fixed rho.
    """
    x, h, w, neg = _check_step(x, h, w, rho, alpha, graph)
    value = _weighted_fit(neg, _row_sq(x, h, w)[0])
    if alpha > 0:
        value += alpha * _penalty(w, _times_affinity(w, graph), graph.degree)
    return value


def _weighted_fit(neg, r2) -> float:
    # sum_d neg_d r2_d: the weights scale the D row sums, not a D x N copy.
    return float(neg @ r2)


def _check_graph(alpha, graph, n):
    # The graph arguments of every function with a penalty term: the graph
    # is read only when alpha > 0, and then it must span the n samples.
    if alpha < 0:
        raise DataError(f"alpha must be >= 0, got {alpha}")
    if alpha > 0:
        if graph is None:
            raise DataError("alpha > 0 requires an affinity graph")
        if graph.n != n:
            raise DataError(f"graph size {graph.n} does not match sample count {n}")


def _check_step(x, h, w, rho, alpha=0.0, graph=None):
    # The one preamble of the public step functions: x checked as solve
    # checks it, finite factors whose shapes fit x, strictly negative row
    # weights and the graph arguments. Returns x, h, w and the weights -rho.
    x = _check_matrix(x, "x", nonneg=True)
    h = _check_matrix(h, "h")
    w = _check_matrix(w, "w")
    if h.shape[0] != x.shape[0] or w.shape[1] != x.shape[1] or h.shape[1] != w.shape[0]:
        raise DataError(f"incompatible shapes: x {x.shape}, h {h.shape}, w {w.shape}")
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (x.shape[0],):
        raise DataError(f"rho must have shape ({x.shape[0]},), got {rho.shape}")
    # Written so that a NaN weight fails too.
    if not np.all(rho < 0):
        raise DataError("rho entries must be strictly negative")
    _check_graph(alpha, graph, x.shape[1])
    return x, h, w, -rho


def update_h(x, h, w, rho) -> np.ndarray:
    """One multiplicative step on the basis:

        h <- h * (diag(-rho) x w^T) / (diag(-rho) h w w^T + EPSILON)

    Any positive rescaling of rho cancels (up to the EPSILON guard), so
    only the relative feature weights matter. Entries are floored at FLOOR.
    """
    return _update_h(*_check_step(x, h, w, rho))


def _update_h(x, h, w, neg) -> np.ndarray:
    # diag(neg) x w^T as neg * (x w^T): the weights scale a D x K product.
    # Multiplying by unit weights is exact, so l2 and grnmf get x @ w.T.
    numer = neg[:, None] * (x @ w.T)
    denom = (neg[:, None] * h) @ (w @ w.T) + EPSILON
    return np.maximum(h * numer / denom, FLOOR)


def update_w(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> np.ndarray:
    """One multiplicative step on the coefficients:

        w <- w * (h^T diag(-rho) x + alpha w A) / (h^T diag(-rho) h w + alpha w U + EPSILON)

    A is the affinity, U its diagonal degree matrix; both terms drop out
    when alpha == 0. Entries are floored at FLOOR.
    """
    x, h, w, neg = _check_step(x, h, w, rho, alpha, graph)
    if alpha > 0:
        return _update_w(x, h, w, neg, alpha, _times_affinity(w, graph), graph.degree)
    return _update_w(x, h, w, neg)


def _update_w(x, h, w, neg, alpha=0.0, wa=None, degree=None) -> np.ndarray:
    # h^T diag(neg) x as (diag(neg) h)^T x. hn is a new buffer even for unit
    # weights: h.T @ h on one buffer would go to BLAS syrk, which rounds
    # differently from gemm for larger D, and hn.T @ x is then the same gemm
    # as h.T @ x. wa is w @ A, which the solver also reads for the penalty.
    hn = neg[:, None] * h
    numer = hn.T @ x
    denom = (h.T @ hn) @ w
    if alpha > 0:
        numer = numer + alpha * wa
        denom = denom + alpha * (w * degree[None, :])
    return np.maximum(w * numer / (denom + EPSILON), FLOOR)


def dual_gradient_h(x, h, w, rho) -> np.ndarray:
    """Gradient of dual_objective in h (the graph term does not touch h)."""
    return _gradient_h(*_check_step(x, h, w, rho))


def _gradient_h(x, h, w, neg) -> np.ndarray:
    return 2.0 * ((neg[:, None] * (h @ w - x)) @ w.T)


def dual_gradient_w(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> np.ndarray:
    """Gradient of dual_objective in w."""
    return _gradient_w(*_check_step(x, h, w, rho, alpha, graph), alpha, graph)


def _gradient_w(x, h, w, neg, alpha, graph) -> np.ndarray:
    g = 2.0 * (h.T @ (neg[:, None] * (h @ w - x)))
    if alpha > 0:
        # w L = w diag(degree) - w A, without the N x N Laplacian.
        g = g + 2.0 * alpha * (w * graph.degree[None, :] - _times_affinity(w, graph))
    return g


def kkt_products(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None):
    """Elementwise stationarity products (gradient/2 times the factor).

    Both arrays vanish at a fixed point of the multiplicative updates:
    each entry is either at an unconstrained stationary value or pinned
    at the non-negativity boundary.
    """
    x, h, w, neg = _check_step(x, h, w, rho, alpha, graph)
    gh = 0.5 * _gradient_h(x, h, w, neg)
    gw = 0.5 * _gradient_w(x, h, w, neg, alpha, graph)
    return gh * h, gw * w


def _kl_ratio(x, v):
    # x / max(v, EPSILON), written over v: no second D x N array is formed.
    np.maximum(v, EPSILON, out=v)
    return np.divide(x, v, out=v)


def _kl_step(x, h, w, v):
    # v is h @ w on entry, from the solver's objective. It is overwritten with
    # the ratio, so the caller's v costs no memory and must not be read again.
    ratio = _kl_ratio(x, v)
    h = h * (ratio @ w.T) / (np.sum(w, axis=1)[None, :] + EPSILON)
    h = np.maximum(h, FLOOR)
    ratio = _kl_ratio(x, h @ w)
    w = w * (h.T @ ratio) / (np.sum(h, axis=0)[:, None] + EPSILON)
    w = np.maximum(w, FLOOR)
    return h, w


def solve(
    x,
    graph: AffinityGraph | None,
    cfg: SolverConfig,
    h0,
    w0,
    record_iterates: bool = False,
) -> Factorization:
    """Run the configured variant from strictly positive initializers.

    Per iteration the half-quadratic variants refresh sigma and rho from
    the current residuals, then update h (using the current w) and w
    (using the fresh h). l2/grnmf keep rho frozen at -1; kl runs the
    divergence updates. The tracked objective is dual_objective for the
    squared-error family and, for kl, the generalized KL divergence
    sum(x log(x / v) - x + v) with v = h @ w, where entries with x == 0
    contribute v. Iteration stops when the objective's per-iteration
    change, relative to its value at the initializers, falls below
    cfg.tol, or when cfg.max_iter is reached. EPSILON guards every update
    denominator and floors sigma.

    Each iteration forms the residual x - h @ w once, after the M-step, and
    reduces it in one pass to its per-row squared sums r2. The tracked fit
    is the weighted sum of r2, and the next iteration's sigma and rho follow
    from r2 and its total. The row weights scale the small products of the
    M-step, never x itself, so no step forms a weighted D x N copy. With a
    graph, w @ A is formed once after each W step: it gives that
    iteration's penalty and the next W step's numerator, and no Laplacian
    is built. kl reuses the reconstruction h @ w of its objective in its
    next step. Inputs are validated here once. The results equal bit for
    bit a loop that calls the public update_h, update_w and dual_objective
    and recomputes sigma, rho and the KL divergence from a fresh residual
    with plain numpy at every step.

    Parameters
    ----------
    x : (D, N) array, non-negative data.
    graph : AffinityGraph or None, required iff cfg.graph_weight > 0.
    cfg : SolverConfig.
    h0, w0 : (D, K) and (K, N) strictly positive initializers.
    record_iterates : store per-iteration copies of (h, w) on the result.

    Returns
    -------
    Factorization
    """
    x = _check_matrix(x, "x", nonneg=True)
    d, n = x.shape
    h = _check_matrix(h0, "h0").copy()
    w = _check_matrix(w0, "w0").copy()
    if h.shape != (d, cfg.k):
        raise DataError(f"h0 shape {h.shape} does not match ({d}, {cfg.k})")
    if w.shape != (cfg.k, n):
        raise DataError(f"w0 shape {w.shape} does not match ({cfg.k}, {n})")
    if np.any(h <= 0) or np.any(w <= 0):
        raise DataError("initializers must be strictly positive")

    alpha = cfg.graph_weight
    _check_graph(alpha, graph, n)
    live_rho = cfg.variant in ("mcc", "mccgr")
    kl = cfg.variant == "kl"
    degree = graph.degree if alpha > 0 else None

    def products(w_):
        # w_ @ A, shared by the penalty on w_ and the next W step's numerator.
        return _times_affinity(w_, graph) if alpha > 0 else None

    def fit(neg_, r2_, w_, wa_):
        value = _weighted_fit(neg_, r2_)
        if alpha > 0:
            value += alpha * _penalty(w_, wa_, degree)
        return value

    r2, total = _row_sq(x, h, w)
    sigma = _sigma(total, d, cfg.theta)
    rho = _rho(r2, sigma) if live_rho else -np.ones(d)
    neg = -rho
    if kl:
        pos = np.flatnonzero(x > 0)
        xp = x.take(pos)
        sum_xp = np.sum(xp)
        v = h @ w
        trace = [_kl_divergence(xp, pos, sum_xp, v)]
    else:
        wa = products(w)
        trace = [fit(neg, r2, w, wa)]
    # Per-iteration change is judged against the starting objective, not the
    # current one: objectives with a zero infimum shrink geometrically
    # forever, so a change relative to the previous value would never settle
    # even at machine-precision reconstructions.
    scale = abs(trace[0])
    iterates: list[tuple[np.ndarray, np.ndarray]] | None = [] if record_iterates else None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        if kl:
            h, w = _kl_step(x, h, w, v)
            v = h @ w
            value = _kl_divergence(xp, pos, sum_xp, v)
        else:
            # On the first iteration this repeats the E-step at the
            # initializers, which keeps sigma and rho at the values the last
            # M-step used when the loop ends.
            sigma = _sigma(total, d, cfg.theta)
            if live_rho:
                rho = _rho(r2, sigma)
                neg = -rho
            h = _update_h(x, h, w, neg)
            w = _update_w(x, h, w, neg, alpha, wa, degree)
            wa = products(w)
            r2, total = _row_sq(x, h, w)
            value = fit(neg, r2, w, wa)
        if not np.isfinite(value):
            raise NumericalError(
                f"objective became non-finite at iteration {iterations}"
            )
        previous = trace[-1]
        trace.append(value)
        if iterates is not None:
            iterates.append((h.copy(), w.copy()))
        diff = abs(value - previous)
        if diff == 0.0:
            rel = 0.0
        elif scale == 0.0:
            rel = np.inf
        else:
            rel = diff / scale
        if rel < cfg.tol:
            converged = True
            break
    return Factorization(
        h=h,
        w=w,
        rho=rho.copy(),
        sigma=sigma,
        trace=np.array(trace),
        iterations_run=iterations,
        converged=converged,
        iterates=iterates,
    )
