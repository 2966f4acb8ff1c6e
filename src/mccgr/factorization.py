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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .graph import AffinityGraph, _penalty, _times_affinity, graph_penalty

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
    "mcc_objective",
    "objective_kl",
    "objective_l2",
    "rho_step",
    "sigma_update",
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
            _check_number(name, getattr(self, name), numbers.Integral)
        for name in ("alpha", "theta", "tol"):
            value = getattr(self, name)
            _check_number(name, value, numbers.Real)
            # NaN passes every comparison below.
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value!r}")
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.alpha < 0:
            raise DataError(f"alpha must be >= 0, got {self.alpha}")
        if self.theta <= 0:
            raise DataError(f"theta must be > 0, got {self.theta}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol < 0:
            raise DataError(f"tol must be >= 0, got {self.tol}")

    @property
    def graph_weight(self) -> float:
        """The graph penalty weight a run applies: alpha for the graph variants, else 0."""
        return self.alpha if self.variant in ("grnmf", "mccgr") else 0.0


def _check_number(name, value, kind):
    # bool is an Integral, but a true or false setting is a mistake.
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if kind is numbers.Integral else "a real number"
        raise DataError(f"{name} must be {expected}, got {value!r}")


def init_factors(x, k: int, seed: int):
    """Seeded starting factors (h0, w0) for a (D, N) data matrix.

    One default_rng(seed) draws h0 (D x k) and then w0 (k x N), uniform in
    (0, 1], so every entry is strictly positive. Only the shape of x is read.
    """
    shape = np.shape(x)
    if len(shape) != 2:
        raise DataError(f"data must be 2-D, got shape {shape}")
    _check_number("k", k, numbers.Integral)
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    h0 = 1.0 - rng.random((shape[0], k))
    w0 = 1.0 - rng.random((k, shape[1]))
    return h0, w0


@dataclass
class Factorization:
    """Solver output.

    `trace` holds the tracked objective per iteration, entry 0 evaluated
    at the initializers. `rho` and `sigma` are the weights and kernel
    width the last iteration's M-step used; the solver derives them, like
    the trace, from one residual pass per iteration. `iterates` is
    populated only when the solver is asked to record per-iteration
    copies of H and W.
    """

    h: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    sigma: float
    trace: np.ndarray
    iterations_run: int
    converged: bool
    iterates: list[tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False)


def _check_triplet(x, h, w):
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 2 or h.ndim != 2 or w.ndim != 2:
        raise DataError("x, h, w must all be 2-D")
    if h.shape[0] != x.shape[0] or w.shape[1] != x.shape[1] or h.shape[1] != w.shape[0]:
        raise DataError(
            f"incompatible shapes: x {x.shape}, h {h.shape}, w {w.shape}"
        )
    return x, h, w


def objective_l2(x, h, w) -> float:
    """Total squared reconstruction error sum((x - h @ w)**2)."""
    x, h, w = _check_triplet(x, h, w)
    r = x - h @ w
    return float(np.sum(r * r))


def objective_kl(x, h, w) -> float:
    """Generalized KL divergence sum(x log(x / v) - x + v), v = h @ w.

    Entries with x == 0 contribute v. Raises NumericalError when some
    x > 0 sits over an exactly zero reconstruction (infinite divergence).
    """
    x, h, w = _check_triplet(x, h, w)
    if np.any(x < 0):
        raise DataError("KL divergence needs non-negative data")
    pos = np.flatnonzero(x > 0)
    xp = x.take(pos)
    return _kl_divergence(xp, pos, np.sum(xp), h @ w)


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


def sigma_update(x, h, w, theta: float, floor: float = EPSILON) -> float:
    """Self-tuned kernel width: sigma^2 = theta * total squared residual / (2 D).

    sigma is floored at `floor` so a (near-)exact reconstruction cannot
    produce a degenerate zero width. Flooring this way caps every kernel
    exponent r2_d / (2 sigma^2) at D / theta, so rho can never underflow
    en masse when a fit becomes nearly exact.
    """
    if theta <= 0:
        raise DataError(f"theta must be > 0, got {theta}")
    x, h, w = _check_triplet(x, h, w)
    return _sigma(_row_sq(x, h, w)[1], x.shape[0], theta, floor)


def _row_sq(x, h, w):
    # Per-row sums r2 of the squared residual r = x - h @ w, and their total.
    # r is formed in the buffer of h @ w, so one D x N array is allocated.
    r = h @ w
    np.subtract(x, r, out=r)
    r2 = np.einsum("ij,ij->i", r, r)
    return r2, float(r2.sum())


def _sigma(total, d, theta, floor) -> float:
    return max(float(np.sqrt(theta * total / (2.0 * d))), floor)


def rho_step(x, h, w, sigma: float) -> np.ndarray:
    """Auxiliary weights rho_d = -exp(-r2_d / (2 sigma^2)), one per feature.

    r2_d is the squared residual summed over samples in feature row d.
    Values lie in [-1, 0); the kernel is floored at the smallest positive
    double so enormous residuals cannot zero a weight out entirely.
    """
    if sigma <= 0:
        raise DataError(f"sigma must be > 0, got {sigma}")
    x, h, w = _check_triplet(x, h, w)
    return _rho(_row_sq(x, h, w)[0], sigma)


def _rho(r2, sigma) -> np.ndarray:
    return -np.maximum(np.exp(-r2 / (2.0 * sigma * sigma)), _KERNEL_TINY)


def mcc_objective(x, h, w, sigma: float) -> float:
    """Sum over features of the Gaussian kernel of the row residual.

    This is the quantity the half-quadratic scheme maximizes; it increases
    whenever any single row residual shrinks.
    """
    if sigma <= 0:
        raise DataError(f"sigma must be > 0, got {sigma}")
    x, h, w = _check_triplet(x, h, w)
    r2 = _row_sq(x, h, w)[0]
    return float(np.sum(np.exp(-r2 / (2.0 * sigma * sigma))))


def dual_objective(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> float:
    """Weighted squared error plus the graph penalty.

    Tr((x - h w)^T diag(-rho) (x - h w)) + alpha * Tr(w L w^T). With rho
    frozen at -1 and alpha = 0 this is exactly objective_l2. Minimized by
    the M-step for fixed rho.
    """
    x, h, w = _check_triplet(x, h, w)
    rho = _check_rho(rho, x.shape[0])
    _check_graph(alpha, graph, x.shape[1])
    value = _weighted_fit(-rho, _row_sq(x, h, w)[0])
    if alpha > 0:
        value += alpha * graph_penalty(w, graph)
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


def _check_rho(rho, d):
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (d,):
        raise DataError(f"rho must have shape ({d},), got {rho.shape}")
    if np.any(rho >= 0):
        raise DataError("rho entries must be strictly negative")
    return rho


def update_h(x, h, w, rho, epsilon: float = EPSILON) -> np.ndarray:
    """One multiplicative step on the basis:

        h <- h * (diag(-rho) x w^T) / (diag(-rho) h w w^T + epsilon)

    Any positive rescaling of rho cancels (up to the epsilon guard), so
    only the relative feature weights matter. Entries are floored at FLOOR.
    """
    x, h, w = _check_triplet(x, h, w)
    neg = -_check_rho(rho, x.shape[0])
    return _update_h(x, h, w, neg, epsilon)


def _update_h(x, h, w, neg, epsilon) -> np.ndarray:
    # diag(neg) x w^T as neg * (x w^T): the weights scale a D x K product.
    # Multiplying by unit weights is exact, so l2 and grnmf get x @ w.T.
    numer = neg[:, None] * (x @ w.T)
    denom = (neg[:, None] * h) @ (w @ w.T) + epsilon
    return np.maximum(h * numer / denom, FLOOR)


def update_w(
    x,
    h,
    w,
    rho,
    alpha: float = 0.0,
    graph: AffinityGraph | None = None,
    epsilon: float = EPSILON,
) -> np.ndarray:
    """One multiplicative step on the coefficients:

        w <- w * (h^T diag(-rho) x + alpha w A) / (h^T diag(-rho) h w + alpha w U + epsilon)

    A is the affinity, U its diagonal degree matrix; both terms drop out
    when alpha == 0. Entries are floored at FLOOR.
    """
    x, h, w = _check_triplet(x, h, w)
    neg = -_check_rho(rho, x.shape[0])
    _check_graph(alpha, graph, x.shape[1])
    if alpha > 0:
        return _update_w(x, h, w, neg, epsilon, alpha, _times_affinity(w, graph), graph.degree)
    return _update_w(x, h, w, neg, epsilon)


def _update_w(x, h, w, neg, epsilon, alpha=0.0, wa=None, degree=None) -> np.ndarray:
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
    return np.maximum(w * numer / (denom + epsilon), FLOOR)


def dual_gradient_h(x, h, w, rho) -> np.ndarray:
    """Gradient of dual_objective in h (the graph term does not touch h)."""
    x, h, w = _check_triplet(x, h, w)
    neg = -_check_rho(rho, x.shape[0])
    return 2.0 * ((neg[:, None] * (h @ w - x)) @ w.T)


def dual_gradient_w(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> np.ndarray:
    """Gradient of dual_objective in w."""
    x, h, w = _check_triplet(x, h, w)
    neg = -_check_rho(rho, x.shape[0])
    _check_graph(alpha, graph, x.shape[1])
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
    gh = 0.5 * dual_gradient_h(x, h, w, rho)
    gw = 0.5 * dual_gradient_w(x, h, w, rho, alpha, graph)
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
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
    squared-error family and objective_kl for kl; iteration stops when its
    per-iteration change, relative to the objective at the initializers,
    falls below cfg.tol, or when cfg.max_iter is reached. EPSILON guards
    every update denominator and floors sigma.

    Each iteration forms the residual x - h @ w once, after the M-step, and
    reduces it in one pass to its per-row squared sums r2. The tracked fit
    is the weighted sum of r2, and the next iteration's sigma and rho follow
    from r2 and its total. The row weights scale the small products of the
    M-step, never x itself, so no step forms a weighted D x N copy. With a
    graph, w @ A is formed once after each W step: it gives that
    iteration's penalty and the next W step's numerator, and no Laplacian
    is built. kl reuses the reconstruction h @ w of its objective in its
    next step. Inputs are validated here once. The loop runs the same
    private kernels that sigma_update, rho_step, update_h, update_w,
    dual_objective, graph_penalty and objective_kl wrap with argument
    checks, so its results equal a loop over those public functions bit for
    bit.

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
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"data must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("data contains NaN or Inf entries")
    if np.any(x < 0):
        raise DataError("data matrix has negative entries")
    d, n = x.shape
    h = np.ascontiguousarray(h0, dtype=np.float64).copy()
    w = np.ascontiguousarray(w0, dtype=np.float64).copy()
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
    sigma = _sigma(total, d, cfg.theta, EPSILON)
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
            sigma = _sigma(total, d, cfg.theta, EPSILON)
            if live_rho:
                rho = _rho(r2, sigma)
                neg = -rho
            h = _update_h(x, h, w, neg, EPSILON)
            w = _update_w(x, h, w, neg, EPSILON, alpha, wa, degree)
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
