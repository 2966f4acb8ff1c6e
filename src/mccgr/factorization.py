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

The squared-error kernels never form the residual X - H W: each iterate's
D x K products X W^T and H W W^T give the per-row squared residuals r2 by
the trace identity ||x_d - h_d W||^2 = ||x_d||^2 - 2 h_d.(X W^T)_d +
h_d.(H W W^T)_d, and the next H step reads the same two products. A row
whose r2 cancels down to rounding level is summed from its explicit
residual instead. The row weights scale the D x K product diag(neg) H of
the W step, and the fit is the weighted sum of r2. The H step needs no
weights: row d of H sees only row d of X, so its weight cancels. The
graph terms come from the K x N product W A with the CSR affinity; no
Laplacian is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError, _check_count, _check_matrix, _check_real, _check_shape
from .graph import AffinityGraph, _penalty, _product_plan, _times_affinity

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

# A row whose Gram-form squared residual falls below this multiple of
# ||x_d||^2 has lost most of its digits to cancellation (the form's error
# is a few eps ||x_d||^2), so it is summed from the explicit residual.
_CANCEL = 1e3 * np.finfo(np.float64).eps


@dataclass
class SolverConfig:
    """Solver settings; `variant` is one of VARIANTS (case-insensitive).

    `theta` scales the E-step's kernel width, so only mcc and mccgr read it.

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
        for name, low in (("alpha", 0), ("theta", None), ("tol", 0)):
            _check_real(name, getattr(self, name), low)
        if self.theta <= 0:
            raise DataError(f"theta must be > 0, got {self.theta}")

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
    at the initializers. For mcc and mccgr, `rho` and `sigma` are the row
    weights and kernel width of the last iteration's E-step, the rho the
    last W step used. l2, grnmf and kl run no E-step: their `rho` is -1
    and their `sigma` inf, the width at which every kernel value
    exp(-r2_d / (2 sigma^2)) is exactly 1. `iterates` is populated only
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


def _kl_divergence(x, c, h, w, v, log_v, hs, ws) -> float:
    # sum(x log(x / v) - x + v) at v = h @ w, as c - <x, log v> + sum(v):
    # c = sum(x log x - x) over the positive entries of x depends on the
    # data alone, so the solver forms it once, and sum(v) = h.sum(0) @
    # w.sum(1) from the column and row sums hs and ws the steps read. v
    # receives h @ w, which the next step reads; log_v is scratch. The
    # D x N dot products go through einsum, not BLAS, whose dot splits a long
    # sum across threads and so rounds by the thread count. Zero
    # entries of x add 0 to <x, log v> as long as log v is finite, which
    # fails only where h @ w underflows to 0. Factors floored at FLOOR cannot
    # get there, a start can: then the sum over the positive entries
    # decides.
    np.matmul(h, w, out=v)
    with np.errstate(divide="ignore"):
        np.log(v, out=log_v)
    value = c - float(np.einsum("ij,ij->", x, log_v)) + float(hs @ ws)
    if not math.isfinite(value):
        pos = x > 0
        xp, vp = x[pos], v[pos]
        if np.any(vp <= 0):
            raise NumericalError("KL divergence is infinite: zero reconstruction under positive data")
        value = float(np.sum(xp * np.log(xp / vp)) - np.sum(xp) + np.sum(v))
    return value


def _kl_start(x):
    # The divergence's data term c = sum(x log x - x) over x > 0, and a D x N
    # buffer for log v: log x is formed in it, so the mask is the only other
    # array the start allocates.
    log_x = np.zeros_like(x)
    np.log(x, out=log_x, where=x > 0)
    return float(np.einsum("ij,ij->", x, log_x)) - float(x.sum()), log_x


def _row_sq(x, h, w):
    # Per-row sums r2 of the squared residual r = x - h @ w, formed
    # explicitly: the fallback for rows whose Gram form cancels. r is formed
    # in the buffer of h @ w.
    r = h @ w
    np.subtract(x, r, out=r)
    return np.einsum("ij,ij->i", r, r)


def _products(x, h, w):
    # The iterate's D x K products x @ w.T and h @ (w @ w.T). w.T is copied
    # to C order first: BLAS runs x @ w.T in a transposed-operand layout
    # that is 2-2.5x slower at the experiment's cell shapes.
    wt = np.ascontiguousarray(w.T)
    return x @ wt, h @ (w @ wt)


def _gram_r2(x, h, w, xw, hww, xsq, low):
    # Per-row squared residuals from the iterate's products, with no D x N
    # array: r2_d = ||x_d||^2 + h_d . (h w w^T - 2 x w^T)_d, xsq = ||x_d||^2.
    # Rows below low = _CANCEL * xsq are recomputed explicitly.
    r2 = np.einsum("ij,ij->i", h, hww - 2.0 * xw)
    r2 += xsq
    fall = r2 < low
    if fall.any():
        rows = np.flatnonzero(fall)
        r2[rows] = _row_sq(x[rows], h[rows], w)
    return r2


def _sigma(r2, theta) -> float:
    # Self-tuned kernel width: sigma^2 = theta * total squared residual / (2 D).
    # The floor at EPSILON keeps a (near-)exact fit from giving a zero width,
    # and it caps every kernel exponent r2_d / (2 sigma^2) at D / theta, so rho
    # cannot underflow en masse when a fit becomes nearly exact.
    return max(math.sqrt(theta * float(r2.sum()) / (2.0 * r2.size)), EPSILON)


def _rho(r2, sigma) -> np.ndarray:
    # Auxiliary weights rho_d = -exp(-r2_d / (2 sigma^2)), one per feature row,
    # in [-1, 0). The kernel is floored at the smallest positive double so an
    # enormous residual cannot zero a weight out entirely.
    kernel = r2 / (-2.0 * sigma * sigma)
    np.exp(kernel, out=kernel)
    np.maximum(kernel, _KERNEL_TINY, out=kernel)
    return np.negative(kernel, out=kernel)


def dual_objective(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> float:
    """Weighted squared error plus the graph penalty.

    Tr((x - h w)^T diag(-rho) (x - h w)) + alpha * Tr(w L w^T). With rho
    frozen at -1 and alpha = 0 this is sum((x - h w)^2). Minimized by
    the M-step for fixed rho.
    """
    x, h, w, neg = _check_step(x, h, w, rho)
    plan, adeg = _graph_terms(alpha, graph, *w.shape)
    xsq = np.einsum("ij,ij->i", x, x)
    r2 = _gram_r2(x, h, w, *_products(x, h, w), xsq, _CANCEL * xsq)
    return _objective(neg, r2, w, _times_affinity(w, plan), adeg)


def _graph_terms(alpha, graph, k, n):
    # The graph term with alpha folded in, formed once per solve: the arrays
    # of alpha (w @ A) for a (k, n) w, and alpha * degree; None and None when
    # the term is off (_times_affinity gives None for a None plan). The one
    # check of the graph arguments: alpha is a finite real >= 0 (a NaN would
    # skip the graph), and the graph, read only if alpha > 0, spans n samples.
    _check_real("alpha", alpha, 0)
    if not alpha > 0:
        return None, None
    if graph is None:
        raise DataError("alpha > 0 requires an affinity graph")
    if graph.n != n:
        raise DataError(f"graph size {graph.n} does not match sample count {n}")
    cols, bins, data = _product_plan(graph, k)
    return (cols, bins, alpha * data), alpha * graph.degree


def _objective(neg, r2, w, wa, adeg) -> float:
    # sum_d neg_d r2_d, plus the penalty with alpha folded into wa = alpha (w
    # @ A) and adeg = alpha * degree: the weights scale the D row sums, not a
    # D x N copy.
    value = float(neg @ r2)
    if wa is not None:
        value += _penalty(w, wa, adeg)
    return value


def _check_factors(x, h, w, k=None, names=("h", "w")):
    # The one factor check of solve and the public steps: x is data, and the
    # finite factors, named names, are (D, k) and (k, N), k h's own if None.
    x = _check_matrix(x, "x", nonneg=True)
    h = _check_matrix(h, names[0])
    w = _check_matrix(w, names[1])
    k = h.shape[1] if k is None else k
    if h.shape != (x.shape[0], k) or w.shape != (k, x.shape[1]):
        raise DataError(f"incompatible shapes: x {x.shape}, {names[0]} {h.shape}, {names[1]} {w.shape}, rank {k}")
    return x, h, w


def _check_step(x, h, w, rho):
    # The one preamble of the public step functions: the factors, then
    # strictly negative row weights, written so that a NaN weight fails too.
    # Returns x, h, w and the weights -rho.
    x, h, w = _check_factors(x, h, w)
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (x.shape[0],):
        raise DataError(f"rho must have shape ({x.shape[0]},), got {rho.shape}")
    if not np.all(rho < 0):
        raise DataError("rho entries must be strictly negative")
    return x, h, w, -rho


def update_h(x, h, w, rho) -> np.ndarray:
    """One multiplicative step on the basis:

        h <- h * (x w^T) / (h w w^T + EPSILON)

    It is the weighted step h * (diag(-rho) x w^T) / (diag(-rho) h w w^T)
    on dual_objective: row d of h sees only row d of x, so -rho_d cancels
    row by row. rho is checked like every step's weights, then not read.
    Entries are floored at FLOOR.
    """
    x, h, w, _ = _check_step(x, h, w, rho)
    h = h.copy()
    _update_h(h, *_products(x, h, w))
    return h


def _update_h(h, xw, hww) -> None:
    # h <- max(h * xw / (hww + EPSILON), FLOOR) in h's buffer, from the
    # iterate's products xw = x @ w.T and hww = h @ w @ w.T; hww is
    # overwritten.
    h *= xw
    hww += EPSILON
    h /= hww
    np.maximum(h, FLOOR, out=h)


def update_w(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> np.ndarray:
    """One multiplicative step on the coefficients:

        w <- w * (h^T diag(-rho) x + alpha w A) / (h^T diag(-rho) h w + alpha w U + EPSILON)

    A is the affinity, U its diagonal degree matrix; both terms drop out
    when alpha == 0. Entries are floored at FLOOR.
    """
    x, h, w, neg = _check_step(x, h, w, rho)
    plan, adeg = _graph_terms(alpha, graph, *w.shape)
    out = w.copy()
    _update_w(x, h, out, neg, _times_affinity(w, plan), adeg)
    return out


def _w_split(x, h, w, neg, wa, adeg):
    # The W step's numerator (diag(neg) h)^T x + wa and denominator h^T
    # diag(neg) h w + w diag(adeg), half the gradient's negative and positive
    # parts; wa = alpha (w @ A) and adeg are None when the graph is off.
    # (diag(neg) h)^T is formed in C order, which BLAS multiplies faster.
    hnt = np.multiply(h.T, neg, order="C")
    numer = hnt @ x
    denom = (hnt @ h) @ w
    if wa is not None:
        numer += wa
        denom += w * adeg
    return numer, denom


def _update_w(x, h, w, neg, wa, adeg) -> None:
    # w <- max(w * numer / (denom + EPSILON), FLOOR) in w's buffer.
    numer, denom = _w_split(x, h, w, neg, wa, adeg)
    denom += EPSILON
    w *= numer
    w /= denom
    np.maximum(w, FLOOR, out=w)


def dual_gradient_h(x, h, w, rho) -> np.ndarray:
    """Gradient of dual_objective in h (the graph term does not touch h):
    2 diag(-rho) (hww - xw), from update_h's D x K products hww = h w w^T
    and xw = x w^T. No D x N residual is formed.
    """
    x, h, w, neg = _check_step(x, h, w, rho)
    xw, hww = _products(x, h, w)
    return 2.0 * neg[:, None] * (hww - xw)


def dual_gradient_w(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None) -> np.ndarray:
    """Gradient of dual_objective in w: 2 (denom - numer), update_w's
    denominator h^T diag(-rho) h w + alpha w U (before EPSILON) and
    numerator h^T diag(-rho) x + alpha w A, alpha folded in as solve folds
    it. No D x N residual and no Laplacian is formed.
    """
    x, h, w, neg = _check_step(x, h, w, rho)
    plan, adeg = _graph_terms(alpha, graph, *w.shape)
    numer, denom = _w_split(x, h, w, neg, _times_affinity(w, plan), adeg)
    return 2.0 * (denom - numer)


def kkt_products(x, h, w, rho, alpha: float = 0.0, graph: AffinityGraph | None = None):
    """Elementwise stationarity products (gradient/2 times the factor).

    The H part is h * diag(-rho) (hww - xw) and the W part w * (denom -
    numer), as the gradients form them: the fixed-point residual of each
    multiplicative step. Both vanish at a fixed point of the updates: each
    entry is either at an unconstrained stationary value or pinned at the
    non-negativity boundary.
    """
    # Half of each gradient as its function forms it, bit for bit: where a
    # term is subnormal (a weight floored at the smallest double), halving
    # twice it can round otherwise than forming it at once. The H part's
    # products are let go before the graph's product plan is made, so the
    # peak is no higher than either gradient's.
    x, h, w, neg = _check_step(x, h, w, rho)
    xw, hww = _products(x, h, w)
    kkt_h = 0.5 * (2.0 * neg[:, None] * (hww - xw)) * h
    del xw, hww
    plan, adeg = _graph_terms(alpha, graph, *w.shape)
    numer, denom = _w_split(x, h, w, neg, _times_affinity(w, plan), adeg)
    return kkt_h, 0.5 * (2.0 * (denom - numer)) * w


def _kl_ratio(x, v):
    # x / max(v, EPSILON), written over v. The floor is a pass over v that
    # changes no entry unless one is below EPSILON, so a cheaper minimum
    # decides whether it runs.
    if v.min() < EPSILON:
        np.maximum(v, EPSILON, out=v)
    np.divide(x, v, out=v)


def _kl_step(x, h, w, v, ws):
    # One KL step on h, then on w, in their buffers. v holds h @ w on entry,
    # from the solver's objective, and ws = w.sum(1); v is the step's one D x
    # N work buffer. Returns the new h.sum(0) and w.sum(1), which the
    # objective and the next step read.
    _kl_ratio(x, v)
    h *= v @ np.ascontiguousarray(w.T)
    h /= ws + EPSILON
    np.maximum(h, FLOOR, out=h)
    hs = h.sum(axis=0)
    np.matmul(h, w, out=v)
    _kl_ratio(x, v)
    w *= np.ascontiguousarray(h.T) @ v
    w /= (hs + EPSILON)[:, None]
    np.maximum(w, FLOOR, out=w)
    return hs, w.sum(axis=1)


def solve(
    x,
    graph: AffinityGraph | None,
    cfg: SolverConfig,
    h0,
    w0,
    record_iterates: bool = False,
) -> Factorization:
    """Run the configured variant from strictly positive initializers.

    Per iteration only mcc and mccgr run the E-step, which refreshes sigma
    and rho from the current residuals; then h is updated (using the current
    w) and w (using the fresh h). l2 and grnmf keep rho at -1 and sigma at
    inf; kl runs the divergence updates and forms no squared residual. The
    tracked objective is dual_objective for the squared-error family and,
    for kl, the generalized KL divergence sum(x log(x / v) - x + v) with
    v = h @ w, where entries with x == 0 contribute v. Iteration stops when
    the objective's per-iteration change, relative to its value at the
    initializers, falls below cfg.tol, or when cfg.max_iter is reached.
    Entry 0 of the trace, the objective at the initializers, is checked like
    every later entry, so a start whose objective is not finite is a
    NumericalError. EPSILON guards every denominator and floors sigma.

    h and w are updated in their own buffers, copies of h0 and w0. After
    each W step, and at the start, the squared-error variants form the
    iterate's D x K products x @ w.T and h @ w @ w.T once. They give the
    per-row squared residuals r2 by the trace identity, with no D x N array
    (rows whose r2 cancels to rounding level are summed from their explicit
    residual), and the next H step reads them again. The tracked fit is the
    weighted sum of r2; mcc's and mccgr's next sigma and rho follow from r2.
    The row weights scale the D x K product of the W step, never x itself.
    With a graph, w @ A is formed once after each W step: it gives that
    iteration's penalty and the next W step's numerator, and no Laplacian
    is built. kl works in two D x N buffers: its objective's h @ w is the
    next step's reconstruction, and its divergence reads x only through one
    dot product with log(h @ w). Inputs are validated here once. The
    squared-error results equal bit for bit a loop that calls the public
    update_h, update_w and dual_objective, which run the same kernels, and
    recomputes mcc's and mccgr's sigma and rho in plain numpy.

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
    x, h, w = _check_factors(x, h0, w0, cfg.k, ("h0", "w0"))
    if np.any(h <= 0) or np.any(w <= 0):
        raise DataError("initializers must be strictly positive")
    h, w = h.copy(), w.copy()
    plan, adeg = _graph_terms(cfg.graph_weight, graph, *w.shape)
    live_rho = cfg.variant in ("mcc", "mccgr")
    kl = cfg.variant == "kl"

    if kl:
        c, log_v = _kl_start(x)
        v = np.empty_like(x)
        hs, ws = h.sum(axis=0), w.sum(axis=1)
    else:
        xsq = np.einsum("ij,ij->i", x, x)
        low = _CANCEL * xsq
        xw, hww = _products(x, h, w)
        r2 = _gram_r2(x, h, w, xw, hww, xsq, low)
    neg = np.ones(x.shape[0])
    sigma = np.inf
    trace: list[float] = []
    iterates: list[tuple[np.ndarray, np.ndarray]] | None = [] if record_iterates else None
    converged = False
    # Iteration 0 evaluates the initializers: its E-step is the one the first
    # M-step uses, and its objective is the scale of every later change.
    for iterations in range(cfg.max_iter + 1):
        if live_rho:
            sigma = _sigma(r2, cfg.theta)
            neg = -_rho(r2, sigma)
        if iterations:
            if kl:
                hs, ws = _kl_step(x, h, w, v, ws)
            else:
                _update_h(h, xw, hww)
                _update_w(x, h, w, neg, wa, adeg)
                xw, hww = _products(x, h, w)
                r2 = _gram_r2(x, h, w, xw, hww, xsq, low)
        if kl:
            value = _kl_divergence(x, c, h, w, v, log_v, hs, ws)
        else:
            wa = _times_affinity(w, plan)
            value = _objective(neg, r2, w, wa, adeg)
        if not math.isfinite(value):
            raise NumericalError(f"objective became non-finite at iteration {iterations}")
        trace.append(value)
        if not iterations:
            continue
        if iterates is not None:
            iterates.append((h.copy(), w.copy()))
        # Per-iteration change is judged against the starting objective, not
        # the current one: objectives with a zero infimum shrink geometrically
        # forever, so a change relative to the previous value would never
        # settle even at machine-precision reconstructions.
        diff = abs(value - trace[-2])
        if diff == 0.0:
            rel = 0.0
        elif trace[0] == 0.0:
            rel = np.inf
        else:
            rel = diff / abs(trace[0])
        if rel < cfg.tol:
            converged = True
            break
    return Factorization(
        h=h,
        w=w,
        rho=-neg,
        sigma=sigma,
        trace=np.array(trace),
        iterations_run=iterations,
        converged=converged,
        iterates=iterates,
    )
