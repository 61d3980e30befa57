"""The kissing-number contradiction check, and multistart cap maximization.

The cap problem: place m unit vectors y_1..y_m inside the spherical cap
e1 . y <= t0, with pairwise inner products at most 1/2, to maximize
sum_j g(e1 . y_j). For any N-point code with products in [-1, 1/2] and
g <= epsilon on [t0, 1/2], R_g(C) is at most the maximum over m = 0..n
of that value plus max(N - 1 - m, 0) epsilon: for t0 <= -1/sqrt(2) the
open cap around -u holds at most n points of the code, each of the
N - 1 - m others contributes at most epsilon to the energy seen from u,
and an average never exceeds a maximum.

kissing_check bounds each cap maximum by a certified sweep over the
heights t_j = e1 . y_j alone (_cap_sweep). For t0 <= -1/sqrt(2), heights
t_1..t_m are those of a configuration if and only if the matrix C(t) of
_cap_matrix is positive semidefinite (m <= n), and C grows entrywise in
every t_j; so a box of heights is empty when C at its upper corner is
certified not PSD, and a box centre whose C is certified positive
definite is a feasible configuration, a lower witness.

cap_max is a multistart search: batched penalty ascent, then an SLSQP
polish that writes the constraints of _residuals, from the same Gram
product, in place into the buffers of scipy's compiled SLSQP core, which
minimize drives without scipy's per-iterate wrappers. Its maxima are
lower estimates of the true cap optimum; no verb runs it, and the tests
compare it with the sweep's bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .bounds import DDCertificate, dd_bound
from .errors import CapabilityError, ParameterError, PreconditionError
from .gegenbauer import GegenbauerExpansion, _eval_floats
from .verify import (
    _MID_SLACK,
    _U,
    CERTIFIED,
    DomainSpec,
    ViolationReport,
    _bisect,
    _clenshaw_err,
    _taylor,
    check_sign,
)

__all__ = ["CapProblem", "CapResult", "cap_max", "kissing_check", "KissingReport"]

SIGN_CHECK_TOL = 5e-3
FEASIBILITY_TOL = 1e-9
DEFAULT_STARTS = 200
# The height sweep starts from the one box [-1, t0]^m, so that no level
# before the budget's check is large, and halves it at most _CAP_LEVELS
# times; the envelope of g holds its bounds on all 2^13 = 8,192 finest
# cells (64 KB, 128 KB with the coarser levels; building it peaks at about
# 0.5 MB).
_CAP_LEVELS = 13
# Most boxes one level of a height sweep may hold: at m = 4 each box costs
# about 1 KB while its level runs.
_CAP_BUDGET = 2 ** 14


@dataclass
class CapProblem:
    """m points in the cap e1.y <= t0 of the unit sphere in R^n, pairwise
    products at most 1/2; m may not exceed the cap capacity mu."""

    n: int
    g: GegenbauerExpansion
    t0: float
    m: int
    mu: int

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError("cap problems need dimension >= 3")
        if not (-1.0 < self.t0 < -0.5):
            raise ParameterError(f"t0 must lie in (-1, -1/2), got {self.t0}")
        if self.mu < 0:
            raise ParameterError("cap capacity mu must be >= 0")
        if not (0 <= self.m <= self.mu):
            raise ParameterError(f"m must satisfy 0 <= m <= mu = {self.mu}, got {self.m}")
        if self.g.n != self.n:
            raise ParameterError("expansion dimension must match the problem dimension")


@dataclass
class CapResult:
    """Best configuration cap_max found, and its value."""

    value: float
    configuration: np.ndarray  # (m, n) unit vectors
    m: int


def minimize(values, normals, x0: np.ndarray, C: np.ndarray, d: np.ndarray,
             meq: int, maxiter: int, ftol: float) -> SimpleNamespace:
    """SLSQP (Kraft, DFVLR-FB 88-28, 1988) from x0 under d[:meq] == 0 and
    d[meq:] >= 0: the loop scipy.optimize's _minimize_slsqp runs around
    the compiled core, with its state, workspace sizes and NaN (absent)
    bounds, but without its per-iterate wrappers.

    values(x) writes the constraint values into d and returns the
    objective; normals(x) writes the constraint rows into C (Fortran order,
    d.size by x0.size) and returns the objective's gradient. The core reads
    both buffers and writes neither, so a callback is skipped while its
    buffers hold the numbers of an x equal in value to the current one.
    values runs when scipy's ScalarFunction would evaluate the objective,
    after any move of x, and nfev counts it as scipy does; normals runs
    when x differs from where it last ran, which saves the rows when the
    core returns to its iterate after a failed line search. scipy is
    imported on the first call: the polish is its only user in the package.
    The core, scipy.optimize._slsqplib.slsqp, is private and has this
    signature from scipy 1.16 on; tests compare runs of this loop on
    seeded cap problems with scipy.optimize.minimize, bit for bit.
    """
    from scipy.optimize._slsqplib import slsqp
    x = np.array(x0, dtype=float)  # the core iterates in place
    n, m = x.size, d.size
    state = {"acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
             "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * ftol, "exact": 0,
             "inconsistent": 0, "reset": 0, "iter": 0, "itermax": maxiter, "line": 0,
             "m": m, "meq": meq, "mode": 0, "n": n}
    size = (n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * meq + 9 * m + 8 * n * n
            + 35 * n + meq * meq + 28 + (2 * n * (n + 1) if m == meq else 0))
    buffer = np.zeros(max(size, 1))
    indices = np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32)
    mult = np.zeros(max(1, m + 2 * n + 2))
    xl = np.full(n, np.nan)
    xu = np.full(n, np.nan)
    fx, grad = values(x), normals(x)
    nfev, seen, f_fresh, g_at = 1, x.tolist(), True, x.tolist()
    while True:
        slsqp(state, fx, grad, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if abs(mode) != 1:
            break
        # list equality is array_equal's: NaN differs from itself, -0.0 == 0.0
        if (now := x.tolist()) != seen:
            seen, f_fresh = now, False
        if mode == 1 and not f_fresh:
            fx, f_fresh = values(x), True
            nfev += 1
        elif mode == -1 and now != g_at:
            grad, g_at = normals(x), now
    return SimpleNamespace(x=x, status=mode, success=mode == 0, nit=state["iter"],
                           nfev=nfev)


@lru_cache(maxsize=None)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(m, 1), cached: building it costs more than _residuals."""
    return np.triu_indices(m, 1)


def _residuals(Y: np.ndarray, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Cap constraints of (..., m, n) configurations as SLSQP residuals:
    eq == 0 is the unit norms (Gram diagonal minus 1); ineq >= 0 is cap
    membership t0 - y_j[0], then 1/2 - y_i . y_j over _pairs(m). The Gram
    matrix is a BLAS product: SLSQP at ftol=1e-14 amplifies last-bit changes."""
    gram = Y @ np.swapaxes(Y, -1, -2)
    iu, ju = _pairs(Y.shape[-2])
    eq = np.diagonal(gram, axis1=-2, axis2=-1) - 1.0
    ineq = np.concatenate([t0 - Y[..., 0], 0.5 - gram[..., iu, ju]], axis=-1)
    return eq, ineq


def _constraint_violation(Y: np.ndarray, t0: float) -> np.ndarray:
    """Worst cap-constraint violation of each (..., m, n) configuration, >= 0."""
    eq, ineq = _residuals(Y, t0)
    return np.maximum(np.max(np.abs(eq), axis=-1, initial=0.0),
                      np.max(-ineq, axis=-1, initial=0.0))


def _project_cap(Y: np.ndarray, t0: float) -> np.ndarray:
    """Renormalize the points of (..., m, n) configurations and pull any
    point outside the cap to its boundary along its meridian."""
    Y = Y / np.linalg.norm(Y, axis=-1, keepdims=True)
    outside = Y[..., 0] > t0
    rest = Y[outside, 1:]
    # a point at +-e1 has no meridian; give it a fixed one
    degenerate = np.linalg.norm(rest, axis=-1) < 1e-14
    rest[degenerate] = 0.0
    rest[degenerate, 0] = 1.0
    Y[outside, 0] = t0
    Y[outside, 1:] = rest / np.linalg.norm(rest, axis=-1, keepdims=True) * np.sqrt(1.0 - t0 * t0)
    return Y


def _value(Y: np.ndarray, g: GegenbauerExpansion) -> np.ndarray:
    """sum_j g(e1 . y_j) of each (..., m, n) configuration."""
    return np.sum(g.eval(np.clip(Y[..., 0], -1.0, 1.0)), axis=-1)


def _penalty_ascent(Y: np.ndarray, g: GegenbauerExpansion, t0: float,
                    rho: float, iters: int, step: float) -> np.ndarray:
    """Batched projected gradient ascent with a quadratic pairwise penalty.

    Y has shape (batch, m, n); the cap and norm constraints are kept by
    projection after every step.
    """
    dg = g.derivative()
    m = Y.shape[1]
    for _ in range(iters):
        grad = np.zeros_like(Y)
        grad[:, :, 0] = dg.eval(np.clip(Y[:, :, 0], -1.0, 1.0))
        if m > 1:
            gram = np.einsum("bik,bjk->bij", Y, Y)
            excess = np.maximum(gram - 0.5, 0.0)
            excess[:, np.arange(m), np.arange(m)] = 0.0
            grad -= 2.0 * rho * np.einsum("bij,bjk->bik", excess, Y)
        grad -= np.sum(grad * Y, axis=2, keepdims=True) * Y  # tangent part
        Y = _project_cap(Y + step * grad, t0)
    return Y


def _polish(Y: np.ndarray, g: GegenbauerExpansion, t0: float) -> np.ndarray | None:
    """SLSQP refinement of one (m, n) configuration under the constraints
    of _residuals. Returns the configuration, or None unless feasible to
    FEASIBILITY_TOL.

    minimize drives the core with two callbacks that write its buffers in
    place. values fills d with _residuals' entries, from the same Gram
    product, and returns -sum_j g(h_j), summed left to right as np.sum
    sums fewer than 8 values. normals returns the gradient and rewrites
    only the 2 y and -y entries of C: the cap rows' -1 and the zeros are
    set once per polish. Both evaluate g or g' by one Python-float
    Clenshaw pass over the m heights, the same values, bit for bit, as
    _value and eval on arrays, so SLSQP takes the same path."""
    shape = Y.shape
    m, n = shape
    dg = g.derivative()
    iu, ju = _pairs(m)
    rows = 2 * m + iu.size
    d = np.empty(rows)
    eq, cap, pair = d[:m], d[m:2 * m], d[2 * m:]
    C = np.zeros((rows, m * n), order="F")
    C[m + np.arange(m), np.arange(m) * n] = -1.0
    # the entries normals rewrites, at C_flat[at] = x[src] * scale: eq row j
    # holds 2 y_j in block j, pair row (i, j) holds -y_j in block i and -y_i
    # in block j; C is Fortran-ordered, so row r, column c is at r + c rows
    block = np.arange(m * n).reshape(m, n)
    pair_rows = np.repeat(np.arange(2 * m, rows), n)
    at = np.concatenate([np.repeat(np.arange(m), n) + block.ravel() * rows,
                         pair_rows + block[iu].ravel() * rows,
                         pair_rows + block[ju].ravel() * rows])
    src = np.concatenate([block.ravel(), block[ju].ravel(), block[iu].ravel()])
    scale = np.repeat([2.0, -1.0], [m * n, 2 * iu.size * n])
    C_flat = C.reshape(-1, order="F")
    grad = np.zeros(m * n)

    def heights(x):
        # np.clip(x[0::n], -1, 1) in Python floats; a NaN stays NaN
        return [min(max(h, -1.0), 1.0) for h in x[0::n].tolist()]

    def values(x):
        cfg = x.reshape(shape)
        gram = cfg @ cfg.T
        np.subtract(gram.diagonal(), 1.0, out=eq)
        np.subtract(t0, x[0::n], out=cap)
        np.subtract(0.5, gram[iu, ju], out=pair)
        total = 0.0
        for v in _eval_floats(g, heights(x)):
            total += v
        return -total

    def normals(x):
        grad[0::n] = [-v for v in _eval_floats(dg, heights(x))]
        C_flat[at] = x[src] * scale
        return grad

    res = minimize(values, normals, Y.ravel(), C, d, m, maxiter=300, ftol=1e-14)
    out = res.x.reshape(shape)
    out = out / np.linalg.norm(out, axis=1, keepdims=True)
    # pull marginal cap violations (rounding scale) back onto the boundary
    if _constraint_violation(out, t0) <= 1e-7:
        out = _project_cap(out, t0)
    return out if _constraint_violation(out, t0) <= FEASIBILITY_TOL else None


def _sample_cap(rng: np.random.Generator, count: int, m: int, n: int,
                t0: float) -> np.ndarray:
    """Random configurations in the cap: height uniform on [-1, t0],
    direction uniform on the equatorial sphere."""
    s = rng.uniform(-1.0, t0, size=(count, m, 1))
    w = rng.normal(size=(count, m, n - 1))
    w /= np.linalg.norm(w, axis=2, keepdims=True)
    return np.concatenate([s, np.sqrt(1.0 - s * s) * w], axis=2)


def cap_max(problem: CapProblem, starts: int = DEFAULT_STARTS,
            seed: int = 0) -> CapResult:
    """Best found value of sum_j g(e1 . y_j) over feasible configurations.

    Multistart: batched penalty-ramped projected gradient ascent from
    seeded random starts, then constrained polish of the leading
    candidates, ranked by value minus 1e3 times constraint violation.
    Deterministic for fixed (problem, starts, seed). The result is a lower
    estimate of the true cap optimum.
    """
    if starts < 1:
        raise ParameterError("starts must be >= 1")
    m, n = problem.m, problem.n
    if m == 0:
        return CapResult(0.0, np.zeros((0, n)), 0)
    g, t0 = problem.g, problem.t0
    rng = np.random.default_rng(seed)
    Y = _sample_cap(rng, starts, m, n, t0)
    for rho, iters, step in ((50.0, 60, 0.02), (500.0, 60, 0.004), (5e3, 80, 5e-4)):
        Y = _penalty_ascent(Y, g, t0, rho, iters, step)
    scores = _value(Y, g) - 1e3 * _constraint_violation(Y, t0)
    order = np.argsort(-scores, kind="stable")
    candidates = order[: max(10, starts // 10)]
    best_val = -np.inf
    best_cfg = None
    for idx in candidates:
        cfg = _polish(Y[idx], g, t0)
        if cfg is None:
            continue
        val = float(_value(cfg, g))
        if val > best_val:
            best_val, best_cfg = val, cfg
    if best_cfg is None:
        raise CapabilityError(
            f"no feasible configuration found for m={m}; try more starts"
        )
    return CapResult(best_val, best_cfg, m)


def _cap_matrix(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(t) for a (batch, m) array of heights in (-1, t0], t0 <= -1/sqrt(2),
    and a bound on the rounding error of each of its entries.

    C has unit diagonal and c_ij = (1/2 - t_i t_j)/(s_i s_j), s_j^2 =
    1 - t_j^2, computed as (1 - t)(1 + t). Rounding: 1 + t is exact
    (Sterbenz), so s_j^2 carries relative error 2u; the product of two and
    its square root put s_i s_j within 4u relatively. t_i t_j lies in
    [1/2, 1], so it errs by at most u and 1/2 minus it is exact (Sterbenz).
    The quotient then errs by at most u/(s_i s_j) + 6u|c_ij| plus terms of
    order u^2, which 2u/den + 8u|c| covers, den the computed s_i s_j.
    """
    s2 = (1.0 - t) * (1.0 + t)
    den = np.sqrt(s2[:, :, None] * s2[:, None, :])
    C = (0.5 - t[:, :, None] * t[:, None, :]) / den
    err = 2.0 * _U / den + 8.0 * _U * np.abs(C)
    diag = np.arange(t.shape[1])
    C[:, diag, diag] = 1.0
    err[:, diag, diag] = 0.0
    return C, err


def _cholesky(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floating-point Cholesky A = R^T R of a (batch, m, m) stack, in
    elementwise numpy (no BLAS or LAPACK, so no thread count changes a
    bit). Returns R and, per matrix, the first index whose pivot is not
    positive (m where there is none); such pivots are replaced by 1 in R,
    which keeps the rest of R finite."""
    m = A.shape[1]
    R = np.zeros_like(A)
    fail = np.full(len(A), m)
    for j in range(m):
        pivot = A[:, j, j] - np.sum(R[:, :j, j] ** 2, axis=1)
        fail[(fail == m) & ~(pivot > 0.0)] = j
        R[:, j, j] = np.sqrt(np.where(pivot > 0.0, pivot, 1.0))
        R[:, j, j + 1:] = (A[:, j, j + 1:] - np.sum(R[:, :j, j, None] * R[:, :j, j + 1:], axis=1)
                           ) / R[:, j, j, None]
    return R, fail


def _certified_pd(C: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Whether each exact matrix within err of the unit-diagonal C is
    positive definite.

    The shift tau = u + 2 sum err bounds ||exact - C||_2 <= ||.||_F <=
    sum err, plus the u of rounding 1 - tau, so H, C with diagonal
    fl(1 - tau), is PD only if the exact matrix is. H is proven PD by S.
    M. Rump's test (BIT 46, 2006): floating-point Cholesky of fl(H - cI)
    runs to completion, with c = gamma_{m+1}/(1 - 2 gamma_{m+1}) tr(H) +
    4(m+1)(2(m+2) + max h_ii) eta, eta the smallest subnormal; tr(H) <= m
    and h_ii <= 1, so 2(m+1) m u exceeds it."""
    m = C.shape[1]
    tau = _U + 2.0 * np.sum(err, axis=(1, 2))
    H = C.copy()
    diag = np.arange(m)
    H[:, diag, diag] = ((1.0 - tau) - 2.0 * (m + 1) * m * _U)[:, None]
    return _cholesky(H)[1] == m


def _certified_not_psd(C: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Whether each exact matrix within err of C is certified not PSD by a
    vector x with x^T C x < 0.

    Where C's Cholesky stops at pivot k, x = (y, 1, 0, ...) with R y =
    -R[:k, k] on the leading block minimizes x^T C x to that pivot in
    exact arithmetic. x is then checked whatever its own rounding: the
    computed q = sum x_i x_j c_ij errs by at most (m^2 + 2)u sum |x_i x_j
    c_ij|, and the exact matrix adds at most sum |x_i x_j| err_ij; q plus
    twice both still below 0 proves it."""
    m = C.shape[1]
    R, stop = _cholesky(C)
    x = (np.arange(m) == stop[:, None]).astype(float)  # e_k; 0 where none stopped
    for j in reversed(range(m)):
        y = -np.sum(R[:, j, j + 1:] * x[:, j + 1:], axis=1) / R[:, j, j]
        x[:, j] = np.where(j < stop, y, x[:, j])
    xx = x[:, :, None] * x[:, None, :]
    q = np.sum(C * xx, axis=(1, 2))
    slack = np.sum(((m * m + 2) * _U * np.abs(C) + err) * np.abs(xx), axis=(1, 2))
    return q + 2.0 * slack < 0.0


def _envelope(g: GegenbauerExpansion, t0: float) -> list[np.ndarray]:
    """Certified upper bounds of g on the dyadic cells of [-1, t0], level
    by level: entry i of level k bounds g on cell i of 2^k.

    The finest level has w = (t0 + 1)/cells; 1 + t0 is exact (Sterbenz)
    and so is the division by a power of two, so its cell i is exactly
    [-1 + i w, -1 + (i + 1) w], as is every cell of the sweep at its own
    level. Each gets verify._taylor's bound at its midpoint plus r, rounded
    up by one ulp, which covers the rounding of that sum. A coarser entry
    is the max of the two below it, which is exact.
    """
    cells = 1 << _CAP_LEVELS
    width = (t0 + 1.0) / cells
    rho = width / 2.0 + _MID_SLACK
    taylor, r = _taylor(g, rho)
    _, bound = taylor(-1.0 + (2 * np.arange(cells) + 1) * (width / 2.0), rho)
    levels = [np.nextafter(bound + r, np.inf)]
    while len(levels[-1]) > 1:
        levels.append(np.maximum(levels[-1][0::2], levels[-1][1::2]))
    return levels[::-1]


def _cap_sweep(g: GegenbauerExpansion, envelope: list[np.ndarray], t0: float, m: int,
               threshold: float) -> tuple[ViolationReport, dict]:
    """Decide whether the m-point cap value, m <= n, can exceed threshold,
    by verify._bisect over the sorted boxes t_1 <= ... <= t_m of [-1, t0]^m.

    A box is pruned when C at its upper corner (the centre plus the
    widened half-width, at most t0: above the exact corner) is
    _certified_not_psd. On [-1, t0] C is a Z-matrix and grows entrywise in
    every t_j. Feasible heights t have C(t) entrywise above the PSD Gram
    matrix W of their directions (W_ij <= c_ij <= 0), and a Z-matrix
    entrywise above a PSD Z-matrix is PSD; so C(t), and then C at the
    corner, would be PSD. The other boxes are bounded by the sum of their
    axes' envelope entries; the sum of m floats errs by at most (m - 1)u
    times their sum of magnitudes, and r = 2 m^2 u max |envelope| covers
    that and the final + r in _bisect. A box whose bound is at most
    threshold is dropped.

    A centre t with C(t) _certified_pd is a configuration: for m < n, C is
    itself the Gram matrix, of rank at most n - 1, of directions on
    S^(n-2); for m = n, lowering its off-diagonal entries together until it
    first turns singular gives one. Its value sum_j g(t_j) is lowered by
    m Clenshaw bounds plus the sum's rounding, doubled, and one ulp, so the
    sample is a certified lower bound. The sweep stops at the first above
    threshold. It also stops, with its sound upper bound, before a level
    of over _CAP_BUDGET boxes or after the finest level.

    Returns _bisect's report, whose worst_violation is the certified upper
    bound and sample_max the best witness, and the sweep's counts.
    """
    size = float(np.sum(np.abs(g.coeffs)))
    lowered = 2.0 * m * (_clenshaw_err(g.degree, size) + m * _U * size)
    counts = {"boxes": 0, "levels": 0, "psd_prunes": 0, "value_prunes": 0}
    left = 0  # boxes of the last level bounded above the threshold

    def level(mids, rho, idx):
        nonlocal left
        upper = np.sum(envelope[counts["levels"]][idx], axis=1)
        pruned = _certified_not_psd(*_cap_matrix(np.minimum(mids + rho, t0)))
        bound = np.where(pruned, -np.inf, upper)
        points = mids[_certified_pd(*_cap_matrix(mids))]
        vals = np.sum(g.eval(points), axis=1)
        counts["boxes"] += len(mids)
        counts["levels"] += 1
        counts["psd_prunes"] += int(np.sum(pruned))
        counts["value_prunes"] += int(np.sum(~pruned & (upper <= threshold)))
        left = int(np.sum(bound > threshold))
        return points, np.nextafter(vals - lowered, -np.inf), bound

    r = 2.0 * m * m * _U * float(np.max(np.abs(envelope[-1])))
    spec = DomainSpec(grid_step=(t0 + 1.0) / len(envelope[-1]), mode=CERTIFIED)
    report = _bisect(level, -1.0, t0 + 1.0, 1, _CAP_LEVELS, m, r, spec, f"cap:m={m}",
                     drop=threshold, stop=threshold, budget=_CAP_BUDGET)
    if report.sample_max > threshold:
        counts["ended"] = "refuted"
    elif left:
        counts["ended"] = "finest" if counts["levels"] > _CAP_LEVELS else "budget"
    else:
        counts["ended"] = "decided"
    return report, counts


@dataclass
class KissingReport:
    """Outcome of the cap-versus-distance-distribution comparison.

    For a point u of an (N, n, [-1, 1/2]) code, the m other points in the
    cap around -u contribute at most cap_m to its g-energy, and each of the
    N - 1 - m others lies where g <= epsilon, the certified bound of g on
    [t0, 1/2] (never below 0). So R_g <= U' = max_m (cap_m + max(N-1-m, 0)
    epsilon), the charged_best; an m above N - 1 has no one left outside
    the cap to charge.

    t0 <= -1/sqrt(2) is required, so the open cap holds at most mu = n
    points (_rankin_capacity_applies). cap_values holds, for m = 0..n, the
    certified upper bound of cap_m from _cap_sweep, or null where the sweep
    pruned every box: no m points fit. So best_value and best_m are the
    largest bound and its first m, uncharged. Each sweep only decides
    whether cap_m + max(N-1-m, 0) epsilon can reach B(N) - margin, so a
    bound lies anywhere below that threshold, not at cap_m; after a refuted
    sweep, cap_values and M_max are sound but show only where the sweep
    stopped. sweeps gives each m's boxes, levels, PSD and value prunes, its
    best witness (lower; null if none) and how it ended: decided (every box
    pruned), refuted (a witness above the threshold), budget (the next level
    would hold over _CAP_BUDGET boxes) or finest (boxes of the finest level
    are still bounded above the threshold). cap_lower
    is the witness, m >= 1, with the largest charged value: its m, value
    and heights, or null.

    verdict CONTRADICTION means U' < B(N) - margin: then no such code
    exists. M_max = N - 3N(U' + margin) is the largest M for which U' <
    B(N) - margin would hold.
    """

    verdict: str
    N: int
    bound: float
    cap_values: list[float | None]
    best_value: float
    best_m: int
    epsilon: float
    charged_values: list[float | None]
    charged_best: float
    margin: float
    mu: int
    t0: float
    sign_check: ViolationReport
    cap_lower: dict | None
    sweeps: list[dict]
    M_max: float

    def to_dict(self) -> dict:
        return asdict(self)


def _rankin_capacity_applies(t0: float) -> bool:
    """Whether the open cap e1.y < t0 holds at most n points: t0 <= -1/sqrt(2),
    decided in exact rationals.

    A code point at exactly t0 counts as outside the cap, since the sign
    check covers the closed [t0, 1/2] and charges it epsilon. Two cap
    points then have t_i t_j > t0^2 >= 1/2, so their components
    orthogonal to e1 make a strictly obtuse angle, and at most n
    directions in R^(n-1) are pairwise strictly obtuse (Rankin 1955)."""
    return t0 < 0 and Fraction(t0) ** 2 >= Fraction(1, 2)


def kissing_check(g: GegenbauerExpansion, M: float, t0: float, N: int,
                  margin: float = 1e-3) -> KissingReport:
    """Compare the charged cap bound U' against B(N) = (N - M)/(3N).

    B(N) is bounds.dd_bound of the scalar certificate (g, [-1, 1/2], M).
    Requires -1 < t0 <= -1/sqrt(2), decided exactly (ParameterError
    otherwise), and g <= 0 (within SIGN_CHECK_TOL) on [t0, 1/2], checked in
    certified mode at grid step 1e-6; refuses to run otherwise. Each m =
    1..n then gets one _cap_sweep against the threshold B(N) - margin -
    max(N - 1 - m, 0) epsilon, all sharing one _envelope of g. Emits
    CONTRADICTION when U' < B(N) - margin, else INCONCLUSIVE (see
    KissingReport).
    """
    if not 0.0 <= margin < np.inf:
        raise ParameterError(f"margin must be finite and >= 0, got {margin}")
    # -1 < t0 first: it refuses NaN, and Fraction(-inf) would overflow
    if not (-1.0 < t0 and _rankin_capacity_applies(t0)):
        raise ParameterError(
            f"t0 must lie in (-1, -1/sqrt(2)], got {t0}: above -1/sqrt(2) the cap has no "
            f"capacity bound and its heights do not decide feasibility")
    bound = dd_bound(DDCertificate(g, (-1.0, 0.5), M=M), N)
    sign = check_sign(g, (t0, 0.5), DomainSpec(grid_step=1e-6, mode=CERTIFIED))
    if sign.worst_violation > SIGN_CHECK_TOL:
        raise PreconditionError(
            f"g exceeds 0 by {sign.worst_violation:g} on [{t0}, 0.5] "
            f"(tolerance {SIGN_CHECK_TOL:g}); the cap reduction does not apply"
        )
    epsilon = max(sign.worst_violation, 0.0)
    envelope = _envelope(g, t0)
    thresholds = [bound - margin - max(N - 1 - m, 0) * epsilon for m in range(g.n + 1)]
    # the empty cap is a configuration of value 0
    values = [0.0]
    sweeps = [{"boxes": 0, "levels": 0, "psd_prunes": 0, "value_prunes": 0,
               "ended": "refuted" if 0.0 > thresholds[0] else "decided", "lower": 0.0}]
    witnesses = []  # (charged value, m, value, heights) of each m's best witness
    for m in range(1, g.n + 1):
        report, counts = _cap_sweep(g, envelope, t0, m, thresholds[m])
        upper = report.worst_violation
        values.append(upper if upper > -np.inf else None)
        lower = report.sample_max if report.location is not None else None
        sweeps.append({**counts, "lower": lower})
        if lower is not None:
            witnesses.append((lower + max(N - 1 - m, 0) * epsilon, m, lower, report.location))
    cap_lower = None
    if witnesses:
        _, m, lower, heights = max(witnesses)
        cap_lower = {"m": m, "value": lower, "heights": list(heights)}
    charged = [None if v is None else v + max(N - 1 - m, 0) * epsilon
               for m, v in enumerate(values)]
    best_m = max((m for m, v in enumerate(values) if v is not None), key=values.__getitem__)
    charged_best = max(c for c in charged if c is not None)
    verdict = "CONTRADICTION" if charged_best < bound - margin else "INCONCLUSIVE"
    return KissingReport(verdict, N, bound, values, values[best_m], best_m, epsilon, charged,
                         charged_best, margin, g.n, t0, sign, cap_lower, sweeps,
                         N - 3 * N * (charged_best + margin))
