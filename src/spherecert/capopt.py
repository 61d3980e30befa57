"""Cap-configuration maximization and the kissing-number contradiction check.

The optimization: place m unit vectors y_1..y_m inside the spherical cap
e1 . y <= t0, with pairwise inner products at most 1/2, to maximize
sum_j g(e1 . y_j). For any N-point code with products in [-1, 1/2] and
g <= epsilon on [t0, 1/2], R_g(C) is at most the maximum over m = 0..mu
of that value plus max(N - 1 - m, 0) epsilon: each of the N - 1 - m
points outside the cap around -u contributes at most epsilon to the
energy seen from u, and an average never exceeds a maximum.

The cap constraints are written in _residuals over (..., m, n) arrays of
configurations, which rank all starts and judge feasibility. The SLSQP
polish writes the same entries, from the same Gram product, in place
into the buffers of scipy's compiled SLSQP core, which minimize drives
without scipy's per-iterate wrappers.

Multistart local search only: found maxima are lower estimates of the true
cap optimum, and verdicts derived from them say so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .bounds import DDCertificate, dd_bound
from .errors import CapabilityError, ParameterError, PreconditionError
from .gegenbauer import GegenbauerExpansion, _eval_floats
from .verify import CERTIFIED, DomainSpec, ViolationReport, check_sign

__all__ = ["CapProblem", "CapResult", "cap_max", "kissing_check", "KissingReport"]

SIGN_CHECK_TOL = 5e-3
FEASIBILITY_TOL = 1e-9
AT_BEST_TOL = 1e-6
DEFAULT_STARTS = 200


@dataclass
class CapProblem:
    """m points in the cap e1.y <= t0 of the unit sphere in R^n, pairwise
    products at most 1/2; mu is the externally supplied cap capacity."""

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
    """Best configuration found, with counts over the SLSQP polishes that
    gauge how far to trust the multistart maximum: runs made, runs ending
    feasible to FEASIBILITY_TOL, runs SLSQP itself reported as failed, and
    feasible runs within AT_BEST_TOL of the best value."""

    value: float
    configuration: np.ndarray  # (m, n) unit vectors
    m: int
    polished: int = 0
    feasible: int = 0
    failed: int = 0
    at_best: int = 0

    def counts(self) -> dict:
        return {"polished": self.polished, "feasible": self.feasible,
                "failed": self.failed, "at_best": self.at_best}


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


def _polish(Y: np.ndarray, g: GegenbauerExpansion,
            t0: float) -> tuple[np.ndarray | None, bool]:
    """SLSQP refinement of one (m, n) configuration under the constraints
    of _residuals. Returns the configuration, or None unless feasible to
    FEASIBILITY_TOL, and whether SLSQP reported success.

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
    feasible = _constraint_violation(out, t0) <= FEASIBILITY_TOL
    return (out if feasible else None), bool(res.success)


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
    values, failed = [], 0
    for idx in candidates:
        cfg, success = _polish(Y[idx], g, t0)
        failed += not success
        if cfg is None:
            continue
        val = float(_value(cfg, g))
        values.append(val)
        if val > best_val:
            best_val, best_cfg = val, cfg
    if best_cfg is None:
        raise CapabilityError(
            f"no feasible configuration found for m={m}; try more starts"
        )
    at_best = sum(v >= best_val - AT_BEST_TOL for v in values)
    return CapResult(best_val, best_cfg, m, polished=len(candidates),
                     feasible=len(values), failed=failed, at_best=at_best)


@dataclass
class KissingReport:
    """Outcome of the cap-versus-distance-distribution comparison.

    For a point u of an (N, n, [-1, 1/2]) code, the m other points in the
    cap around -u contribute at most cap_m to its g-energy, and each of the
    N - 1 - m others lies where g <= epsilon, the certified bound of g on
    [t0, 1/2] (never below 0). So R_g <= U' = max_m (cap_m + max(N-1-m, 0)
    epsilon), the charged_best; an m above N - 1 has no one left outside
    the cap to charge. verdict CONTRADICTION means U' < B(N) - margin
    with mu >= n and t0 <= -1/sqrt(2), the latter decided exactly: such a
    cap holds at most n points (_rankin_capacity_applies), so m = 0..mu
    leaves no configuration out, and no such code exists provided the
    multistart maxima cap_m are the true ones. With a smaller mu or a
    higher t0 the verdict is INCONCLUSIVE whatever U' is: the caller's mu
    may undercount the cap. best_value and best_m are the uncharged
    maximum; the margin and the heuristic status are part of the report,
    and polish_counts gives each m's CapResult counts.
    """

    verdict: str
    N: int
    bound: float
    cap_values: list[float]
    best_value: float
    best_m: int
    epsilon: float
    charged_values: list[float]
    charged_best: float
    margin: float
    mu: int
    t0: float
    sign_check: ViolationReport
    polish_counts: list[dict]
    heuristic: str = field(
        default="cap maxima are multistart estimates, not certified global optima"
    )

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


def kissing_check(g: GegenbauerExpansion, M: float, t0: float, mu: int, N: int,
                  starts: int = DEFAULT_STARTS, seed: int = 0,
                  margin: float = 1e-3) -> KissingReport:
    """Compare the charged cap optimum U' against B(N) = (N - M)/(3N).

    B(N) is bounds.dd_bound of the scalar certificate (g, [-1, 1/2], M).
    Requires g <= 0 (within SIGN_CHECK_TOL) on [t0, 1/2], checked in
    certified mode at grid step 1e-6 before any optimization; refuses to
    run otherwise. The tolerated excess epsilon is charged to every point
    outside the cap (see KissingReport). Emits CONTRADICTION when
    U' < B(N) - margin, mu >= n and _rankin_capacity_applies(t0), else
    INCONCLUSIVE.
    """
    if not 0.0 <= margin < np.inf:
        raise ParameterError(f"margin must be finite and >= 0, got {margin}")
    CapProblem(g.n, g, t0, 0, mu)  # checks t0 and mu before the sweep
    bound = dd_bound(DDCertificate(g, (-1.0, 0.5), M=M), N)
    sign = check_sign(g, (t0, 0.5), DomainSpec(grid_step=1e-6, mode=CERTIFIED))
    if sign.worst_violation > SIGN_CHECK_TOL:
        raise PreconditionError(
            f"g exceeds 0 by {sign.worst_violation:g} on [{t0}, 0.5] "
            f"(tolerance {SIGN_CHECK_TOL:g}); the cap reduction does not apply"
        )
    values, counts = [], []
    best_value, best_m = -np.inf, 0
    for m in range(mu + 1):
        res = cap_max(CapProblem(g.n, g, t0, m, mu), starts=starts, seed=seed + m)
        values.append(res.value)
        counts.append(res.counts())
        if res.value > best_value:
            best_value, best_m = res.value, m
    epsilon = max(sign.worst_violation, 0.0)
    charged = [v + max(N - 1 - m, 0) * epsilon for m, v in enumerate(values)]
    decided = mu >= g.n and _rankin_capacity_applies(t0)
    verdict = "CONTRADICTION" if decided and max(charged) < bound - margin else "INCONCLUSIVE"
    return KissingReport(verdict, N, bound, values, best_value, best_m, epsilon,
                         charged, max(charged), margin, mu, t0, sign, counts)
