"""Cap-configuration maximization and the kissing-number contradiction check.

The optimization: place m unit vectors y_1..y_m inside the spherical cap
e1 . y <= t0, with pairwise inner products at most 1/2, to maximize
sum_j g(e1 . y_j). For any N-point code with products in [-1, 1/2] and
g <= epsilon on [t0, 1/2], R_g(C) is at most the maximum over m = 0..mu
of that value plus (N - 1 - m) epsilon: each of the N - 1 - m points
outside the cap around -u contributes at most epsilon to the energy seen
from u, and an average never exceeds a maximum.

The cap constraints are written once, in _residuals, over (..., m, n)
arrays of configurations; the ranking of all starts and the two stacked
SLSQP constraints of the polish are built from it.

Multistart local search only: found maxima are lower estimates of the true
cap optimum, and verdicts derived from them say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .bounds import DDCertificate, dd_bound
from .errors import ParameterError, PreconditionError
from .gegenbauer import GegenbauerExpansion
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

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "value": self.value,
            "configuration": [[float(x) for x in row] for row in self.configuration],
            "polished": self.polished,
            "feasible": self.feasible,
            "failed": self.failed,
            "at_best": self.at_best,
        }


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


def _residual_jacobians(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of both parts of _residuals for one (m, n) configuration,
    with respect to its flattened coordinates: (m, m*n) and
    (m + m(m-1)/2, m*n)."""
    m, n = Y.shape
    rows = np.arange(m)
    iu, ju = _pairs(m)
    pair_rows = np.arange(m, m + iu.size)
    eq = np.zeros((m, m, n))
    eq[rows, rows] = 2.0 * Y
    ineq = np.zeros((m + iu.size, m, n))
    ineq[rows, rows, 0] = -1.0
    ineq[pair_rows, iu] = -Y[ju]
    ineq[pair_rows, ju] = -Y[iu]
    return eq.reshape(m, m * n), ineq.reshape(-1, m * n)


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
    """SLSQP refinement of one (m, n) configuration under the two stacked
    constraints of _residuals. Returns the configuration, or None unless
    feasible to FEASIBILITY_TOL, and whether SLSQP reported success."""
    shape = Y.shape
    dg = g.derivative()

    def neg_obj_grad(x):
        out = np.zeros(shape)
        out[:, 0] = -dg.eval(np.clip(x.reshape(shape)[:, 0], -1.0, 1.0))
        return out.ravel()

    cons = [{"type": "eq", "fun": lambda x: _residuals(x.reshape(shape), t0)[0],
             "jac": lambda x: _residual_jacobians(x.reshape(shape))[0]},
            {"type": "ineq", "fun": lambda x: _residuals(x.reshape(shape), t0)[1],
             "jac": lambda x: _residual_jacobians(x.reshape(shape))[1]}]
    res = minimize(lambda x: -float(_value(x.reshape(shape), g)), Y.ravel(),
                   jac=neg_obj_grad, method="SLSQP", constraints=cons,
                   options={"maxiter": 300, "ftol": 1e-14})
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
        raise RuntimeError(
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
    [t0, 1/2] (never below 0). So R_g <= U' = max_m (cap_m + (N-1-m)
    epsilon), the charged_best. verdict CONTRADICTION means U' < B(N) -
    margin: no such code exists provided the multistart maxima cap_m are
    the true ones. best_value and best_m are the uncharged maximum; the
    margin and the heuristic status are part of the report.
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
    heuristic: str = field(
        default="cap maxima are multistart estimates, not certified global optima"
    )

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "N": self.N,
            "bound": self.bound,
            "cap_values": self.cap_values,
            "best_value": self.best_value,
            "best_m": self.best_m,
            "epsilon": self.epsilon,
            "charged_values": self.charged_values,
            "charged_best": self.charged_best,
            "margin": self.margin,
            "mu": self.mu,
            "t0": self.t0,
            "sign_check": self.sign_check.to_dict(),
            "heuristic": self.heuristic,
        }


def kissing_check(g: GegenbauerExpansion, M: float, t0: float, mu: int, N: int,
                  starts: int = DEFAULT_STARTS, seed: int = 0,
                  margin: float = 1e-3) -> KissingReport:
    """Compare the charged cap optimum U' against B(N) = (N - M)/(3N).

    B(N) is bounds.dd_bound of the scalar certificate (g, [-1, 1/2], M).
    Requires g <= 0 (within SIGN_CHECK_TOL) on [t0, 1/2], checked in
    certified mode at grid step 1e-6 before any optimization; refuses to
    run otherwise. The tolerated excess epsilon is charged to every point
    outside the cap (see KissingReport). Emits CONTRADICTION when
    U' < B(N) - margin, else INCONCLUSIVE.
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
    values = []
    best_value, best_m = -np.inf, 0
    for m in range(mu + 1):
        res = cap_max(CapProblem(g.n, g, t0, m, mu), starts=starts, seed=seed + m)
        values.append(res.value)
        if res.value > best_value:
            best_value, best_m = res.value, m
    epsilon = max(sign.worst_violation, 0.0)
    charged = [v + (N - 1 - m) * epsilon for m, v in enumerate(values)]
    verdict = "CONTRADICTION" if max(charged) < bound - margin else "INCONCLUSIVE"
    return KissingReport(verdict, N, bound, values, best_value, best_m, epsilon,
                         charged, max(charged), margin, mu, t0, sign)
