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
heights t_j = e1 . y_j alone (_cap_sweep). For t0 <= -1/sqrt(2) and m <=
n, heights t_1..t_m are those of a configuration if and only if q(t) <= 1
(_q), a set upward closed in [-1, t0]^m; so a box of heights is empty when
q > 1 at its upper corner, and a box centre with q < 1 is a feasible
configuration, a lower witness. _q_sign decides both exactly, in floats
and Fractions, so no report depends on the BLAS thread count.

cap_max is a multistart search over the heights alone: batched penalty
ascent, then an SLSQP polish of the m heights under bounds [-1, t0] and
the one row 1 - q(t) >= 0, which minimize drives through scipy's compiled
SLSQP core without scipy's per-iterate wrappers; scipy is imported on the
first polish. The polished heights are lifted until q <= 1 holds exactly,
and a configuration in R^n is built from them and checked. Its maxima
are lower estimates of the true cap optimum; no verb runs it, and the
tests compare it with the sweep's bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
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


def minimize(values, normals, x0: np.ndarray, C: np.ndarray, d: np.ndarray, meq: int,
             maxiter: int, ftol: float, bounds: tuple[float, float]) -> SimpleNamespace:
    """SLSQP (Kraft, DFVLR-FB 88-28, 1988) from x0 under d[:meq] == 0,
    d[meq:] >= 0 and bounds[0] <= x_i <= bounds[1]: the loop
    scipy.optimize's _minimize_slsqp runs around the compiled core for
    bounds=[bounds] * x0.size, with its state, workspace sizes and clipped
    start, but without its per-iterate wrappers.

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
    seeded height problems with scipy.optimize.minimize, bit for bit.
    """
    from scipy.optimize._slsqplib import slsqp
    n, m = np.size(x0), d.size
    xl, xu = np.full(n, float(bounds[0])), np.full(n, float(bounds[1]))
    x = np.clip(np.asarray(x0, dtype=float), xl, xu)  # a copy: the core iterates in place
    state = {"acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
             "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * ftol, "exact": 0,
             "inconsistent": 0, "reset": 0, "iter": 0, "itermax": maxiter, "line": 0,
             "m": m, "meq": meq, "mode": 0, "n": n}
    size = (n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * meq + 9 * m + 8 * n * n
            + 35 * n + meq * meq + 28 + (2 * n * (n + 1) if m == meq else 0))
    buffer = np.zeros(max(size, 1))
    indices = np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32)
    mult = np.zeros(max(1, m + 2 * n + 2))
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


def _q(t: np.ndarray) -> np.ndarray:
    """q(t) = 2(sum_j t_j^2 - (sum_j t_j)^2/(m + 1)) over the last axis.

    Points y_j = (t_j, s_j w_j), s_j^2 = 1 - t_j^2, have y_i . y_j <= 1/2
    exactly when s_i s_j w_i . w_j <= 1/2 - t_i t_j, an entry of K(t) = (I +
    J)/2 - t t^T, whose diagonal is s_j^2; C(t) = D^-1 K D^-1, D = diag(s_j).
    (I + J)/2 has inverse 2(I - J/(m + 1)), so K is PSD exactly when q(t) =
    t^T 2(I - J/(m + 1)) t <= 1 (a Schur complement), and PD when q(t) < 1:
    for t0 <= -1/sqrt(2) and m <= n, whether t are cap heights (_cap_sweep)."""
    s = np.sum(t, axis=-1)
    return 2.0 * (np.sum(t * t, axis=-1) - s * s / (t.shape[-1] + 1))


def _q_sign(t: np.ndarray) -> np.ndarray:
    """The exact sign (-1, 0 or 1) of q(t) - 1 for each row of a (batch, m)
    array of heights in [-1, -1/2]: _q's floats decide the rows farther than
    E = 8(m + 1)^2 u from 1, Fractions of the same floats the others.

    E bounds |fl(q) - q|. With gamma_k = ku/(1 - ku) <= 1.01ku: sum t_j^2,
    m rounded squares summed in any order, errs by gamma_m m; sum t_j by
    gamma_(m-1) m, so its square over m + 1, with two more roundings, by
    (2 gamma_(m-1) + gamma_2)(1 + gamma_m)^2 m^2/(m + 1) <= 2.1m^2 u; their
    difference, of size at most 1.01m, rounds by 1.01mu; doubling is exact.
    So |fl(q) - q| <= 2(3.11m^2 + 1.01m)u < 6.3(m + 1)^2 u, and as rounding
    is monotone and E a float, fl(q) - 1 beyond E is beyond it exactly."""
    m = t.shape[1]
    d = _q(t) - 1.0
    sign = np.sign(d).astype(int)
    for i in np.flatnonzero(np.abs(d) <= 8.0 * (m + 1) ** 2 * _U):
        f = [Fraction(x) for x in t[i].tolist()]
        exact = 2 * ((m + 1) * sum(x * x for x in f) - sum(f) ** 2) - (m + 1)  # (m + 1)(q - 1)
        sign[i] = (exact > 0) - (exact < 0)
    return sign


def _constraint_violation(Y: np.ndarray, t0: float) -> np.ndarray:
    """Worst cap-constraint violation of each (..., m, n) configuration, >= 0:
    of unit norm, of cap membership y_j[0] <= t0 and of y_i . y_j <= 1/2."""
    gram = Y @ np.swapaxes(Y, -1, -2)
    norm = np.abs(np.diagonal(gram, axis1=-2, axis2=-1) - 1.0)
    return np.maximum.reduce([np.max(norm, axis=-1, initial=0.0),
                              np.max(Y[..., 0] - t0, axis=-1, initial=0.0),
                              np.max(np.triu(gram - 0.5, 1), axis=(-2, -1), initial=0.0)])


def _ascent(t: np.ndarray, g: GegenbauerExpansion, t0: float, rho: float, iters: int,
            step: float) -> np.ndarray:
    """Batched projected gradient ascent of sum_j g(t_j) - rho max(q(t) - 1,
    0)^2 over a (batch, m) array of heights, clipped to [-1, t0] after
    every step."""
    dg = g.derivative()
    m = t.shape[1]
    for _ in range(iters):
        excess = np.maximum(_q(t) - 1.0, 0.0)[:, None]
        grad = dg.eval(t) - 8.0 * rho * excess * (t - np.sum(t, axis=1, keepdims=True) / (m + 1))
        t = np.clip(t + step * grad, -1.0, t0)
    return t


def _polish(t: np.ndarray, g: GegenbauerExpansion, t0: float) -> np.ndarray:
    """SLSQP refinement of m heights in [-1, t0], passed to the core as its
    bounds so that every iterate stays in g's domain, under the one row
    1 - q(t) >= 0, whose normal is -4(t - sum_j t_j/(m + 1)).

    Both callbacks evaluate g or g' by one Python-float Clenshaw pass over
    the heights, the objective being -sum_j g(t_j)."""
    m = t.size
    dg = g.derivative()
    d = np.empty(1)
    C = np.empty((1, m), order="F")

    def values(x):
        d[0] = 1.0 - _q(x)
        return -sum(_eval_floats(g, x.tolist()))

    def normals(x):
        C[0] = -4.0 * (x - np.sum(x) / (m + 1))
        return np.array([-v for v in _eval_floats(dg, x.tolist())])

    return minimize(values, normals, t, C, d, 0, maxiter=300, ftol=1e-14, bounds=(-1.0, t0)).x


def _lift(t: np.ndarray, t0: float) -> np.ndarray:
    """Heights t in [-1, t0]^m moved toward (t0, ..., t0), by bisection on
    the step, until q <= 1 holds exactly (_q_sign): feasible heights are
    upward closed in [-1, t0]^m (see _cap_sweep). t comes back as it is
    where q(t) <= 1 already, or where no point tried is feasible."""
    lo, hi, lifted = 0.0, 1.0, t
    for _ in range(60 if _q_sign(t[None])[0] > 0 else 0):
        mid = (lo + hi) / 2
        point = np.minimum(t + mid * (t0 - t), t0)
        if _q_sign(point[None])[0] <= 0:
            hi, lifted = mid, point
        else:
            lo = mid
    return lifted


def _configuration(t: np.ndarray, n: int) -> np.ndarray:
    """(m, n) points y_j = (t_j, s_j w_j), s_j^2 = 1 - t_j^2, with heights
    t in [-1, t0]^m, q(t) <= 1 and m <= n.

    The directions' Gram matrix W is C(t) for m < n, of rank at most n - 1;
    for m = n it is (C - lam I)/(1 - lam), lam the smallest eigenvalue of
    C, which has rank n - 1, a unit diagonal and off-diagonal entries
    at most c_ij <= 0. Either way s_i s_j w_i . w_j <= 1/2 - t_i t_j, that
    is y_i . y_j <= 1/2. The vectors s_j w_j are factored (_psd_factor)
    from D W D = (K - lam D^2)/(1 - lam) (see _q), which needs no division
    by s_j, 0 at t_j = -1. K - lam D^2 is B - t t^T, B = diag(e) + J/2
    with e_j = 1/2 - lam s_j^2 > 0 for lam < 1, as s_j^2 <= 1/2; it is PSD
    while t^T B^-1 t = sum t_j^2/e_j - (sum t_j/e_j)^2/(2 + sum 1/e_j)
    (Sherman-Morrison) is at most 1, which grows with lam from q(t) at
    lam = 0. lam is its crossing, found by bisection on [0, 1).
    """
    m = t.size
    s2 = (1.0 - t) * (1.0 + t)
    lo, hi = 0.0, 1.0
    for _ in range(60 if m == n else 0):
        lam = (lo + hi) / 2
        e = 0.5 - lam * s2
        if np.sum(t * t / e) - np.sum(t / e) ** 2 / (2.0 + np.sum(1.0 / e)) <= 1.0:
            lo = lam
        else:
            hi = lam
    G = (0.5 - np.outer(t, t)) / (1.0 - lo)
    np.fill_diagonal(G, s2)
    return np.column_stack([t, _psd_factor(G, n - 1)])


def _psd_factor(G: np.ndarray, k: int) -> np.ndarray:
    """V, m by k, with V V^T = G for a PSD m x m G of rank at most k, by
    Cholesky in elementwise numpy (no LAPACK), stopped after k pivots or
    at one below 1e-12. A PSD remainder is bounded entrywise by its
    largest pivot, so leaving it out moves no entry of G by more.

    The zero pivot comes last: the G of _configuration is 1/2 - t_i t_j
    < 0 off the diagonal, and a singular PSD matrix of that sign pattern
    has a positive null vector, so its proper leading blocks are PD."""
    S = G.copy()
    V = np.zeros((len(G), k))
    for j in range(min(k, len(G))):
        if not S[j, j] > 1e-12:
            break
        V[:, j] = S[:, j] / np.sqrt(S[j, j])
        S -= np.outer(V[:, j], V[:, j])
    return V


def cap_max(problem: CapProblem, starts: int = DEFAULT_STARTS,
            seed: int = 0) -> CapResult:
    """Best found value of sum_j g(e1 . y_j) over feasible configurations.

    Multistart over the heights, which decide feasibility by q(t) <= 1
    (_q): batched penalty-ramped projected gradient ascent from seeded
    uniform heights, then _polish of the leading candidates, ranked by
    value minus 1e3 times the excess of q over 1. The polished heights,
    lifted until q <= 1 holds exactly (_lift), are tried by value, best
    first, until one's _configuration is feasible to FEASIBILITY_TOL in R^n.
    Deterministic for fixed (problem, starts, seed). The result is a lower
    estimate of the true cap optimum.

    Refuses t0 above -1/sqrt(2), decided by _rankin_capacity_applies, and m
    above n: there the heights do not decide feasibility.
    """
    if starts < 1:
        raise ParameterError("starts must be >= 1")
    m, n, g, t0 = problem.m, problem.n, problem.g, problem.t0
    if not _rankin_capacity_applies(t0) or m > n:
        raise ParameterError(
            f"cap_max needs t0 <= -1/sqrt(2) and m <= n, got t0 = {t0}, m = {m}, n = {n}: "
            f"elsewhere the heights do not decide feasibility")
    if m == 0:
        return CapResult(0.0, np.zeros((0, n)), 0)
    t = np.random.default_rng(seed).uniform(-1.0, t0, size=(starts, m))
    for rho, iters, step in ((50.0, 30, 0.02), (500.0, 30, 0.004), (5e3, 40, 5e-4)):
        t = _ascent(t, g, t0, rho, iters, step)
    scores = np.sum(g.eval(t), axis=1) - 1e3 * np.maximum(_q(t) - 1.0, 0.0)
    order = np.argsort(-scores, kind="stable")[: max(10, starts // 10)]
    polished = [_polish(t[i], g, t0) for i in order]
    for heights in sorted(polished, key=lambda h: -sum(_eval_floats(g, h.tolist()))):
        cfg = _configuration(_lift(heights, t0), n)
        if _constraint_violation(cfg, t0) <= FEASIBILITY_TOL:
            return CapResult(float(np.sum(g.eval(cfg[:, 0]))), cfg, m)
    raise CapabilityError(f"no feasible configuration found for m={m}; try more starts")


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

    Feasible heights are upward closed in [-1, t0]^m: y_i . y_j <= 1/2 puts
    K(t) (see _q), a Z-matrix as 1/2 - t_i t_j <= 0, entrywise above the PSD
    Z-matrix D W D, W the directions' Gram matrix; K grows in every t_j on
    [-1, t0], and a Z-matrix above a PSD Z-matrix is PSD (Horn and Johnson,
    Topics in Matrix Analysis, 2.5). So a box is pruned when q > 1, by
    _q_sign, at min(centre + rho, t0), rho its half-width widened by
    _MID_SLACK. That float point is at or above the exact corner -1 + (i +
    1)w, w = (t0 + 1)/2^k exact (see _envelope): (2i + 1)(w/2) and rho,
    below 1/2, round by at most u/4 and the two sums, in [-1, -1/2], by u/2
    each, under the 16u of _MID_SLACK, and the exact corner is at most t0.
    The other boxes are bounded by the sum of their axes' envelope entries,
    whose m-term float sum errs by at most (m - 1)u times their sum of
    magnitudes; r = 2 m^2 u max |envelope| covers that and the final + r in
    _bisect. Boxes bounded by at most threshold are dropped.

    A centre with q < 1, decided by _q_sign, holds a configuration, the one
    _configuration builds. Its value sum_j g(t_j) is lowered by m Clenshaw
    bounds plus the sum's rounding, doubled, and one ulp, so the sample is a
    certified lower bound. The sweep stops at the first above threshold. It
    also stops, with its sound upper bound, before a level of over
    _CAP_BUDGET boxes or after the finest level.

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
        pruned = _q_sign(np.minimum(mids + rho, t0)) > 0
        bound = np.where(pruned, -np.inf, upper)
        points = mids[_q_sign(mids) < 0]
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
    stopped. sweeps gives each m's boxes, levels, prunes (psd_prunes where q
    > 1 at a box's upper corner, value_prunes), its best witness (lower;
    null if none) and how it ended: decided (every box pruned), refuted (a
    witness above the threshold), budget (the next level would hold over
    _CAP_BUDGET boxes) or finest (boxes of the finest level are still
    bounded above the threshold). cap_lower is the witness, m >= 1, with
    the largest charged value: its m, value and heights, or null.

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
