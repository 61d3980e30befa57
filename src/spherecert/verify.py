"""Side-condition verification for certificates.

Checks sign conditions of expansions on intervals, membership of triples
in the realizable set D3(T), and the two inequalities coupling a triple
function F to single-variable functions over T and D3(T).

Every 1-D check sweeps one GegenbauerExpansion: g itself, or for a pair
check its left side minus its right side, built exactly and rounded once.

Two modes: 'sampled' reports the refined sample maximum and is labeled
non-rigorous; 'lipschitz-certified' reports an upper bound. The 1-D
checks get it from second-order bounds on adaptively bisected cells plus
an a-priori rounding term and the slack; the triple check adds a
derivative-bound pad to its grid maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .gegenbauer import GegenbauerExpansion, monomial_to_gegenbauer
from .threepoint import TripleCertificate

__all__ = [
    "DomainSpec",
    "ViolationReport",
    "in_d3",
    "d3_determinant",
    "check_sign",
    "check_pair_condition",
    "check_dd_pair_condition",
    "check_triple_condition",
]

SAMPLED = "sampled"
CERTIFIED = "lipschitz-certified"

D3_MEMBERSHIP_TOL = 1e-12
DEFAULT_STEP_1D = 1e-5
DEFAULT_STEP_3D = 0.01
# golden-section steps per refinement of a grid maximum
REFINEMENT_DEPTH = 40
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Unit roundoff of float64.
_U = 2.0 ** -53
# The 1-D sweeps start from at most this many equal cells, sized so that
# halving them lands at or just under the grid step; even when no cell can
# be dropped, a sweep then costs at most about twice the points of a
# uniform grid at that step.
_START_CELLS = 1024
# Added to a cell's half-width: a computed midpoint lies within 3u of the
# exact one (all points are in [-1, 1]) and the last cell may end up to 5u
# past a + cells * width.
_MID_SLACK = 16 * _U
# Most final cells a 1-D sweep may cut: cell indices stay exact in int64
# and float64, and on [-1, 1] a cell is then still about 30 ulps wide.
_MAX_CELLS = 2 ** 48
# Most grid points per axis of the triple sweep. Its wedge t <= u <= v
# of m points per axis holds m (m+1) (m+2) / 6 of them: 16,757,360 at
# m = 464 and over 2^24 from m = 465 on.
_MAX_AXIS_3D = 464


@dataclass
class DomainSpec:
    """Sweep parameters for interval and D3 checks; every check takes its
    interval as an argument.

    For the 1-D checks grid_step is the finest cell width: cells that may
    hold the maximum are bisected until no wider than it. For the triple
    check it is the spacing of the uniform grid over D3(T).
    """

    grid_step: float = DEFAULT_STEP_1D
    mode: str = SAMPLED

    def __post_init__(self):
        if not 0.0 < self.grid_step < np.inf:
            raise ParameterError(f"grid_step must be positive and finite, got {self.grid_step}")
        if self.mode not in (SAMPLED, CERTIFIED):
            raise ParameterError(f"mode must be {SAMPLED!r} or {CERTIFIED!r}")

    @property
    def certified(self) -> bool:
        return self.mode == CERTIFIED


@dataclass
class ViolationReport:
    """Worst violation of a <=-condition: positive means violated.

    evaluations counts the points where the checked function was
    evaluated: ends, cell midpoints and refinement for the 1-D checks,
    wedge grid points and refinement for the triple check.
    """

    condition: str
    mode: str
    worst_violation: float
    location: tuple[float, ...] | None
    grid_step: float
    certified: bool
    sample_max: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "mode": self.mode,
            "worst_violation": self.worst_violation,
            "location": list(self.location) if self.location is not None else None,
            "grid_step": self.grid_step,
            "certified": self.certified,
            "sample_max": self.sample_max,
            "evaluations": self.evaluations,
        }


def d3_determinant(t, u, v):
    """det of the 3x3 unit-diagonal Gram matrix: 1 + 2tuv - t^2 - u^2 - v^2."""
    return 1.0 + 2.0 * t * u * v - t * t - u * u - v * v


def in_d3(t: float, u: float, v: float, T: tuple[float, float],
          tol: float = D3_MEMBERSHIP_TOL) -> bool:
    """Whether (t, u, v) is a realizable triple with all entries in T.

    Realizable means three unit vectors exist with these pairwise products,
    i.e. the Gram determinant is >= 0; tol absorbs rounding on the boundary
    (a regular simplex triple has determinant exactly 0).
    """
    a, b = T
    for x in (t, u, v):
        if not (a - tol <= x <= b + tol):
            return False
    return bool(d3_determinant(t, u, v) >= -tol)


def _grid(a: float, b: float, step: float) -> np.ndarray:
    if b < a:
        raise ParameterError(f"empty interval [{a}, {b}]")
    count = max(2, int(np.ceil((b - a) / step)) + 1)
    return np.linspace(a, b, count)


def _golden_max_1d(fun, lo: float, hi: float, depth: int) -> tuple[float, float]:
    """Golden-section ascent for the maximum of fun on [lo, hi]; calls fun
    depth + 3 times."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(depth):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    x = c if fc >= fd else d
    return x, fun(x)


def _clenshaw_err(d: int, size: float) -> float:
    """Rounding bound for Clenshaw on a degree-d expansion with
    sum |c_k| = size, anywhere on [-1, 1].

    The computed value is exactly sum (c_k + e_k) G_k(x), where e_k gathers
    the roundings of step k; each of its three terms carries at most five,
    counting those of the stored a_k and beta_k, so
    |e_k| <= 5u (|c_k| + 2|b_{k+1}| + |b_{k+2}|), as |a_k| <= 2 and
    |beta_k| <= 1. Since |G_k| <= 1 on [-1, 1], the error is at most
    sum |e_k|. The intermediates are b_k = sum_{j>=k} c_j P_{j,k}(x), where
    P_{j,k} are the associated polynomials of the recurrence; like
    Chebyshev's U_{j-k} they satisfy |P_{j,k}| <= j - k + 1 on [-1, 1]
    (tests/test_verify.py checks this for n = 3..13), so sum_k |b_k| <=
    (d+1)(d+2)/2 * size and the error is at most
    5u (1 + 1.5 (d+1)(d+2)) size. The constant 10 covers that and the
    second-order terms.
    """
    return 10.0 * _U * (d + 1) * (d + 2) * size


def _pair_expansion(n: int, F: TripleCertificate, parts) -> tuple[GegenbauerExpansion, float]:
    """F(1, t, t) + sum w * e over (w, e) in parts as one dimension-n
    expansion, computed in exact rationals from the stored floats and
    rounded once, and a slack bounding its distance to the exact function
    on [-1, 1]: the coefficient roundings (|G_k| <= 1 there) plus u |a_p|
    for each correctly rounded diagonal coefficient a_p (the Gegenbauer
    coefficients of s^p are >= 0 and sum to 1), rounded up by one ulp."""
    if any(e.n != n for _, e in parts):
        raise ParameterError(
            f"expansions must all have dimension {n}, got {[e.n for _, e in parts]}")
    diag = F.diag_restriction().tolist()
    exact = monomial_to_gegenbauer(n, diag)
    exact += [Fraction(0)] * (max(e.coeffs.size for _, e in parts) - len(exact))
    for w, e in parts:
        for k, c in enumerate(e.coeffs.tolist()):
            exact[k] += w * Fraction(c)
    coeffs = [float(c) for c in exact]
    err = (sum(abs(c - Fraction(x)) for c, x in zip(exact, coeffs))
           + Fraction(_U) * sum(abs(Fraction(a)) for a in diag))
    return GegenbauerExpansion(n, coeffs), math.nextafter(float(err), math.inf)


def _sweep_1d(f: GegenbauerExpansion, interval, spec: DomainSpec, condition: str,
              slack: float = 0.0) -> ViolationReport:
    """Maximum of f on the interval by adaptively bisected cells.

    The interval is cut into at most _START_CELLS equal cells. At each cell
    midpoint c, f and f' are evaluated, and a cell of width h gets the
    bound

        f(c) + |f'(c)| h/2 + L2 h^2/8 + r,

    which holds on the whole cell by Taylor's theorem (h/2 is widened by
    _MID_SLACK); L2 is the derivative_bound() of f'. r is fixed before the
    sweep: the rounding bounds of f and of f' (whose coefficients carry
    3u relative error) times the largest h/2, plus (d + 16)u times the size
    of the bound's terms for the roundings of L2 and of the bound's own
    arithmetic, plus slack, how far the function checked may lie from f
    on [-1, 1]. A cell whose bound is at most the largest value
    of f sampled so far plus r is dropped; the others are bisected until
    they are no wider than spec.grid_step. f is also evaluated at both
    ends, and the best point is refined by golden section within one final
    cell width.

    In certified mode worst_violation is max(sample_max + r, the largest
    bound of a final cell that was not dropped), an upper bound of f on
    the interval; in sampled mode it is sample_max.
    """
    df = f.derivative()
    size = float(np.sum(np.abs(f.coeffs)))
    slope_size = f.derivative_bound()
    curvature = df.derivative_bound()
    a, b = float(interval[0]), float(interval[1])
    if not a <= b:
        raise ParameterError(f"empty interval [{a}, {b}]")
    if not (b - a) / spec.grid_step <= _MAX_CELLS:
        raise ParameterError(
            f"grid_step {spec.grid_step:g} is too fine for [{a}, {b}]: over 2^48 cells")
    count = max(1, math.ceil((b - a) / spec.grid_step))
    levels = 0
    while count > _START_CELLS << levels:
        levels += 1
    cells = -(-count // (1 << levels))
    width = (b - a) / cells
    rho = width / 2.0 + _MID_SLACK
    r = (_clenshaw_err(f.degree, size)
         + (_clenshaw_err(f.degree - 1, slope_size) + 4.0 * _U * slope_size) * rho
         + (f.degree + 16) * _U * (size + slope_size * rho + curvature * rho * rho / 2.0) + slack)

    ends = np.array([a, b])
    vals = f.eval(ends)
    best = int(np.argmax(vals))
    best_val, best_x = float(vals[best]), float(ends[best])
    evaluations = 2
    idx = np.arange(cells)
    top = -np.inf
    for level in range(levels + 1):
        mids = a + (2 * idx + 1) * (width / 2.0)
        vals = f.eval(mids)
        evaluations += idx.size
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_x = float(vals[j]), float(mids[j])
        rho = width / 2.0 + _MID_SLACK
        bound = vals + np.abs(df.eval(mids)) * rho + curvature * (rho * rho / 2.0)
        # dropped when bound + r <= best_val + r
        live = bound > best_val
        if level == levels:
            if live.any():
                top = float(np.max(bound[live])) + r
            break
        idx = (2 * idx[live][:, None] + np.array([0, 1])).ravel()
        if idx.size == 0:
            break
        width /= 2.0
    width = (b - a) / cells / (1 << levels)

    lo, hi = max(a, best_x - width), min(b, best_x + width)
    x, refined = _golden_max_1d(lambda s: float(f.eval(np.asarray(s))), lo, hi,
                                REFINEMENT_DEPTH)
    evaluations += REFINEMENT_DEPTH + 3
    sample_max = max(best_val, refined)
    loc = float(x) if refined >= best_val else best_x
    worst = max(sample_max + r, top) if spec.certified else sample_max
    return ViolationReport(condition, spec.mode, worst, (loc,), spec.grid_step,
                           spec.certified, sample_max, evaluations)


def check_sign(g: GegenbauerExpansion, S, spec: DomainSpec | None = None,
               ) -> ViolationReport:
    """Worst violation of g <= 0 on the interval S (i.e. the maximum of g)."""
    spec = spec or DomainSpec()
    return _sweep_1d(g, S, spec, "sign:g<=0")


def check_pair_condition(F: TripleCertificate, f: GegenbauerExpansion, T,
                         spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of F(1, t, t) <= f(t) over t in T: a sign check of
    F(1, t, t) - f(t) built by _pair_expansion in f's dimension."""
    spec = spec or DomainSpec()
    e, slack = _pair_expansion(f.n, F, [(-1, f)])
    return _sweep_1d(e, T, spec, "pair:F(1,t,t)<=f", slack)


def check_dd_pair_condition(h: GegenbauerExpansion, h0: float, F: TripleCertificate,
                            g: GegenbauerExpansion, T,
                            spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of h(t) + h0 + F(1, t, t) <= 2 g(t) over t in T, as
    check_pair_condition; h must have g's dimension (ParameterError)."""
    spec = spec or DomainSpec()
    e, slack = _pair_expansion(g.n, F, [(1, h), (1, GegenbauerExpansion(g.n, [h0])), (-2, g)])
    return _sweep_1d(e, T, spec, "pair:h+h0+F(1,t,t)<=2g", slack)


def check_triple_condition(F: TripleCertificate, g: GegenbauerExpansion, T,
                           spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of F(t, u, v) <= g(t) + g(u) + g(v) over D3(T).

    Sweeps the wedge t <= u <= v (F and the right side are symmetric) on a
    grid, evaluating F and the determinant only at the wedge's grid points,
    keeps points passing the determinant filter, then refines around
    the maximizer by coordinate-wise golden section; the reported location
    and sample maximum come from points of D3(T) only. Raises
    ParameterError when no grid point lies in D3(T), so that an empty
    region never passes with a maximum of -inf, and before it evaluates
    anything when the wedge would hold over 2^24 grid points (steps under
    about 0.0033 on [-1, 1/2]). In certified mode the
    pad is added to the grid maximum over a filter relaxed to
    det >= -6*step, so that every point of D3(T) has an accepted grid
    neighbor, which the Lipschitz pad then covers.
    """
    spec = spec or DomainSpec(grid_step=DEFAULT_STEP_3D)
    a, b = float(T[0]), float(T[1])
    # _grid takes ceil((b - a) / step) + 1 points per axis
    if (b - a) / spec.grid_step > _MAX_AXIS_3D - 1:
        # 1.01 keeps the step printed to 3 digits at or above the finest one
        finest = 1.01 * (b - a) / (_MAX_AXIS_3D - 1)
        raise ParameterError(
            f"triple grid step {spec.grid_step:g} is too fine for [{a}, {b}]: its "
            f"wedge would hold over 2^24 grid points; the finest step that fits is "
            f"{finest:.3g}")
    ts = _grid(a, b, spec.grid_step)
    step = float(ts[1] - ts[0]) if ts.size > 1 else 0.0
    # |d det / d coordinate| <= 4 on [-1,1]^3, three coordinates, step/2 each
    det_tol = 6.0 * step if spec.certified else D3_MEMBERSHIP_TOL

    gvals = g.eval(ts)
    best = relaxed_best = -np.inf
    best_loc = None
    evaluations = 0
    # grid index pairs j <= k, ordered by j; those of slice i (j >= i) are a tail
    js, ks = np.triu_indices(ts.size)
    for i, t in enumerate(ts):
        start = i * ts.size - i * (i - 1) // 2
        j, k = js[start:], ks[start:]
        u, v = ts[j], ts[k]
        det = d3_determinant(t, u, v)
        relaxed = det >= -det_tol
        if not relaxed.any():
            continue
        evaluations += j.size
        phi = F.eval(t, u, v) - (gvals[i] + gvals[j] + gvals[k])
        relaxed_best = max(relaxed_best, float(np.max(phi[relaxed])))
        phi = np.where(det >= -D3_MEMBERSHIP_TOL, phi, -np.inf)
        q = int(np.argmax(phi))
        if phi[q] > best:
            best = float(phi[q])
            best_loc = (float(t), float(u[q]), float(v[q]))

    if best_loc is None:
        raise ParameterError(
            f"D3(T) holds no grid point for T = [{a}, {b}] at step {spec.grid_step:g}"
        )

    def point_val(p):
        nonlocal evaluations
        t, u, v = p
        if not in_d3(t, u, v, (a, b)):
            return -np.inf
        evaluations += 1
        return float(F.eval(t, u, v) - (g.eval(t) + g.eval(u) + g.eval(v)))

    sample_max, loc = best, best_loc
    refined_loc = list(best_loc)
    refined = point_val(refined_loc)
    for _ in range(max(1, REFINEMENT_DEPTH // 10)):
        for axis in range(3):
            lo = max(a, refined_loc[axis] - step)
            hi = min(b, refined_loc[axis] + step)

            def along(s):
                q = list(refined_loc)
                q[axis] = s
                return point_val(q)

            x, val = _golden_max_1d(along, lo, hi, REFINEMENT_DEPTH)
            if val > refined:
                refined = val
                refined_loc[axis] = float(x)
    if refined >= best:
        sample_max, loc = refined, tuple(refined_loc)
    if spec.certified:
        bt, bu, bv = F.gradient_bounds()
        lip = bt + bu + bv + 3.0 * g.derivative_bound()
        worst = max(relaxed_best + lip * step / 2.0, sample_max)
    else:
        worst = sample_max
    return ViolationReport("triple:F<=g+g+g", spec.mode, worst, loc,
                           spec.grid_step, spec.certified, sample_max, evaluations)
