"""Side-condition verification for certificates.

Checks sign conditions of expansions on intervals, membership of triples
in the realizable set D3(T), and the two inequalities coupling a triple
function F to single-variable functions over T and D3(T).

Two modes: 'sampled' reports the refined sample maximum and is labeled
non-rigorous; 'lipschitz-certified' reports an upper bound. The 1-D
checks get it from second-order bounds on adaptively bisected cells plus
an a-priori rounding term; the triple check adds a derivative-bound pad
to its grid maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import ParameterError
from .gegenbauer import GegenbauerExpansion
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
DEFAULT_STEP_3D = 1e-3
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


@dataclass(frozen=True)
class _Smooth:
    """A polynomial f on [-1, 1] with what the second-order cell bound needs.

    value and slope compute f and f' at arrays of points; size, slope_size
    and curvature bound |f|, |f'| and |f''| on [-1, 1]; value_err and
    slope_err bound the rounding error of the computed f and f' at any
    point of [-1, 1]; degree is the degree of f.
    """

    value: Callable
    slope: Callable
    degree: int
    size: float
    slope_size: float
    curvature: float
    value_err: float
    slope_err: float


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


def _expansion(e: GegenbauerExpansion) -> _Smooth:
    """e with f' from e.derivative() and f'' bounded by its derivative_bound().
    The derivative's coefficients carry three roundings each, 3u relative."""
    de = e.derivative()
    size = float(np.sum(np.abs(e.coeffs)))
    slope_size = e.derivative_bound()
    return _Smooth(e.eval, de.eval, e.degree, size, slope_size, de.derivative_bound(),
                   _clenshaw_err(e.degree, size),
                   _clenshaw_err(e.degree - 1, slope_size) + 4.0 * _U * slope_size)


def _polynomial(a: np.ndarray) -> _Smooth:
    """sum a_i s^i (ascending coefficients), evaluated by Horner's rule,
    whose computed value on [-1, 1] is within 2d u sum |a_i| of the exact
    one (Higham, Accuracy and Stability of Numerical Algorithms, 5.1);
    4(d+1)u also covers the one rounding of each coefficient of polyder."""
    d = a.size - 1
    da = polyder(a)
    i = np.arange(a.size)
    size = float(np.sum(np.abs(a)))
    slope_size = float(np.sum(i * np.abs(a)))
    return _Smooth(lambda s: polyval(s, a), lambda s: polyval(s, da), d, size, slope_size,
                   float(np.sum(i * (i - 1) * np.abs(a))), 4.0 * (d + 1) * _U * size,
                   4.0 * (d + 1) * _U * slope_size)


def _combine(parts: list[tuple[float, _Smooth]], const: float = 0.0) -> _Smooth:
    """const + sum of w * f over (w, f) in parts, summed left to right. Each
    product and sum adds one rounding of at most u times the sizes."""
    def value(s):
        out = const
        for w, f in parts:
            out = out + w * f.value(s)
        return out

    def slope(s):
        out = 0.0
        for w, f in parts:
            out = out + w * f.slope(s)
        return out

    ops = 2 * len(parts) + 1
    size = abs(const) + sum(abs(w) * f.size for w, f in parts)
    slope_size = sum(abs(w) * f.slope_size for w, f in parts)
    return _Smooth(
        value, slope, max(f.degree for _, f in parts), size, slope_size,
        sum(abs(w) * f.curvature for w, f in parts),
        sum(abs(w) * f.value_err for w, f in parts) + ops * _U * size,
        sum(abs(w) * f.slope_err for w, f in parts) + ops * _U * slope_size,
    )


def _sweep_1d(f: _Smooth, interval, spec: DomainSpec, condition: str) -> ViolationReport:
    """Maximum of f on the interval by adaptively bisected cells.

    The interval is cut into at most _START_CELLS equal cells. At each cell
    midpoint c, f and f' are evaluated, and a cell of width h gets the
    bound

        f(c) + |f'(c)| h/2 + curvature h^2/8 + r,

    which holds on the whole cell by Taylor's theorem (h/2 is widened by
    _MID_SLACK). r is fixed before the sweep: the rounding bounds of f
    and of f' times the largest h/2, plus (d + 16)u times the size of the
    bound's terms for the roundings of the curvature bound and of the
    bound's own arithmetic. A cell whose bound is at most the largest value
    of f sampled so far plus r is dropped; the others are bisected until
    they are no wider than spec.grid_step. f is also evaluated at both
    ends, and the best point is refined by golden section within one final
    cell width.

    In certified mode worst_violation is max(sample_max + r, the largest
    bound of a final cell that was not dropped), an upper bound of f on
    the interval; in sampled mode it is sample_max.
    """
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
    r = (f.value_err + f.slope_err * rho + (f.degree + 16) * _U
         * (f.size + f.slope_size * rho + f.curvature * rho * rho / 2.0))

    ends = np.array([a, b])
    vals = f.value(ends)
    best = int(np.argmax(vals))
    best_val, best_x = float(vals[best]), float(ends[best])
    evaluations = 2
    idx = np.arange(cells)
    top = -np.inf
    for level in range(levels + 1):
        mids = a + (2 * idx + 1) * (width / 2.0)
        vals = f.value(mids)
        evaluations += idx.size
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_x = float(vals[j]), float(mids[j])
        rho = width / 2.0 + _MID_SLACK
        bound = vals + np.abs(f.slope(mids)) * rho + f.curvature * (rho * rho / 2.0)
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
    x, refined = _golden_max_1d(lambda s: float(f.value(np.asarray(s))), lo, hi,
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
    return _sweep_1d(_expansion(g), S, spec, "sign:g<=0")


def check_pair_condition(F: TripleCertificate, f: GegenbauerExpansion, T,
                         spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of F(1, t, t) <= f(t) over t in T."""
    spec = spec or DomainSpec()
    fun = _combine([(1.0, _polynomial(F.diag_restriction())), (-1.0, _expansion(f))])
    return _sweep_1d(fun, T, spec, "pair:F(1,t,t)<=f")


def check_dd_pair_condition(h: GegenbauerExpansion, h0: float, F: TripleCertificate,
                            g: GegenbauerExpansion, T,
                            spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of h(t) + h0 + F(1, t, t) <= 2 g(t) over t in T."""
    spec = spec or DomainSpec()
    fun = _combine([(1.0, _expansion(h)), (1.0, _polynomial(F.diag_restriction())),
                    (-2.0, _expansion(g))], h0)
    return _sweep_1d(fun, T, spec, "pair:h+h0+F(1,t,t)<=2g")


def check_triple_condition(F: TripleCertificate, g: GegenbauerExpansion, T,
                           spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of F(t, u, v) <= g(t) + g(u) + g(v) over D3(T).

    Sweeps the wedge t <= u <= v (F and the right side are symmetric) on a
    grid, keeps points passing the determinant filter, then refines around
    the maximizer by coordinate-wise golden section; the reported location
    and sample maximum come from points of D3(T) only. Raises
    ParameterError when no grid point lies in D3(T), so that an empty
    region never passes with a maximum of -inf. In certified mode the
    pad is added to the grid maximum over a filter relaxed to
    det >= -6*step, so that every point of D3(T) has an accepted grid
    neighbor, which the Lipschitz pad then covers.
    """
    spec = spec or DomainSpec(grid_step=DEFAULT_STEP_3D)
    a, b = float(T[0]), float(T[1])
    ts = _grid(a, b, spec.grid_step)
    step = float(ts[1] - ts[0]) if ts.size > 1 else 0.0
    # |d det / d coordinate| <= 4 on [-1,1]^3, three coordinates, step/2 each
    det_tol = 6.0 * step if spec.certified else D3_MEMBERSHIP_TOL

    gvals = g.eval(ts)
    best = relaxed_best = -np.inf
    best_loc = None
    evaluations = 0
    for i, t in enumerate(ts):
        u = ts[i:][:, None]
        v = ts[i:][None, :]
        wedge = np.triu(np.ones((ts.size - i, ts.size - i), dtype=bool))
        det = np.where(wedge, d3_determinant(t, u, v), -np.inf)
        relaxed = det >= -det_tol
        if not relaxed.any():
            continue
        evaluations += (ts.size - i) * (ts.size - i + 1) // 2
        phi = F.eval(t, u, v) - (gvals[i] + gvals[i:][:, None] + gvals[i:][None, :])
        relaxed_best = max(relaxed_best, float(np.max(phi[relaxed])))
        phi = np.where(det >= -D3_MEMBERSHIP_TOL, phi, -np.inf)
        j, k = np.unravel_index(int(np.argmax(phi)), phi.shape)
        if phi[j, k] > best:
            best = float(phi[j, k])
            best_loc = (float(t), float(ts[i + j]), float(ts[i + k]))

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
