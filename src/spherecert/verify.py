"""Side-condition verification for certificates.

Checks sign conditions of expansions on intervals, membership of triples
in the realizable set D3(T), and the two inequalities coupling a triple
function F to single-variable functions over T and D3(T).

Two modes: 'sampled' reports the refined sample maximum and is labeled
non-rigorous; 'lipschitz-certified' adds a derivative-bound pad that turns
the grid maximum into a rigorous upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

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


@dataclass
class DomainSpec:
    """Sweep parameters for interval and D3 checks; every check takes its
    interval as an argument."""

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
    """Worst violation of a <=-condition: positive means violated."""

    condition: str
    mode: str
    worst_violation: float
    location: tuple[float, ...] | None
    grid_step: float
    certified: bool
    sample_max: float

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "mode": self.mode,
            "worst_violation": self.worst_violation,
            "location": list(self.location) if self.location is not None else None,
            "grid_step": self.grid_step,
            "certified": self.certified,
            "sample_max": self.sample_max,
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
    """Golden-section ascent for the maximum of fun on [lo, hi]."""
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


def _sweep_1d(fun, interval, spec: DomainSpec, lipschitz: float, condition: str,
              ) -> ViolationReport:
    a, b = float(interval[0]), float(interval[1])
    ts = _grid(a, b, spec.grid_step)
    vals = fun(ts)
    i = int(np.argmax(vals))
    grid_max = float(vals[i])
    step = float(ts[1] - ts[0]) if ts.size > 1 else 0.0
    lo = max(a, ts[i] - step)
    hi = min(b, ts[i] + step)
    x, refined = _golden_max_1d(lambda s: float(fun(np.asarray(s))), lo, hi,
                                REFINEMENT_DEPTH)
    sample_max = max(grid_max, refined)
    loc = float(x) if refined >= grid_max else float(ts[i])
    if spec.certified:
        worst = grid_max + lipschitz * step / 2.0
        worst = max(worst, sample_max)
    else:
        worst = sample_max
    return ViolationReport(condition, spec.mode, worst, (loc,), spec.grid_step,
                           spec.certified, sample_max)


def check_sign(g: GegenbauerExpansion, S, spec: DomainSpec | None = None,
               ) -> ViolationReport:
    """Worst violation of g <= 0 on the interval S (i.e. the maximum of g)."""
    spec = spec or DomainSpec()
    return _sweep_1d(g.eval, S, spec, g.derivative_bound(), "sign:g<=0")


def _univariate_poly_bound(coeffs: np.ndarray) -> float:
    """Derivative bound on [-1, 1] for an ascending-coefficient polynomial."""
    return float(sum(abs(c) * k for k, c in enumerate(coeffs)))


def _diag_fun(F: TripleCertificate):
    """s -> F(1, s, s) as a fast univariate polynomial, plus its slope bound."""
    coeffs = F.diag_restriction()
    return (lambda s: polyval(s, coeffs)), _univariate_poly_bound(coeffs)


def check_pair_condition(F: TripleCertificate, f: GegenbauerExpansion, T,
                         spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of F(1, t, t) <= f(t) over t in T."""
    spec = spec or DomainSpec()
    diag, slope = _diag_fun(F)
    fun = lambda s: diag(s) - f.eval(s)
    return _sweep_1d(fun, T, spec, slope + f.derivative_bound(), "pair:F(1,t,t)<=f")


def check_dd_pair_condition(h: GegenbauerExpansion, h0: float, F: TripleCertificate,
                            g: GegenbauerExpansion, T,
                            spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of h(t) + h0 + F(1, t, t) <= 2 g(t) over t in T."""
    spec = spec or DomainSpec()
    diag, slope = _diag_fun(F)
    fun = lambda s: h.eval(s) + h0 + diag(s) - 2.0 * g.eval(s)
    lip = h.derivative_bound() + slope + 2.0 * g.derivative_bound()
    return _sweep_1d(fun, T, spec, lip, "pair:h+h0+F(1,t,t)<=2g")


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
    for i, t in enumerate(ts):
        u = ts[i:][:, None]
        v = ts[i:][None, :]
        wedge = np.triu(np.ones((ts.size - i, ts.size - i), dtype=bool))
        det = np.where(wedge, d3_determinant(t, u, v), -np.inf)
        relaxed = det >= -det_tol
        if not relaxed.any():
            continue
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
        t, u, v = p
        if not in_d3(t, u, v, (a, b)):
            return -np.inf
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
                           spec.grid_step, spec.certified, sample_max)
