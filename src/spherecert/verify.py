"""Side-condition verification for certificates.

Checks sign conditions of expansions on intervals, membership of triples
in the realizable set D3(T), and the two inequalities coupling a triple
function F to single-variable functions over T and D3(T).

Every check samples and bounds one function built exactly and rounded
once: a GegenbauerExpansion, or the triple check's tensor of F - g - g - g.
Its sweep starts from the interval's ends or from D3(T)'s corner (b, b, b).

One bisection loop, _bisect, runs every sweep: over cells of an interval
for the 1-D checks, over boxes of the wedge t <= u <= v for the triple
check, and over sorted boxes of cap heights for capopt.kissing_check. The
loop decides the sign rather than chase the maximum: a cell or box whose
bound is at most 0 is dropped, and a caller's refutation level stops the
sweep at the first sample above it. Two modes: 'sampled' reports the best
sample and is labeled non-rigorous; 'lipschitz-certified' reports an upper
bound, max(best sample, largest bound of a cell or box dropped or left)
plus an a-priori rounding term and the slack. It is tight, up to the
grid step and that term, only for a positive maximum at most the
refutation level: where every bound is at most 0 it is an upper bound at
most the rounding term, not the maximum, and a refuted sweep's is sound
but loose.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .gegenbauer import GegenbauerExpansion, _gegenbauer_numerators, _over_lcm, monomial_coeffs
from .threepoint import TripleCertificate, _eval_tensor

__all__ = [
    "DomainSpec",
    "ViolationReport",
    "in_d3",
    "d3_determinant",
    "check_sign",
    "check_pair_condition",
    "check_dd_pair_condition",
    "check_triple_condition",
    "triple_cells",
]

SAMPLED = "sampled"
CERTIFIED = "lipschitz-certified"

D3_MEMBERSHIP_TOL = 1e-12
DEFAULT_STEP_1D = 1e-5
DEFAULT_STEP_3D = 0.01
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
# The triple sweep starts from at most 8 cells per axis. A wedge t <= u <= v
# of m cells per axis holds m (m+1) (m+2) / 6 boxes, under 2^24 to m = 464.
_START_CELLS_3D = 8
_MAX_AXIS_3D = 464
# The Gram determinant 1 + 2tuv - t^2 - u^2 - v^2 as an exact tensor.
_DET = TripleCertificate.from_terms([(0, 0, 0, 1), (1, 1, 1, 2), (2, 0, 0, -3)]).poly()


@dataclass
class DomainSpec:
    """Sweep parameters for interval and D3 checks; every check takes its
    interval as an argument.

    grid_step is the finest cell width of the 1-D checks and the finest box
    width of the triple check: cells or boxes that may hold the maximum are
    bisected until no wider than it.
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
    evaluated: ends and cell midpoints for the 1-D checks, the corner
    (b, b, b) and box centres in D3(T) for the triple check. location is
    the best of those points and sample_max the value there.
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
        return asdict(self)


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


def _levels(count: int, start: int) -> tuple[int, int]:
    """At most start cells and the fewest bisection levels, those with
    ceil(count / start) <= 2^levels, that cut them into at least count."""
    levels = (-(-count // start) - 1).bit_length()
    return -(-count // (1 << levels)), levels


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
    expansion, computed in exact rationals from the stored floats (Python
    ints over one denominator) and rounded once, and a slack bounding its
    distance to the exact function on [-1, 1]: the coefficient roundings
    (|G_k| <= 1 there) plus u |a_p| for each correctly rounded diagonal
    coefficient a_p (the Gegenbauer coefficients of s^p are >= 0 and sum
    to 1), rounded up by one ulp."""
    if any(e.n != n for _, e in parts):
        raise ParameterError(
            f"expansions must all have dimension {n}, got {[e.n for _, e in parts]}")
    diag = F.diag_restriction().tolist()
    # exact / den, in Python ints, summed exactly and rounded once
    exact, den = _gegenbauer_numerators(n, diag)
    exact += [0] * (max(e.coeffs.size for _, e in parts) - len(exact))
    for w, e in parts:
        nums, L = _over_lcm(e.coeffs.tolist())
        M = math.lcm(den, L)
        exact = [a * (M // den) for a in exact]
        for k, b in enumerate(nums):
            exact[k] += w * b * (M // L)
        den = M
    coeffs = [a / den for a in exact]  # int / int rounds correctly
    # sum |exact_k - coeffs_k| + u sum |a_p| over one denominator, with
    # u = _U = 1 / 2^53; every float's denominator is a power of two
    rounded, R = _over_lcm(coeffs)
    an, A = _over_lcm(diag)
    E = math.lcm(den * R, A << 53)
    err = (sum(abs(a * R - b * den) for a, b in zip(exact, rounded)) * (E // (den * R))
           + sum(abs(a) for a in an) * (E // (A << 53)))
    return GegenbauerExpansion(n, coeffs), math.nextafter(err / E, math.inf)


def _bisect(level, a: float, width: float, cells: int, levels: int, dim: int, r: float,
            spec: DomainSpec, condition: str, start=(-np.inf, None, 0), drop: float = 0.0,
            stop: float = np.inf, budget: float = np.inf) -> ViolationReport:
    """The sweep of every check: bisect the cells (dim = 1) or the boxes of
    the sorted wedge t_1 <= ... <= t_dim that could hold a value above
    max(best sample, drop).

    level(mids, rho, idx) gets the centres of a level's live cells, their
    half-width, widened by _MID_SLACK, and their integer cell indices, and
    returns the points it sampled, their values and a bound on each cell
    (-inf where it rules one out). A cell whose bound is at most the best
    sample so far (from start: value, location, count) or at most drop is
    dropped, and the others are halved along every axis. The sweep stops
    early after a level whose best sample exceeds stop, or before a level
    of more than budget cells. In certified mode worst_violation is
    max(best sample, the largest bound dropped, the largest bound not
    dropped) + r, the charged rounding and slack.

    With the default drop of 0 the sweep decides the sign: where every
    bound is at most 0, worst_violation is the largest of them plus r, an
    upper bound at most r, not the maximum. A refuted sweep, one stopped
    by stop, ends at the first level with a sample above stop: the best
    sample then is its sample_max, and its worst_violation keeps the
    bounds it had, sound but loose.
    """
    best_val, best_loc, evaluations = start
    settled = -np.inf
    bound, live = np.array([np.inf]), np.array([True])  # nothing bounded yet
    halves = np.indices((2,) * dim).reshape(dim, -1).T
    idx = np.indices((cells,) * dim).reshape(dim, -1).T
    for _ in range(levels + 1):
        if dim > 1:  # keep the wedge
            idx = idx[np.all(idx[:, :-1] <= idx[:, 1:], axis=1)]
        if idx.size == 0 or len(idx) > budget:
            break
        rho = width / 2.0 + _MID_SLACK
        points, vals, bound = level(a + (2 * idx + 1) * (width / 2.0), rho, idx)
        evaluations += len(vals)
        if len(vals):
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_loc = float(vals[j]), tuple(float(x) for x in points[j])
        # dropped when bound + r <= max(best_val, drop) + r
        live = bound > max(best_val, drop)
        if drop > best_val:  # else what is dropped stays below the best sample
            settled = max(settled, float(np.max(bound[~live], initial=-np.inf)))
        if best_val > stop:
            break
        idx = (2 * idx[live][:, None] + halves).reshape(-1, dim)
        width /= 2.0
    worst = max(best_val, settled, float(np.max(bound[live], initial=-np.inf))) + r
    return ViolationReport(condition, spec.mode, worst if spec.certified else best_val,
                           best_loc, spec.grid_step, spec.certified, best_val, evaluations)


def _taylor(f: GegenbauerExpansion, rho: float):
    """Second-order Taylor bounds of f on cells of half-width at most rho.

    bound(c, rho) evaluates f and f' at the centres c and returns f(c) and
    f(c) + |f'(c)| rho + L2 rho^2/2, which holds on the whole cell by
    Taylor's theorem; L2 is the derivative_bound() of f'. Each computed
    bound is within r of the exact one: r is the rounding bounds of f and
    of f' (whose coefficients carry 3u relative error) times rho, plus
    (d + 16)u times the size of the bound's terms for the roundings of L2
    and of the bound's own arithmetic.
    """
    df = f.derivative()
    size = float(np.sum(np.abs(f.coeffs)))
    slope_size = f.derivative_bound()
    curvature = df.derivative_bound()
    r = (_clenshaw_err(f.degree, size)
         + (_clenshaw_err(f.degree - 1, slope_size) + 4.0 * _U * slope_size) * rho
         + (f.degree + 16) * _U * (size + slope_size * rho + curvature * rho * rho / 2.0))

    def bound(c, rho):
        vals = f.eval(c)
        return vals, vals + np.abs(df.eval(c)) * rho + curvature * (rho * rho / 2.0)

    return bound, r


def _sweep_1d(f: GegenbauerExpansion, interval, spec: DomainSpec, condition: str,
              slack: float = 0.0, refute: float = np.inf) -> ViolationReport:
    """Sign of f on the interval by _bisect, starting from both ends, with
    the _taylor bound on each cell and refute as its stop; r is _taylor's
    for the widest cell plus slack, how far the function checked may lie
    from f on [-1, 1]."""
    a, b = float(interval[0]), float(interval[1])
    if not a <= b:
        raise ParameterError(f"empty interval [{a}, {b}]")
    if not (b - a) / spec.grid_step <= _MAX_CELLS:
        raise ParameterError(
            f"grid_step {spec.grid_step:g} is too fine for [{a}, {b}]: over 2^48 cells")
    cells, levels = _levels(max(1, math.ceil((b - a) / spec.grid_step)), _START_CELLS)
    width = (b - a) / cells
    taylor, r = _taylor(f, width / 2.0 + _MID_SLACK)
    ends = np.array([a, b])
    vals = f.eval(ends)
    best = int(np.argmax(vals))
    return _bisect(lambda mids, rho, idx: (mids, *taylor(mids[:, 0], rho)), a, width, cells,
                   levels, 1, r + slack, spec, condition,
                   (float(vals[best]), (float(ends[best]),), 2), stop=refute)


def check_sign(g: GegenbauerExpansion, S, spec: DomainSpec | None = None,
               refute: float = np.inf) -> ViolationReport:
    """Worst violation of g <= 0 on the interval S: the maximum of g as far
    as a verdict needs it (see _bisect). Where g <= 0, a certified
    worst_violation is an upper bound, not the maximum: cells bounded at
    or below 0 are not refined. The sweep stops at the first level with a sample above
    refute; the best sample then is its sample_max, and worst_violation is
    sound but loose."""
    spec = spec or DomainSpec()
    return _sweep_1d(g, S, spec, "sign:g<=0", refute=refute)


def check_pair_condition(F: TripleCertificate, f: GegenbauerExpansion, T,
                         spec: DomainSpec | None = None) -> ViolationReport:
    """Worst violation of F(1, t, t) <= f(t) over t in T: a sign check of
    F(1, t, t) - f(t) built by _pair_expansion in f's dimension, with
    check_sign's bound, swept without a refutation level."""
    spec = spec or DomainSpec()
    e, slack = _pair_expansion(f.n, F, [(-1, f)])
    return _sweep_1d(e, T, spec, "pair:F(1,t,t)<=f", slack)


def check_dd_pair_condition(h: GegenbauerExpansion, h0: float, F: TripleCertificate,
                            g: GegenbauerExpansion, T,
                            spec: DomainSpec | None = None,
                            refute: float = np.inf) -> ViolationReport:
    """Worst violation of h(t) + h0 + F(1, t, t) <= 2 g(t) over t in T, as
    check_pair_condition but with check_sign's refute; h must have g's
    dimension (ParameterError)."""
    spec = spec or DomainSpec()
    e, slack = _pair_expansion(g.n, F, [(1, h), (1, GegenbauerExpansion(g.n, [h0])), (-2, g)])
    return _sweep_1d(e, T, spec, "pair:h+h0+F(1,t,t)<=2g", slack, refute)


def triple_cells(T, grid_step: float) -> tuple[int, int]:
    """_levels of the triple sweep of T^3 down to boxes at most grid_step
    wide; ParameterError unless -1 <= a <= b <= 1, b >= -1/2 and the finest
    wedge holds at most 2^24 boxes (steps from about 0.0034 on [-1, 1/2]).
    D3(T) is empty exactly when b < -1/2; else it holds (b, b, b), whose
    Gram determinant is (1 - b)^2 (1 + 2b) >= 0."""
    a, b = float(T[0]), float(T[1])
    if not -1.0 <= a <= b <= 1.0:
        raise ParameterError(f"triple domain T must satisfy -1 <= a <= b <= 1, got {T}")
    if b < -0.5:
        raise ParameterError(
            f"D3(T) is empty for T = [{a}, {b}]: b < -1/2, but realizable triples have "
            f"t + u + v >= -3/2, since |x + y + z|^2 = 3 + 2(t + u + v) >= 0")
    count = max(1, math.ceil(min((b - a) / grid_step, _MAX_AXIS_3D + 1)))
    cells, levels = _levels(count, _START_CELLS_3D)
    if cells << levels > _MAX_AXIS_3D:
        # the most cells that fit, a multiple of 2^top, are cut into exactly
        # that many; 1.01 keeps the step printed to 3 digits at or above it
        top = _levels(_MAX_AXIS_3D, _START_CELLS_3D)[1]
        raise ParameterError(
            f"triple grid step {grid_step:g} is too fine for [{a}, {b}]: its "
            f"wedge would hold over 2^24 boxes; the finest step that fits is "
            f"{1.01 * (b - a) / (_MAX_AXIS_3D >> top << top):.3g}")
    return cells, levels


def _triple_expansion(F: TripleCertificate, g: GegenbauerExpansion) -> tuple[np.ndarray, float]:
    """phi = F(t, u, v) - g(t) - g(u) - g(v) as one tensor, exact from the
    stored floats (Python ints over one denominator) and rounded once, and
    a slack: the sum of the roundings (monomials are at most 1 on
    [-1, 1]^3), up one ulp. F's tensor is
    exactly symmetric, so phi is too, and its value at the wedge point
    sort(t, u, v) is its value at (t, u, v)."""
    c = F.poly()
    phi = np.zeros((max(c.shape[0], g.coeffs.size),) * 3)
    phi[: c.shape[0], : c.shape[1], : c.shape[2]] = c
    # g's monomial coefficients mono[i] / den, in Python ints: g's floats
    # over their power-of-two lcm L, the rows over the lcm D of theirs
    gn, L = _over_lcm(g.coeffs.tolist())
    rows = [monomial_coeffs(g.n, k) for k in range(len(gn))]
    D = math.lcm(*(x.denominator for row in rows for x in row))
    mono = [0] * phi.shape[0]
    for b, row in zip(gn, rows):
        for i, x in enumerate(row):
            mono[i] += b * x.numerator * (D // x.denominator)
    den = D * L
    # each rounding error is |exact - rounded| = r / (den q) with q a power
    # of two; the largest q is a multiple of every other
    errs = []
    for i, x in enumerate(mono):
        for pos in {(i, 0, 0), (0, i, 0), (0, 0, i)}:
            yn, yd = float(phi[pos]).as_integer_ratio()
            num = yn * den - (x if i else 3 * x) * yd
            phi[pos] = y = num / (yd * den)  # int / int rounds correctly
            zn, zd = y.as_integer_ratio()
            errs.append((abs(num * zd - zn * yd * den), yd * zd))
    Q = max(q for _, q in errs)
    err = sum(r * (Q // q) for r, q in errs) / (den * Q)
    return phi, math.nextafter(err, math.inf)


def _upper(P: np.ndarray, mids: np.ndarray, rho: float) -> np.ndarray:
    """Upper bounds of the polynomial with coefficient tensor P (m entries
    per axis) on the boxes of half-width rho about the centres mids.

    About a centre c, P(c + rho s) has the coefficients Q = P times one
    matrix M[i, p] = C(p, i) c^(p-i) rho^i per axis, and on |s| <= 1 it is
    at most Q[0, 0, 0] plus the other |Q|. Rounding: |P| |M| |M| |M| sums to
    at most sum |P| (|c| + rho <= 1 up to _MID_SLACK); M's entries are
    integers times two powers within (m - 1)u each, and the three products
    sum m terms each, so Q errs by (9m + 3)u sum |P| in total and the last
    sum adds m^3 u sum |P|. Twice that, added to each bound, covers the rest.

    The products run in the order t, u, v. The first depends on the t-centre
    alone and the second on the (t, u) centres alone, so the boxes are
    sorted by (t, u) and each distinct t-centre and (t, u) pair is
    contracted once; only the v-product and the sum of |Q| run per box,
    with the v-axis matrix built once per distinct v-centre and gathered.
    Each entry of Q is still the same three m-term sums of the same
    products, so the rounding term above is unchanged. A batch of
    t-centres, of pairs or of boxes holds at most 2^15 coefficients (one
    tensor if m^3 is larger), and one batch of each is held at a time,
    beside the m^2 entries of each distinct v-centre's matrix.
    """
    m = P.shape[0]
    p = np.arange(m)
    # C(p, i) rho^i, zero for i > p, and the power of c beside it
    scale = np.array([[math.comb(q, i) for q in p] for i in p], dtype=float) * rho ** p[:, None]
    shift = np.maximum(p[None, :] - p[:, None], 0)
    err = 2.0 * (m ** 3 + 9 * m + 3) * _U * float(np.abs(P).sum())
    out = np.empty(len(mids))
    order = np.lexsort((mids[:, 1], mids[:, 0]))
    c = mids[order]
    t_new = np.diff(c[:, 0], prepend=np.nan) != 0
    pair_new = t_new | (np.diff(c[:, 1], prepend=np.nan) != 0)
    pair_of_box = np.cumsum(pair_new) - 1
    box_edges = np.append(np.flatnonzero(pair_new), len(c))   # first box of each pair
    t_of_pair = np.cumsum(t_new[box_edges[:-1]]) - 1
    # first pair of each t-centre
    pair_edges = np.append(np.flatnonzero(t_new[box_edges[:-1]]), len(box_edges) - 1)
    v_centres, v_of_box = np.unique(c[:, 2], return_inverse=True)
    Mv = scale * v_centres[:, None, None] ** shift
    chunk = max(1, 2 ** 15 // P.size)  # t-centres, pairs or boxes per batch
    for t0 in range(0, len(pair_edges) - 1, chunk):
        t1 = min(t0 + chunk, len(pair_edges) - 1)
        M = scale * c[box_edges[pair_edges[t0:t1]], 0, None, None] ** shift
        Q1 = (M @ P.reshape(m, m * m)).reshape(-1, m, m, m)
        for p0 in range(pair_edges[t0], pair_edges[t1], chunk):
            p1 = min(p0 + chunk, pair_edges[t1])
            M = scale * c[box_edges[p0:p1], 1, None, None] ** shift
            Q2 = (M[:, None] @ Q1[t_of_pair[p0:p1] - t0]).reshape(-1, m * m, m)
            for b0 in range(box_edges[p0], box_edges[p1], chunk):
                b1 = min(b0 + chunk, box_edges[p1])
                M = Mv[v_of_box[b0:b1]]
                Q = (Q2[pair_of_box[b0:b1] - p0] @ M.transpose(0, 2, 1)).reshape(b1 - b0, -1)
                out[order[b0:b1]] = Q[:, 0] + np.abs(Q[:, 1:], out=Q[:, 1:]).sum(axis=1) + err
    return out


def check_triple_condition(F: TripleCertificate, g: GegenbauerExpansion, T,
                           spec: DomainSpec | None = None,
                           refute: float = np.inf) -> ViolationReport:
    """Worst violation of F(t, u, v) <= g(t) + g(u) + g(v) over D3(T), with
    check_sign's bound and refute.

    _bisect over the boxes of the wedge t <= u <= v cut by triple_cells,
    starting from the corner (b, b, b) of D3(T). A box is ruled out when
    the _upper bound of its Gram determinant is negative; the others get
    the _upper bound of phi (_triple_expansion), whose slack is r, and phi
    itself is sampled at their centres in D3(T).
    """
    spec = spec or DomainSpec(grid_step=DEFAULT_STEP_3D)
    a, b = float(T[0]), float(T[1])
    cells, levels = triple_cells((a, b), spec.grid_step)
    phi, slack = _triple_expansion(F, g)

    def level(mids, rho, idx):
        bound = np.full(len(mids), -np.inf)
        keep = _upper(_DET, mids, rho) >= 0.0
        mids = mids[keep]
        bound[keep] = _upper(phi, mids, rho)
        points = mids[d3_determinant(*mids.T) >= -D3_MEMBERSHIP_TOL]
        return points, _eval_tensor(phi, *points.T), bound

    corner = (float(_eval_tensor(phi, b, b, b)), (b, b, b), 1)
    return _bisect(level, a, (b - a) / cells, cells, levels, 3, slack, spec, "triple:F<=g+g+g",
                   corner, stop=refute)
