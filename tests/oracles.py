"""Reference computations that tests compare production code against.

Each oracle reaches its result by a route independent of the code under
test: Gauss quadrature for orthogonality, exact Gram-Schmidt for monomial
coefficients, and the kernel matrix S_k assembled entry by entry from the
production Q_k tensors. The whole-array loops are the evaluation
algorithms as they stood before blocking, kept to check the blocked
production paths against bit for bit; the whole-matrix pair sums are
energy and moment as they stood before tiling. The cap problem is kept
in its m*n configuration coordinates, as capopt.cap_max searched it before
it searched the heights alone, through scipy's SLSQP. The projection
of configurations onto the cap is kept as cap_max applied it before it
lifted its heights until q(t) <= 1 held exactly. The PSD decisions on
the cap matrix C(t) are kept as capopt made them before it decided
q(t) <= 1 exactly: C with its rounding bounds, floating-point Cholesky
in elementwise numpy, Rump's shifted Cholesky test for positive
definiteness and a checked vector for not PSD. The Taylor bound of a coefficient
tensor on boxes is kept as it stood before its t- and (t, u)-products
were shared between boxes. The 1-D sweep and the triple sweep are kept
as loops of their own, as they stood before they shared one bisection
loop but with its rule to drop at 0 and stop at a refutation level,
and the triple sweep with its start at the corner (b, b, b). The
S_k kernel tensor and a matrix certificate's coefficient tensor are kept
as they stood before the kernel was summed in integers and the shifted
copies were added per offset: in Fractions, one copy per entry. The
maximum of an expansion on a cell comes from mpmath interval arithmetic. Full
certificates with known margins are built as the benchmark builds its
triple workload's.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from mpmath import iv, mp
from scipy.optimize import minimize
from scipy.special import roots_gegenbauer

from spherecert.errors import CapabilityError, DomainError, ParameterError
from spherecert.gegenbauer import (
    _EDGE_SLACK,
    _check_dimension,
    gegenbauer_eval,
    monomial_coeffs,
)
from spherecert.threepoint import _eval_tensor, _kernel_tensor, _symmetrize
from spherecert.verify import (
    _DET,
    _MID_SLACK,
    _START_CELLS,
    _U,
    D3_MEMBERSHIP_TOL,
    ViolationReport,
    _clenshaw_err,
    _levels,
    _triple_expansion,
    _upper,
    d3_determinant,
    triple_cells,
)

MONOMIAL_ORACLE_MAX_DEGREE = 12


def orthogonality_oracle(n: int, j: int, k: int) -> float:
    """Integral of G_j * G_k against the weight (1-t^2)^((n-3)/2).

    Uses a Gauss rule with ceil((j+k)/2)+2 nodes, exact for polynomials of
    degree j+k. Independent of the recurrence used to evaluate the product.
    """
    _check_dimension(n)
    if j < 0 or k < 0:
        raise ParameterError("polynomial degrees must be >= 0")
    m = (j + k + 1) // 2 + 2
    lam = (n - 2) / 2.0
    nodes, weights = roots_gegenbauer(m, lam)
    return float(np.sum(weights * gegenbauer_eval(n, j, nodes) * gegenbauer_eval(n, k, nodes)))


def _weighted_even_moment(n: int, p: int) -> Fraction:
    """Exact value of <t^(2p)> / <1> under the weight, as a Fraction.

    Ratio of Beta integrals; telescopes to prod_{i=1..p} (2i-1)/(n+2i-2).
    """
    out = Fraction(1)
    for i in range(1, p + 1):
        out *= Fraction(2 * i - 1, n + 2 * i - 2)
    return out


def _monomial_inner(n: int, a: int, b: int) -> Fraction:
    if (a + b) % 2 == 1:
        return Fraction(0)
    return _weighted_even_moment(n, (a + b) // 2)


def monomial_oracle(n: int, k: int) -> list[float]:
    """Monomial coefficients of G_k obtained by Gram-Schmidt on 1, t, t^2, ...

    Runs in exact rational arithmetic against the weight's moments, then
    normalizes at t = 1. Independent of the three-term recurrence; capped
    at degree 12.
    """
    return [float(c) for c in _monomial_oracle_exact(n, k)]


def _monomial_oracle_exact(n: int, k: int) -> list[Fraction]:
    _check_dimension(n)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k!r}")
    if k > MONOMIAL_ORACLE_MAX_DEGREE:
        raise CapabilityError(
            f"Gram-Schmidt oracle supports degree <= {MONOMIAL_ORACLE_MAX_DEGREE}, got {k}"
        )
    basis: list[list[Fraction]] = []
    for deg in range(k + 1):
        p = [Fraction(0)] * deg + [Fraction(1)]  # t^deg
        for q in basis:
            num = _poly_weighted_inner(n, p, q)
            den = _poly_weighted_inner(n, q, q)
            factor = num / den
            for i, qc in enumerate(q):
                p[i] -= factor * qc
        basis.append(p)
    p = basis[k]
    norm = sum(p)  # value at t = 1
    return [c / norm for c in p]


def _poly_weighted_inner(n: int, p: list[Fraction], q: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for a, pa in enumerate(p):
        if pa == 0:
            continue
        for b, qb in enumerate(q):
            if qb == 0:
                continue
            total += pa * qb * _monomial_inner(n, a, b)
    return total


def bv_matrix(n: int, k: int, d: int, t: float, u: float, v: float) -> np.ndarray:
    """The (d+1-k)-square symmetrized kernel matrix S_k at (t, u, v), built
    from the production Q_k tensor and point evaluator."""
    # Q_k with t, u and v in turn as the opposite variable
    q_t, q_u, q_v = _eval_tensor(_kernel_tensor(n, k), [t, u, v], [u, t, t], [v, v, u])
    tp, up, vp = (float(x) ** np.arange(d + 1 - k) for x in (t, u, v))
    m = q_t * np.outer(up, vp) + q_u * np.outer(tp, vp) + q_v * np.outer(tp, up)
    return (m + m.T) / 6.0


def kernel_tensor_fraction(n: int, k: int) -> np.ndarray:
    """threepoint._kernel_tensor summed term by term in Fractions and each
    entry rounded by float(Fraction)."""
    exact = np.zeros((k + 1,) * 3, dtype=object)
    for m, am in enumerate(monomial_coeffs(n - 1, k)):
        if am == 0:
            continue
        r = (k - m) // 2
        for p, q, s in itertools.product(range(m + 1), range(r + 1), range(r + 1)):
            term = (-1) ** (p + q + s) * math.comb(m, p) * math.comb(r, q) * math.comb(r, s)
            exact[m - p, p + 2 * q, p + 2 * s] += am * term
    return exact.astype(float)


def poly_per_entry(F) -> np.ndarray:
    """TripleCertificate.poly() of a matrix certificate with one shifted
    copy of kernel_tensor_fraction's Q_k per entry of H_k, in
    np.ndenumerate order."""
    a = np.zeros((F.d + 1,) * 3)
    for k, h in enumerate(F.H):
        q = kernel_tensor_fraction(F.n, k)
        for (i, j), hij in np.ndenumerate(h):
            a[: k + 1, i : i + k + 1, j : j + k + 1] += hij * q
    return _symmetrize(a)


def _clamp_whole_array(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    # "not <=" so that NaN fails the test too
    if not np.all(np.abs(t) <= 1.0 + _EDGE_SLACK):
        bad = t[~(np.abs(t) <= 1.0 + _EDGE_SLACK)]
        raise DomainError(f"argument outside [-1, 1]: {bad.flat[0]}")
    return np.clip(t, -1.0, 1.0)


def clenshaw_whole_array(n: int, coeffs, t) -> np.ndarray:
    """sum(c_k G_k(t)) by Clenshaw's recurrence as numpy operations on the
    whole array, each step c_k + (a_k t) b1 + beta_k b2 in that order."""
    t = _clamp_whole_array(t)
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for k in range(len(coeffs) - 1, -1, -1):
        a, beta = (2 * k + n - 2) / (k + n - 2), -(k + 1) / (k + n - 1)
        b1, b2 = float(coeffs[k]) + a * t * b1 + beta * b2, b1
    return b1


def forward_whole_array(n: int, k: int, t) -> np.ndarray:
    """G_k(t) by the three-term recurrence as numpy operations on the whole
    array, each step ((2j+n-4) t cur - (j-1) prev) / (j+n-3) in that order."""
    t = _clamp_whole_array(t)
    prev = np.ones_like(t)
    if k == 0:
        return prev
    cur = t.copy()
    for j in range(2, k + 1):
        prev, cur = cur, ((2 * j + n - 4) * t * cur - (j - 1) * prev) / (j + n - 3)
    return cur


def energy_whole_matrix(code, g) -> float:
    """E_g with g evaluated at every entry of the Gram matrix at once."""
    vals = g.eval(code.gram())
    return float(np.sum(vals) - np.trace(vals))


def moment_whole_matrix(code, k: int) -> float:
    """The k-th moment with G_k evaluated at every entry at once."""
    return float(np.sum(gegenbauer_eval(code.n, k, code.gram())))


# Working precision of the interval oracle, in bits.
_IV_PREC = 160


def _series_iv(n: int, coeffs: list, x):
    """sum c_k G_k(x) in dimension n, in interval arithmetic, by the forward
    recurrence G_{k+1} = ((2k+n-2) x G_k - k G_{k-1}) / (k+n-2)."""
    prev, cur = iv.mpf(1), x
    total = coeffs[0] + (coeffs[1] * x if len(coeffs) > 1 else 0)
    for k in range(1, len(coeffs) - 1):
        prev, cur = cur, ((2 * k + n - 2) * x * cur - k * prev) / (k + n - 2)
        total += coeffs[k + 1] * cur
    return total


def cell_max_exact(n: int, coeffs, lo: float, hi: float, samples: int = 16):
    """Lower end of an enclosure of max f on [lo, hi], f = sum c_k G_k with
    the float coefficients taken as exact; an mpmath mpf.

    The maximum lies at an end or where f' = 0. f' (from G_k' = k(k+n-2)/
    (n-1) G_{k-1} in dimension n+2) is enclosed at samples + 1 equally
    spaced points; each certain change of sign is bisected to 2^-60 of the
    cell, and f is enclosed at the ends and at those zeros of f'. A pair of
    zeros between two samples would be missed, which can only lower the
    result.
    """
    old = iv.prec
    iv.prec = _IV_PREC
    try:
        c = [iv.mpf(float(x)) for x in coeffs]
        dc = [c[k] * k * (k + n - 2) / (n - 1) for k in range(1, len(c))] or [iv.mpf(0)]

        def f(x):
            return _series_iv(n, c, iv.mpf(x))

        def slope_sign(x):
            d = _series_iv(n + 2, dc, iv.mpf(x))
            lower, upper = (mp.make_mpf(e) for e in d._mpi_)
            return 1 if lower > 0 else -1 if upper < 0 else 0

        a, b = iv.mpf(float(lo)), iv.mpf(float(hi))
        points = [a + (b - a) * i / samples for i in range(samples + 1)]
        points = [p.mid for p in points]
        candidates = [a, b]
        signs = [slope_sign(p) for p in points]
        for (p, sp), (q, sq) in zip(zip(points, signs), zip(points[1:], signs[1:])):
            if sp * sq >= 0:
                continue
            for _ in range(60):
                m = (p + q) / 2
                m = m.mid
                if slope_sign(m) == sp:
                    p = m
                else:
                    q = m
            candidates.append(p)
        return max(mp.make_mpf(f(x)._mpi_[0]) for x in candidates)
    finally:
        iv.prec = old


def _residuals(Y: np.ndarray, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Cap constraints of one (m, n) configuration as SLSQP residuals: eq ==
    0 is the unit norms (Gram diagonal minus 1); ineq >= 0 is cap
    membership t0 - y_j[0], then 1/2 - y_i . y_j over the pairs i < j."""
    gram = Y @ Y.T
    iu, ju = np.triu_indices(len(Y), 1)
    return np.diagonal(gram) - 1.0, np.concatenate([t0 - Y[:, 0], 0.5 - gram[iu, ju]])


def _residual_jacobians(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of both parts of _residuals for one (m, n) configuration,
    with respect to its flattened coordinates: (m, m*n) and
    (m + m(m-1)/2, m*n)."""
    m, n = Y.shape
    rows = np.arange(m)
    iu, ju = np.triu_indices(m, 1)
    pair_rows = np.arange(m, m + iu.size)
    eq = np.zeros((m, m, n))
    eq[rows, rows] = 2.0 * Y
    ineq = np.zeros((m + iu.size, m, n))
    ineq[rows, rows, 0] = -1.0
    ineq[pair_rows, iu] = -Y[ju]
    ineq[pair_rows, ju] = -Y[iu]
    return eq.reshape(m, m * n), ineq.reshape(-1, m * n)


def cap_max_configurations(g, t0: float, m: int, n: int, starts: int, seed: int):
    """Best sum_j g(y_j[0]) found for the cap problem in its m*n coordinates
    under the m(m+3)/2 constraints of _residuals, the problem capopt.cap_max
    solved before it searched the heights alone: scipy.optimize.minimize's
    SLSQP from seeded random configurations in the cap, keeping the runs
    that end within 1e-9 of feasible. Returns the value and its (m, n)
    configuration, or (-inf, None)."""
    rng = np.random.default_rng(seed)
    dg = g.derivative()

    def heights(x):
        return np.clip(x[0::n], -1.0, 1.0)

    def neg_obj_grad(x):
        out = np.zeros(m * n)
        out[0::n] = -dg.eval(heights(x))
        return out

    cons = [{"type": "eq", "fun": lambda x: _residuals(x.reshape(m, n), t0)[0],
             "jac": lambda x: _residual_jacobians(x.reshape(m, n))[0]},
            {"type": "ineq", "fun": lambda x: _residuals(x.reshape(m, n), t0)[1],
             "jac": lambda x: _residual_jacobians(x.reshape(m, n))[1]}]
    best, best_cfg = -np.inf, None
    for _ in range(starts):
        s = rng.uniform(-1.0, t0, size=(m, 1))
        w = rng.normal(size=(m, n - 1))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        res = minimize(lambda x: -float(np.sum(g.eval(heights(x)))),
                       np.hstack([s, np.sqrt(1.0 - s * s) * w]).ravel(), jac=neg_obj_grad,
                       method="SLSQP", constraints=cons, options={"maxiter": 300, "ftol": 1e-14})
        eq, ineq = _residuals(res.x.reshape(m, n), t0)
        value = float(np.sum(g.eval(heights(res.x))))
        if max(np.max(np.abs(eq)), np.max(-ineq)) <= 1e-9 and value > best:
            best, best_cfg = value, res.x.reshape(m, n)
    return best, best_cfg


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


def dd_certificate(d: int, valid: bool) -> dict:
    """Full-mode certificate in dimension 4 on T = [-1, 1/2], built as the
    benchmark's triple workload builds its unperturbed ones.

    H_k = P_k (+ c E0 for k = 0) with P_k = A_k A_k^T positive
    semidefinite. On realizable triples every kernel entry is at most 1 in
    size, so |F - c| <= S = sum_k sum |P_k|. g is a negative constant plus
    a tail of size delta; c, F0 and h0 are then set so that every side
    condition holds with a margin of S/4. The invalid certificate raises
    H_0[0,0] until F > g + g + g by S/4 everywhere on D3(T), and raises F0
    so that H_0 - F0 E0 has a negative diagonal entry.
    """
    rng = np.random.default_rng([4, d])
    H = []
    for k in range(d + 1):
        size = d + 1 - k
        A = rng.normal(size=(size, size))
        H.append(A @ A.T / (size * size * (k + 1)))
    S = float(sum(np.abs(h).sum() for h in H))
    g_tail = rng.normal(size=d) * 0.02 * S / np.arange(1, d + 1)
    delta = float(np.abs(g_tail).sum())
    g0 = -delta - 0.05 * S
    c = 3.0 * (g0 - delta) - 1.25 * S
    h = rng.normal(size=d + 1) * 0.05 * S / np.arange(1, d + 2)
    h0 = 2.0 * (g0 - delta) - S - c - float(np.abs(h).sum()) - 0.25 * S
    p00 = float(H[0][0, 0])
    H[0][0, 0] += c
    F0 = c
    if not valid:
        lift = 3.0 * (g0 + delta) + S - c + 0.25 * S
        H[0][0, 0] += lift
        F0 = c + lift + p00 + 0.25 * S
    F = {"n": 4, "d": d, "F0": F0, "H": [m.tolist() for m in H]}
    return {"g": {"n": 4, "coeffs": [g0, *g_tail.tolist()]}, "T": [-1.0, 0.5],
            "h": {"n": 4, "coeffs": h.tolist()}, "h0": h0, "F": F, "F0": F0}


def upper_per_box(P: np.ndarray, mids: np.ndarray, rho: float) -> np.ndarray:
    """verify._upper with all three Taylor-shift products run for every box:
    the same bound and rounding term, without sharing a t-centre or a
    (t, u) pair between boxes."""
    m = P.shape[0]
    p = np.arange(m)
    scale = np.array([[math.comb(q, i) for q in p] for i in p], dtype=float) * rho ** p[:, None]
    shift = np.maximum(p[None, :] - p[:, None], 0)
    err = 2.0 * (m ** 3 + 9 * m + 3) * _U * float(np.abs(P).sum())
    out = np.empty(len(mids))
    chunk = max(1, 2 ** 16 // P.size)
    for s in range(0, len(mids), chunk):
        M = scale * mids[s : s + chunk, :, None, None] ** shift   # (box, axis, i, p)
        Q = (M[:, 0] @ P.reshape(m, m * m)).reshape(-1, m, m, m)
        Q = (M[:, None, 1] @ Q @ M[:, None, 2].transpose(0, 1, 3, 2)).reshape(len(M), -1)
        out[s : s + chunk] = Q[:, 0] + np.abs(Q[:, 1:]).sum(axis=1) + err
    return out


def sweep_1d_loop(f, interval, spec, condition: str, slack: float = 0.0,
                  refute: float = np.inf):
    """verify._sweep_1d from a loop of its own, as it stood before the 1-D
    and triple checks shared one bisection loop, with that loop's rule: a
    cell is dropped when its bound is at most max(best sample, 0), the
    largest bound dropped above the best sample counts in the result, and
    the sweep ends after a level whose best sample is above refute."""
    df = f.derivative()
    size = float(np.sum(np.abs(f.coeffs)))
    slope_size = f.derivative_bound()
    curvature = df.derivative_bound()
    a, b = float(interval[0]), float(interval[1])
    cells, levels = _levels(max(1, math.ceil((b - a) / spec.grid_step)), _START_CELLS)
    width = (b - a) / cells
    rho = width / 2.0 + _MID_SLACK
    r = (_clenshaw_err(f.degree, size)
         + (_clenshaw_err(f.degree - 1, slope_size) + 4.0 * _U * slope_size) * rho
         + (f.degree + 16) * _U * (size + slope_size * rho + curvature * rho * rho / 2.0) + slack)
    ends = np.array([a, b])
    vals = f.eval(ends)
    best = int(np.argmax(vals))
    best_val, best_x = float(vals[best]), float(ends[best])
    evaluations, settled = 2, -np.inf
    idx = np.arange(cells)
    for _ in range(levels + 1):
        mids = a + (2 * idx + 1) * (width / 2.0)
        vals = f.eval(mids)
        evaluations += idx.size
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_x = float(vals[j]), float(mids[j])
        rho = width / 2.0 + _MID_SLACK
        bound = vals + np.abs(df.eval(mids)) * rho + curvature * (rho * rho / 2.0)
        live = bound > max(best_val, 0.0)
        if best_val < 0.0:
            settled = max(settled, float(np.max(bound[~live], initial=-np.inf)))
        if best_val > refute:
            break
        idx = (2 * idx[live][:, None] + np.array([0, 1])).ravel()
        if idx.size == 0:
            break
        width /= 2.0
    worst = max(best_val, settled, float(np.max(bound[live], initial=-np.inf))) + r
    return ViolationReport(condition, spec.mode, worst if spec.certified else best_val,
                           (best_x,), spec.grid_step, spec.certified, best_val, evaluations)


def triple_sweep_loop(F, g, T, spec, refute: float = np.inf):
    """verify.check_triple_condition from a loop of its own, as it stood
    before the 1-D and triple checks shared one bisection loop, with
    sweep_1d_loop's rule to drop at 0 and stop above refute, started from
    phi at the corner (b, b, b)."""
    a, b = float(T[0]), float(T[1])
    cells, levels = triple_cells((a, b), spec.grid_step)
    phi, slack = _triple_expansion(F, g)
    width = (b - a) / cells
    idx = np.array(list(itertools.combinations_with_replacement(range(cells), 3)))
    best_val, best_loc = float(_eval_tensor(phi, b, b, b)), (b, b, b)
    evaluations, settled = 1, -np.inf
    for _ in range(levels + 1):
        rho = width / 2.0 + _MID_SLACK
        mids = a + (2 * idx + 1) * (width / 2.0)
        keep = _upper(_DET, mids, rho) >= 0.0
        idx, mids = idx[keep], mids[keep]
        t, u, v = mids[d3_determinant(*mids.T) >= -D3_MEMBERSHIP_TOL].T
        if t.size:
            vals = _eval_tensor(phi, t, u, v)
            evaluations += t.size
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_loc = float(vals[j]), (float(t[j]), float(u[j]), float(v[j]))
        bound = _upper(phi, mids, rho)
        live = bound > max(best_val, 0.0)
        if best_val < 0.0:
            settled = max(settled, float(np.max(bound[~live], initial=-np.inf)))
        if best_val > refute:
            break
        kids = (2 * idx[live][:, None] + np.indices((2, 2, 2)).reshape(3, -1).T).reshape(-1, 3)
        idx = kids[(kids[:, 0] <= kids[:, 1]) & (kids[:, 1] <= kids[:, 2])]
        width /= 2.0
    worst = max(best_val, settled, float(np.max(bound[live], initial=-np.inf))) + slack
    return ViolationReport("triple:F<=g+g+g", spec.mode, worst if spec.certified else best_val,
                           best_loc, spec.grid_step, spec.certified, best_val, evaluations)
