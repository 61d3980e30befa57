"""Independent computations and the correctness checks built on them.

Nothing here calls spherecert. Expansion values come from
scipy.special.eval_gegenbauer normalised at t = 1, triple functions from
the kernel definition u^i v^j ((1-u^2)(1-v^2))^(k/2) G_k(s) symmetrized
over the three choices of opposite variable, and PSD verdicts from
numpy.linalg.eigvalsh. Each judge takes a report as the program printed or
returned it and returns a Findings: `problems` are wrong outputs (the run
is then not correct), `fault` names a verdict that contradicts how the
input was built (the operation is then counted as failed).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import eval_gegenbauer, poch

# Relative tolerance for values the program and the checker compute by
# different float routes (Clenshaw or monomials against scipy).
REL_TOL = 1e-9
DENSE_POINTS = 200_001


class Findings:
    def __init__(self):
        self.problems: list[str] = []
        self.fault: str | None = None

    def expect(self, cond, msg: str) -> None:
        if not cond:
            self.problems.append(msg)

    def close(self, got, want, scale: float, what: str) -> None:
        ok = got is not None and want is not None and \
            abs(float(got) - float(want)) <= REL_TOL * (1.0 + abs(scale))
        self.expect(ok, f"{what}: got {got!r}, independent value {want!r}")


# ---------------------------------------------------------------------------
# Two-point side: Gegenbauer expansions.

def gegenbauer(n: int, k: int, t):
    """Normalized G_k in dimension n >= 3 (G_k(1) = 1), via scipy."""
    lam = (n - 2) / 2.0
    return eval_gegenbauer(k, lam, np.asarray(t, dtype=float)) / eval_gegenbauer(k, lam, 1.0)


def expansion(n: int, coeffs, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for k, c in enumerate(coeffs):
        if c != 0.0:
            out = out + c * gegenbauer(n, k, t)
    return out


def chebyshev(n: int, coeffs):
    """The expansion as a Chebyshev series, interpolated from scipy values
    at degree + 1 Chebyshev nodes (exact for a polynomial of that degree);
    cheap to evaluate on millions of points."""
    return np.polynomial.Chebyshev.interpolate(
        lambda t: expansion(n, coeffs, t), max(len(coeffs) - 1, 1))


def expansion_fun(n: int, coeffs):
    """The expansion as a function: scipy directly at a few points, the
    Chebyshev interpolant on grids."""
    cheb = chebyshev(n, coeffs)

    def fun(t):
        t = np.asarray(t, dtype=float)
        return expansion(n, coeffs, t) if t.size <= 64 else cheb(t)
    return fun


def coeff_scale(coeffs) -> float:
    """Sum of |c_k|: bounds |sum c_k G_k| on [-1, 1]."""
    return float(np.sum(np.abs(coeffs)))


def dense_max(fun, a: float, b: float, points: int = DENSE_POINTS):
    """Lower estimate of max fun on [a, b]: a grid unrelated to the
    program's, then a bounded scalar search around the best node."""
    xs = np.linspace(a, b, points)
    vals = fun(xs)
    i = int(np.argmax(vals))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    res = minimize_scalar(lambda s: -float(fun(np.array([s]))[0]), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-13})
    if -res.fun > vals[i]:
        return float(res.x), float(-res.fun)
    return float(xs[i]), float(vals[i])


# ---------------------------------------------------------------------------
# Three-point side: triple functions from the kernel definition.

def _kernel(nk: int, k: int, x, R):
    """R^(k/2) G_k(x / sqrt(R)) in dimension nk; its limit a_k x^k at R = 0."""
    if k == 0:
        return np.ones_like(x)
    lam = (nk - 2) / 2.0
    lead = 2.0 ** k * poch(lam, k) / poch(2.0 * lam, k)  # leading coefficient
    safe = R > 1e-14
    root = np.sqrt(np.where(safe, R, 1.0))
    lit = root ** k * eval_gegenbauer(k, lam, x / root) / eval_gegenbauer(k, lam, 1.0)
    return np.where(safe, lit, lead * x ** k)


def triple_values(n: int, H, t, u, v):
    """F(t, u, v) = sum_k <H_k, S_k(t, u, v)> for a dimension-n matrix
    certificate, with H symmetric so both orders of the sides agree."""
    t, u, v = (np.asarray(x, dtype=float) for x in np.broadcast_arrays(t, u, v))
    d = len(H) - 1
    total = np.zeros_like(t)
    for opp, a, b in ((t, u, v), (u, t, v), (v, t, u)):
        R = (1.0 - a * a) * (1.0 - b * b)
        x = opp - a * b
        apow = np.stack([a ** i for i in range(d + 1)])
        bpow = np.stack([b ** i for i in range(d + 1)])
        for k in range(d + 1):
            size = d + 1 - k
            quad = np.sum(apow[:size] * np.tensordot(np.asarray(H[k]), bpow[:size], axes=1), axis=0)
            total += _kernel(n - 1, k, x, R) * quad
    return total / 3.0


def d3_determinant(t, u, v):
    return 1.0 + 2.0 * t * u * v - t * t - u * u - v * v


def d3_points(rng: np.random.Generator, T, count: int):
    """Uniform points of T^3 with a nonnegative Gram determinant."""
    a, b = T
    out = []
    while sum(len(p) for p in out) < count:
        p = rng.uniform(a, b, size=(4 * count, 3))
        out.append(p[d3_determinant(p[:, 0], p[:, 1], p[:, 2]) >= 0.0])
    p = np.concatenate(out)[:count]
    return p[:, 0], p[:, 1], p[:, 2]


# ---------------------------------------------------------------------------
# Judges shared by several workloads.

def judge_sweep(f: Findings, rep: dict, fun, interval, scale: float, what: str,
                points: int = DENSE_POINTS) -> None:
    """A 1-d sweep report: its sample maximum is the function at its
    location, and a certified bound is at least an independent maximum."""
    loc = rep.get("location")
    f.expect(loc is not None and len(loc) == 1, f"{what}: no location")
    if loc is None or len(loc) != 1:
        return
    f.expect(interval[0] - 1e-12 <= loc[0] <= interval[1] + 1e-12,
             f"{what}: location {loc[0]} outside {interval}")
    f.close(rep["sample_max"], float(fun(np.array([loc[0]]))[0]), scale,
            f"{what}: sample_max at its location")
    f.expect(rep["worst_violation"] >= rep["sample_max"],
             f"{what}: worst_violation below sample_max")
    if rep.get("certified"):
        _, indep = dense_max(fun, interval[0], interval[1], points)
        f.expect(rep["worst_violation"] >= indep - REL_TOL * (1.0 + scale),
                 f"{what}: certified bound {rep['worst_violation']!r} is below "
                 f"the independent maximum {indep!r}")


def judge_psd(f: Findings, rep: dict, mats: dict, tol: float, what: str) -> None:
    """PSD checks: verdicts and minimum eigenvalues match eigvalsh, and each
    witness w has w'Mw < -tol."""
    checks = rep.get("checks", {})
    f.expect(set(checks) == set(mats), f"{what}: checked {sorted(checks)}, want {sorted(mats)}")
    valid = True
    for name, m in mats.items():
        if name not in checks:
            continue
        c = checks[name]
        lo = float(np.linalg.eigvalsh(m)[0])
        ok = lo >= -tol
        valid &= ok
        f.expect(c["ok"] == ok, f"{what}: {name} ok={c['ok']}, eigvalsh gives {lo!r}")
        f.close(c["min_eigenvalue"], lo, float(np.max(np.abs(m))), f"{what}: {name} min eigenvalue")
        if not c["ok"]:
            w = np.asarray(c.get("witness", []), dtype=float)
            f.expect(w.shape == (m.shape[0],) and float(w @ m @ w) < -tol,
                     f"{what}: {name} witness does not show a negative direction")
    f.expect(rep.get("valid") == valid, f"{what}: valid={rep.get('valid')}, eigvalsh gives {valid}")


def cap_violation(Y: np.ndarray, t0: float) -> float:
    """Worst violation of unit norm, cap membership and pairwise <= 1/2."""
    Y = np.asarray(Y, dtype=float)
    if Y.size == 0:
        return 0.0
    worst = float(np.max(np.abs(np.linalg.norm(Y, axis=1) - 1.0)))
    worst = max(worst, float(np.max(Y[:, 0] - t0)))
    if Y.shape[0] > 1:
        iu = np.triu_indices(Y.shape[0], 1)
        worst = max(worst, float(np.max((Y @ Y.T)[iu] - 0.5)))
    return max(worst, 0.0)


def judge_cap(f: Findings, value: float, Y, n: int, coeffs, t0: float, what: str) -> None:
    Y = np.asarray(Y, dtype=float)
    f.expect(Y.ndim == 2 and Y.shape[1] == n, f"{what}: configuration shape {Y.shape}")
    viol = cap_violation(Y, t0)
    f.expect(viol <= 1e-9, f"{what}: configuration infeasible by {viol:g}")
    f.close(value, float(np.sum(expansion(n, coeffs, Y[:, 0]))), coeff_scale(coeffs) * len(Y),
            f"{what}: cap value")


def dd_bound(N: int, M: float) -> float:
    return (N - M) / (3.0 * N)


def lp_bound(coeffs, N: int):
    """c0 N - f(1) when every coefficient above degree 0 is >= 0, else None."""
    if len(coeffs) > 1 and min(coeffs[1:]) < 0:
        return None
    return coeffs[0] * N - math.fsum(coeffs)
