"""Normalized Gegenbauer polynomials and expansions in that basis.

G_k here always means the degree-k polynomial orthogonal on [-1, 1] with
respect to the weight (1 - t^2)^((n-3)/2), scaled so that G_k(1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import roots_gegenbauer

from .errors import CapabilityError, DomainError, ParameterError

__all__ = [
    "GegenbauerExpansion",
    "gegenbauer_eval",
    "orthogonality_oracle",
    "monomial_oracle",
    "monomial_coeffs",
]

# Evaluation points may overshoot [-1, 1] by rounding when they come from
# float inner products of unit vectors; clamp up to this slack.
_EDGE_SLACK = 1e-12

MONOMIAL_ORACLE_MAX_DEGREE = 12


def _check_dimension(n: int, lo: int = 3) -> None:
    if not isinstance(n, (int, np.integer)) or n < lo:
        raise ParameterError(f"dimension must be an integer >= {lo}, got {n!r}")


def _clamp_domain(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _EDGE_SLACK):
        bad = np.asarray(t)[np.abs(t) > 1.0 + _EDGE_SLACK]
        raise DomainError(f"argument outside [-1, 1]: {bad.flat[0]}")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_eval(n: int, k: int, t):
    """Evaluate G_k in dimension n at t (scalar or array) by the
    three-term recurrence

        G_k(t) = ((2k+n-4) t G_{k-1}(t) - (k-1) G_{k-2}(t)) / (k+n-3).
    """
    _check_dimension(n)
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ParameterError(f"degree must be an integer >= 0, got {k!r}")
    scalar = np.isscalar(t)
    t = _clamp_domain(t)
    prev = np.ones_like(t)
    if k == 0:
        return float(prev) if scalar else prev
    cur = t.copy()
    for j in range(2, k + 1):
        prev, cur = cur, ((2 * j + n - 4) * t * cur - (j - 1) * prev) / (j + n - 3)
    return float(cur) if scalar else cur


@dataclass(eq=False)
class GegenbauerExpansion:
    """A polynomial sum(c_k * G_k, k=0..d) in dimension n.

    Coefficients are stored in ascending degree; the value at t = 1 is
    exactly the coefficient sum because every basis element is 1 there.
    """

    n: int
    coeffs: np.ndarray
    provenance: str = field(default="", compare=False)

    def __post_init__(self):
        _check_dimension(self.n)
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ParameterError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(self.coeffs)):
            raise ParameterError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def at_one(self) -> float:
        """Value at t = 1, i.e. the plain coefficient sum."""
        return float(np.sum(self.coeffs))

    def eval(self, t):
        """Evaluate by backward (Clenshaw) recurrence.

        Stable at the degrees certificate polynomials use; never converts
        to monomial coefficients.
        """
        scalar = np.isscalar(t)
        t = _clamp_domain(t)
        n, c = self.n, self.coeffs
        d = self.degree
        b1 = np.zeros_like(t)
        b2 = np.zeros_like(t)
        for k in range(d, -1, -1):
            alpha = (2 * k + n - 2) / (k + n - 2) * t
            beta_next = -(k + 1) / (k + n - 1)
            b1, b2 = c[k] + alpha * b1 + beta_next * b2, b1
        return float(b1) if scalar else b1

    __call__ = eval

    def derivative(self) -> "GegenbauerExpansion":
        """Derivative, expressed in the dimension-(n+2) basis.

        Uses G_k'(t) = k(k+n-2)/(n-1) * G_{k-1} taken in dimension n+2.
        """
        n, c = self.n, self.coeffs
        if self.degree == 0:
            return GegenbauerExpansion(n + 2, [0.0])
        dc = [c[k] * k * (k + n - 2) / (n - 1) for k in range(1, self.degree + 1)]
        return GegenbauerExpansion(n + 2, dc)

    def derivative_bound(self) -> float:
        """Upper bound on |d/dt| over [-1, 1] from the coefficients.

        |G_k'| attains its maximum at t = 1, where it equals k(k+n-2)/(n-1).
        """
        n = self.n
        return float(
            sum(abs(c) * k * (k + n - 2) / (n - 1) for k, c in enumerate(self.coeffs))
        )

    def to_dict(self) -> dict:
        out = {"n": int(self.n), "coeffs": [float(c) for c in self.coeffs]}
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "GegenbauerExpansion":
        try:
            n = obj["n"]
            coeffs = obj["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"expansion object needs 'n' and 'coeffs': {exc}")
        return cls(n, coeffs, provenance=str(obj.get("provenance", "")))


def orthogonality_oracle(n: int, j: int, k: int) -> float:
    """Integral of G_j * G_k against the weight (1-t^2)^((n-3)/2).

    Uses a Gauss rule with ceil((j+k)/2)+2 nodes, exact for polynomials of
    degree j+k. Test-support routine, independent of the recurrence used
    to evaluate the product.
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


def monomial_coeffs(n: int, k: int) -> list[Fraction]:
    """Exact monomial coefficients of G_k via the recurrence.

    Production path for code that must clear square roots (unlike the
    Gram-Schmidt oracle above, valid at any degree). Accepts n = 2, where
    the family degenerates to the Chebyshev polynomials of the first kind;
    kernels on codes in dimension 3 need that case.
    """
    _check_dimension(n, lo=2)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k!r}")
    prev = [Fraction(1)]
    if k == 0:
        return prev
    cur = [Fraction(0), Fraction(1)]
    for j in range(2, k + 1):
        shifted = [Fraction(0)] + [Fraction(2 * j + n - 4) * c for c in cur]
        nxt = [Fraction(0)] * (j + 1)
        for i, c in enumerate(shifted):
            nxt[i] += c
        for i, c in enumerate(prev):
            nxt[i] -= (j - 1) * c
        prev, cur = cur, [c / (j + n - 3) for c in nxt]
    return cur
