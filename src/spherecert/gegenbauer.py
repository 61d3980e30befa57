"""Normalized Gegenbauer polynomials and expansions in that basis.

G_k here always means the degree-k polynomial orthogonal on [-1, 1] with
respect to the weight (1 - t^2)^((n-3)/2), scaled so that G_k(1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "GegenbauerExpansion",
    "gegenbauer_eval",
    "monomial_coeffs",
    "monomial_to_gegenbauer",
]

# Evaluation points may overshoot [-1, 1] by rounding when they come from
# float inner products of unit vectors; clamp up to this slack.
_EDGE_SLACK = 1e-12

# Up to this many points, Clenshaw runs in Python floats one point at a
# time: numpy's per-operation overhead outweighs its vector speed below
# about 40 points, at any degree.
_SMALL_INPUT = 32

# Larger inputs run through the recurrences in blocks of this many points,
# in place in four preallocated buffers of one block each. The working set,
# 4 x 128 KiB, stays in a core's L2 (1-2 MiB on current x86) instead of
# streaming array-sized temporaries through memory at every step. The fixed
# cost of a block (slicing, domain check and clamp calls, about 16 us on a
# 2-core Xeon VM) is 1.5 % of a degree-22 block and 0.5 % at degree 60.
# On that VM 8192 points ran 15-25 % slower from numpy's per-call overhead,
# and 131072 slower still, its working set spilling out of L2.
_BLOCK = 16384


def _check_dimension(n: int, lo: int = 3) -> None:
    if not isinstance(n, (int, np.integer)) or n < lo:
        raise ParameterError(f"dimension must be an integer >= {lo}, got {n!r}")


def _blockwise(t, recurrence) -> np.ndarray:
    """Run recurrence(x, b1, b2, q) on the points of t in blocks of _BLOCK.

    Each block is checked against the domain, clamped into x and handed
    over with three scratch buffers of its size; recurrence returns the
    buffer holding its values. The buffers are allocated once per call and
    t is never written. Returns a new float array of t's shape. A DomainError
    names the first offending value in t's order.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.empty(flat.size)
    bufs = np.empty((4, min(flat.size, _BLOCK)))
    lim = 1.0 + _EDGE_SLACK
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo:lo + _BLOCK]
        # min and max are NaN when the block holds one, which fails the test
        if not (-lim <= block.min() and block.max() <= lim):
            bad = block[~(np.abs(block) <= lim)]
            raise DomainError(f"argument outside [-1, 1]: {bad[0]}")
        x, b1, b2, q = (b[:block.size] for b in bufs)
        np.clip(block, -1.0, 1.0, out=x)
        out[lo:lo + block.size] = recurrence(x, b1, b2, q)
    return out.reshape(t.shape)


def _forward_recurrence(n: int, k: int, x, prev, cur, q):
    """G_k(x) for one block of _blockwise, in place."""
    prev.fill(1.0)
    if k == 0:
        return prev
    if k == 1:
        return x
    np.copyto(cur, x)
    for j in range(2, k + 1):
        # ((2j+n-4) x cur - (j-1) prev) / (j+n-3), in that order
        np.multiply(x, 2 * j + n - 4, out=q)
        q *= cur
        prev *= j - 1
        q -= prev
        q /= j + n - 3
        prev, cur, q = cur, q, prev
    return cur


def _clenshaw(table, x, b1, b2, q):
    """Clenshaw's backward recurrence over table for one block of
    _blockwise, in place."""
    b1.fill(0.0)
    b2.fill(0.0)
    for c, a, beta in table:
        # c + (a x) b1 + beta b2, in that order
        np.multiply(x, a, out=q)
        q *= b1
        q += c
        b2 *= beta
        q += b2
        b1, b2, q = q, b1, b2
    return b1


def gegenbauer_eval(n: int, k: int, t):
    """Evaluate G_k in dimension n at t (scalar or array) by the
    three-term recurrence

        G_k(t) = ((2k+n-4) t G_{k-1}(t) - (k-1) G_{k-2}(t)) / (k+n-3).

    Returns a Python float for a scalar, a numpy scalar for a 0-d array
    and otherwise an array of t's shape.
    """
    _check_dimension(n)
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ParameterError(f"degree must be an integer >= 0, got {k!r}")
    out = _blockwise(t, partial(_forward_recurrence, n, k))
    return float(out) if np.isscalar(t) else out[()]


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

    @cached_property
    def _recurrence(self) -> list[tuple[float, float, float]]:
        """Clenshaw table (c_k, (2k+n-2)/(k+n-2), -(k+1)/(k+n-1)) in
        descending k, shared by both evaluation paths of eval. Built on
        first use, so coefficients must not change after construction."""
        n = self.n
        return [(float(self.coeffs[k]), (2 * k + n - 2) / (k + n - 2), -(k + 1) / (k + n - 1))
                for k in range(self.degree, -1, -1)]

    def eval(self, t):
        """Evaluate by backward (Clenshaw) recurrence.

        Stable at the degrees certificate polynomials use; never converts
        to monomial coefficients. There are two paths, and both read one
        table, _recurrence:
        - inputs of at most _SMALL_INPUT points run it in Python floats,
          point by point, which is cheapest for the few points of an
          optimizer's callback;
        - larger inputs run it in blocks of _BLOCK points, in place in
          preallocated buffers, through the same helper as gegenbauer_eval.
        Each step computes c_k + (a_k t) b1 + beta_k b2 in that order on
        both paths, so they agree bit for bit.
        """
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        table = self._recurrence
        if t.size > _SMALL_INPUT:
            return _blockwise(t, partial(_clenshaw, table))
        values = []
        for x in t.ravel().tolist():
            if not abs(x) <= 1.0 + _EDGE_SLACK:
                raise DomainError(f"argument outside [-1, 1]: {x}")
            x = min(max(x, -1.0), 1.0)
            b1 = b2 = 0.0
            for c, a, beta in table:
                b1, b2 = c + a * x * b1 + beta * b2, b1
            values.append(b1)
        if scalar:
            return values[0]
        # [()] turns a 0-d result into a numpy scalar, as numpy arithmetic does
        return np.array(values).reshape(t.shape)[()]

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


@lru_cache(maxsize=128)
def _monomial_rows(n: int, degree: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact monomial coefficients of G_0, ..., G_degree in dimension n,
    one row each, from one pass of the three-term recurrence (cached)."""
    rows = [(Fraction(1),), (Fraction(0), Fraction(1))]
    for j in range(2, degree + 1):
        prev, cur = rows[-2], rows[-1]
        nxt = [Fraction(0)] + [(2 * j + n - 4) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= (j - 1) * c
        rows.append(tuple(c / (j + n - 3) for c in nxt))
    return tuple(rows[:degree + 1])


def monomial_coeffs(n: int, k: int) -> list[Fraction]:
    """Exact monomial coefficients of G_k via the recurrence.

    For code that must clear square roots; valid at any degree. Accepts
    n = 2, where the family degenerates to the Chebyshev polynomials of
    the first kind; kernels on codes in dimension 3 need that case.
    """
    _check_dimension(n, lo=2)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k!r}")
    return list(_monomial_rows(n, k)[k])


def monomial_to_gegenbauer(n: int, coeffs) -> list[Fraction]:
    """Exact c_k with sum c_k G_k = sum coeffs[i] s^i in dimension n, by
    back-substitution through the rows of monomial_coeffs."""
    _check_dimension(n, lo=2)
    rest = [Fraction(c) for c in coeffs]
    rows = _monomial_rows(n, len(rest) - 1)
    out = [Fraction(0)] * len(rest)
    for k in range(len(rest) - 1, -1, -1):
        c = out[k] = rest[k] / rows[k][k]
        if c:
            # G_k has the parity of k
            for i in range(k - 2, -1, -2):
                rest[i] -= c * rows[k][i]
    return out
