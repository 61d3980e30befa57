"""Normalized Gegenbauer polynomials and expansions in that basis.

G_k here always means the degree-k polynomial orthogonal on [-1, 1] with
respect to the weight (1 - t^2)^((n-3)/2), scaled so that G_k(1) = 1.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

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
# in place in the block's slice of the output and three preallocated
# buffers of one block each. The working set, 4 x 256 KiB, stays in a
# core's L2 (1-2 MiB on current x86) instead of streaming array-sized
# temporaries through memory at every step. Blocks are spread over the
# CPUs the process may use (_blockwise), and a thread takes the GIL back
# after every ufunc call, so a block must be long enough for the calls to
# outlast the handoffs. Degree-60 Clenshaw on 2e6 points,
# 2-core Xeon VM, one BLAS thread, median of 9 runs, in ms:
#     block            1 thread   2 threads
#     16,384 points       163        144
#     32,768 points       153         95
#     65,536 points       189        102
# At 16,384 points the handoffs eat most of what the second core gains;
# at 65,536 a thread's working set spills out of L2.
_BLOCK = 32768


# Threads that run the blocks of one call, the calling thread included:
# the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # (threads, ThreadPoolExecutor), made at the first call that needs it
_pool_lock = threading.Lock()


def _executor(threads: int):
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            # imported here, so that a process that never evaluates more
            # than a block does not pay for the import
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="spherecert-block"))
        return _pool[1]


def _check_dimension(n: int, lo: int = 3) -> None:
    if not isinstance(n, (int, np.integer)) or n < lo:
        raise ParameterError(f"dimension must be an integer >= {lo}, got {n!r}")


def _blockwise(t, recurrence) -> np.ndarray:
    """Run recurrence(x, b1, b2, q) on the points of t in blocks of _BLOCK.

    t is checked against the domain once, whole, so a DomainError names
    the first offending value in t's order. Each block is then clamped
    into its own slice of the output, handed over as x with three scratch
    buffers of its size, and overwritten by the buffer that recurrence
    returns, which holds its values. t is never written. Returns a new
    float array of t's shape.

    With w = min(_WORKERS, blocks) > 1 workers, the calling thread and a
    thread pool of w - 1 threads each take the next block that no worker
    has taken until none is left, so a thread that the machine holds up
    leaves its share to the others. Pool threads run in a copy of the
    caller's context, so under the caller's numpy error state. The caller
    allocates every worker's buffers as one (w, 3, _BLOCK) array before
    any dispatch, and the pool threads allocate nothing. Every block runs
    the same in-place ufuncs whichever thread runs it, so each value has
    the same bits for any w. Only the recurrence, a private closure, runs
    off the calling thread: no public name of the package is called there,
    and a tracer that wraps them sees one thread.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.empty(flat.size)
    if flat.size == 0:
        return out.reshape(t.shape)
    lim = 1.0 + _EDGE_SLACK
    # min and max are NaN when t holds one, which fails the test
    if not (-lim <= flat.min() and flat.max() <= lim):
        bad = flat[~(np.abs(flat) <= lim)]
        raise DomainError(f"argument outside [-1, 1]: {bad[0]}")
    w = min(_WORKERS, -(-flat.size // _BLOCK))
    bufs = np.empty((w, 3, min(flat.size, _BLOCK)))
    starts = iter(range(0, flat.size, _BLOCK))
    taking = threading.Lock()

    def run(r):
        while True:
            with taking:
                lo = next(starts, None)
            if lo is None:
                return
            x = out[lo:lo + _BLOCK]
            np.clip(flat[lo:lo + _BLOCK], -1.0, 1.0, out=x)
            x[...] = recurrence(x, *bufs[r, :, :x.size])

    futures = []
    if w > 1:
        pool = _executor(w - 1)
        futures = [pool.submit(contextvars.copy_context().run, run, r) for r in range(1, w)]
    try:
        run(0)
    finally:
        # no worker may still write to out once this call has returned or raised
        for f in futures:
            f.exception()
    for f in futures:
        f.result()
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


def _eval_floats(g: "GegenbauerExpansion", xs: list[float]) -> list[float]:
    """g at each Python float of xs by Clenshaw's backward recurrence over
    g._recurrence, point by point: the small-input path of g.eval, also
    called directly by the cap polish's callbacks. Checks and clamps each
    point as _blockwise does, with the same DomainError."""
    table = g._recurrence
    values = []
    for x in xs:
        if not abs(x) <= 1.0 + _EDGE_SLACK:
            raise DomainError(f"argument outside [-1, 1]: {x}")
        x = min(max(x, -1.0), 1.0)
        b1 = b2 = 0.0
        for c, a, beta in table:
            b1, b2 = c + a * x * b1 + beta * b2, b1
        values.append(b1)
    return values


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
          point by point, through _eval_floats, which is cheapest for the
          few points of an optimizer's callback;
        - larger inputs run it in blocks of _BLOCK points, in place in
          preallocated buffers, spread over the CPUs, through the same
          helper as gegenbauer_eval (_blockwise).
        Each step computes c_k + (a_k t) b1 + beta_k b2 in that order on
        both paths, so they agree bit for bit.
        """
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        if t.size > _SMALL_INPUT:
            return _blockwise(t, partial(_clenshaw, self._recurrence))
        values = _eval_floats(self, t.ravel().tolist())
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


# n -> the exact monomial rows of G_0, G_1, ... in dimension n built so
# far (_monomial_rows); the lock orders the publications, readers take none
_ROWS: dict[int, tuple[tuple[Fraction, ...], ...]] = {}
_rows_lock = threading.Lock()


def _monomial_rows(n: int, degree: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact monomial coefficients of G_0, G_1, ... in dimension n, one row
    each, at least up to G_degree; row k is G_k.

    The process keeps one table per dimension and extends it, by the
    three-term recurrence from its last two rows, only when a higher degree
    is asked for: the rows of G_0..G_d cost O(d^2) Fraction operations
    once, whatever the order of the requests. The table is grown in a local
    copy and published with one assignment, under a lock that keeps the
    longer of two tables grown at once, so a caller on another thread sees
    the old table or a grown one, never a partial one. A call returns the
    table it read or built, which always reaches degree. Every row is kept
    for the life of the process, so callers that take a degree from their
    input bound it (cli.MAX_DEGREE).
    """
    rows = _ROWS.get(n, ())
    if len(rows) > degree:
        return rows
    grown = list(rows) or [(Fraction(1),), (Fraction(0), Fraction(1))]
    for j in range(len(grown), degree + 1):
        prev, cur = grown[-2], grown[-1]
        nxt = [Fraction(0)] + [(2 * j + n - 4) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= (j - 1) * c
        grown.append(tuple(c / (j + n - 3) for c in nxt))
    rows = tuple(grown)
    with _rows_lock:
        # a thread that grew the table further meanwhile keeps its table
        if len(rows) > len(_ROWS.get(n, ())):
            _ROWS[n] = rows
    return rows


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


# n -> (D, rows): row p holds the exact Gegenbauer coefficients of s^p in
# dimension n, each times D, as Python ints (_power_rows); the lock orders
# the publications, readers take none
_POWERS: dict[int, tuple[int, tuple[tuple[int, ...], ...]]] = {}
_powers_lock = threading.Lock()


def _power_rows(n: int, degree: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, rows) with rows[p][k] / D the coefficient of G_k in s^p in
    dimension n, for p = 0.. at least degree; row p has p + 1 entries.

    One table per dimension, grown only when a higher degree is asked for,
    by multiplying the last row by s:

        s G_0 = G_1,   s G_k = ((k+n-2) G_{k+1} + k G_{k-1}) / (2k+n-2),

    O(p) integer operations for row p. D is the lcm of every row's
    denominators, so the rows already built are rescaled to the new D when
    new rows bring new factors. Grown in a local copy and published with
    one assignment, under a lock that keeps the longer of two tables grown
    at once, as _monomial_rows does.
    """
    table = _POWERS.get(n)
    if table is not None and len(table[1]) > degree:
        return table
    D, rows = table or (1, ((1,),))
    # row p - 1 is last / den; row p is built over den * W, W the lcm of
    # the recurrence's divisors, and reduced by the gcd of its entries
    last, den, new = rows[-1], D, []
    for p in range(len(rows), degree + 1):
        W = lcm(*(2 * k + n - 2 for k in range(1, p)))
        nxt = [0] * (p + 1)
        nxt[1] = last[0] * W
        for k in range(1, p):
            if last[k]:
                f = W // (2 * k + n - 2) * last[k]
                nxt[k + 1] += f * (k + n - 2)
                nxt[k - 1] += f * k
        g = gcd(den * W, *nxt)
        den, last = den * W // g, [a // g for a in nxt]
        new.append((den, last))
    grown = lcm(D, *(d for d, _ in new))
    table = (grown, tuple(tuple(a * (grown // D) for a in row) for row in rows)
             + tuple(tuple(a * (grown // d) for a in row) for d, row in new))
    with _powers_lock:
        # a thread that grew the table further meanwhile keeps its table
        if len(table[1]) > len(_POWERS.get(n, (0, ()))[1]):
            _POWERS[n] = table
    return table


def _over_lcm(values) -> tuple[list[int], int]:
    """(nums, L) with values[i] = nums[i] / L exactly, L the lcm of their
    denominators: a power of two for floats. Non-finite floats raise as
    Fraction does."""
    ratios = [(c if isinstance(c, float) else Fraction(c)).as_integer_ratio() for c in values]
    L = lcm(*(den for _, den in ratios))
    return [num * (L // den) for num, den in ratios], L


def _gegenbauer_numerators(n: int, coeffs) -> tuple[list[int], int]:
    """(nums, den) with nums[k] / den the exact c_k of monomial_to_gegenbauer."""
    nums, L = _over_lcm(coeffs)
    D, rows = _power_rows(n, len(nums) - 1)
    # s^i has the parity of i
    return [sum(nums[i] * rows[i][k] for i in range(k, len(nums), 2))
            for k in range(len(nums))], D * L


def monomial_to_gegenbauer(n: int, coeffs) -> list[Fraction]:
    """Exact c_k with sum c_k G_k = sum coeffs[i] s^i in dimension n.

    Every coefficient is taken exactly as num_i / L, with L the lcm of
    their denominators (a power of two for floats), and

        c_k = sum_i num_i rows[i][k] / (D L)

    is one dot product of Python ints over the per-dimension table of
    _power_rows (grown under its lock), reduced by one gcd. It is the same
    exact rational as back-substitution through monomial_coeffs gives, so
    every caller that rounds it gets the same bits.
    """
    _check_dimension(n, lo=2)
    nums, den = _gegenbauer_numerators(n, coeffs)
    return [Fraction(a, den) for a in nums]
