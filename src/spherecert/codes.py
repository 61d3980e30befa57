"""Spherical codes, their distance distributions, moments and energies.

A code is a set of N unit vectors in R^n. All pair sums below follow the
ordered-pair convention: sums run over ordered pairs (x, y), so the mass
of the distance distribution totals N - 1 and E_g counts g(x.y) twice per
unordered pair.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import AmbiguityError, ParameterError, integer
from .gegenbauer import GegenbauerExpansion, _check_dimension, gegenbauer_eval, monomial_coeffs

__all__ = [
    "SphericalCode",
    "DistanceDistribution",
    "make_simplex",
    "make_cross_polytope",
    "make_24cell",
    "builtin_code",
    "BUILTIN_NAMES",
    "distance_distribution",
    "moment",
    "energy",
    "s_sum",
    "r_value",
]

UNIT_NORM_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-9
# Side of the square tiles that pair sums compute: 128 x 128 products, so
# that a full batch of _BATCH tiles is _BATCH / 2 blocks of
# gegenbauer._BLOCK, which _blockwise spreads over the CPUs.
_TILE = 128
# Tiles that a pair sum hands its fn in one call: two blocks, one for each
# core of a 2-core VM. Eight tiles ran no faster there, and the 3.5 MiB
# they hold with their values and the blocks' buffers raised the peak
# memory of a process by up to 3 MB more than four tiles did.
_BATCH = 4


def _tiles(N: int):
    """(rows, cols) slices of the _TILE-square tiles on and above the
    diagonal of an N x N matrix."""
    for i in range(0, N, _TILE):
        for j in range(i, N, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _gram_tile(code: SphericalCode, rows: slice, cols: slice, buf: np.ndarray) -> np.ndarray:
    """The (rows, cols) tile of the code's inner-product matrix, at most
    _TILE x _TILE, written into the front of buf (a 1-d float array) and
    returned as a C-ordered view of it.

    For a float code it is points[rows] @ points[cols].T; a diagonal tile
    gets 1.0 on its diagonal, and every entry is clipped to [-1, 1]. numpy
    computes a diagonal tile, the product of a C-ordered block with its own
    transpose, as one symmetric rank-k update, so that tile is exactly
    symmetric. A built-in code's tile is a copy of a slice of its exact
    table in floats.
    """
    A, B = code.points[rows], code.points[cols]
    tile = buf[:A.shape[0] * B.shape[0]].reshape(A.shape[0], B.shape[0])
    if code.exact_products is not None:
        np.copyto(tile, code.gram()[rows, cols])
        return tile
    np.matmul(A, B.T, out=tile)
    if rows == cols:
        np.fill_diagonal(tile, 1.0)
    np.clip(tile, -1.0, 1.0, out=tile)
    return tile


def _pair_sum(code: SphericalCode, fn) -> float:
    """Sum of fn over every entry of the code's inner-product matrix.

    The matrix is never built. The tiles on and above the diagonal are
    computed from the points (_gram_tile) in batches of _BATCH, laid out
    one after another in one buffer, and fn sees each batch once, as a 1-d
    array: so a full batch reaches gegenbauer's evaluation as whole blocks,
    which it spreads over the CPUs, while fn is still called from this
    thread only. fn must act entrywise; a tile above the diagonal counts
    twice, for itself and its transposed copy below. np.sum adds each
    tile's values, a C-ordered view in the tile's own shape exactly as
    fn(tile) would return them, and math.fsum, which is exact, the tile
    sums, so neither the batching nor the thread count moves a bit. The
    tiles are those gram() is built from, so the sum is that over the tiles
    of gram(), bit for bit; with N <= _TILE the one tile is the whole
    matrix, and the sum is np.sum(fn(code.gram())).
    """
    tiles = list(_tiles(code.size))
    buf = np.empty(min(len(tiles), _BATCH) * min(code.size, _TILE) ** 2)
    sums = []
    for start in range(0, len(tiles), _BATCH):
        shapes, size = [], 0
        for rows, cols in tiles[start:start + _BATCH]:
            tile = _gram_tile(code, rows, cols, buf[size:])
            shapes.append((1.0 if rows == cols else 2.0, size, tile.shape))
            size += tile.size
        values = fn(buf[:size])
        sums += [weight * float(np.sum(values[lo:lo + r * c].reshape(r, c)))
                 for weight, lo, (r, c) in shapes]
    return math.fsum(sums)


def _exact_gram(table, pts: np.ndarray) -> np.ndarray:
    """An exact product table as a read-only float matrix, after checking
    that it is N x N, exactly symmetric with a unit diagonal, and within
    UNIT_NORM_TOL of the points' float products."""
    N = pts.shape[0]
    if len(table) != N or any(len(row) != N for row in table):
        raise ParameterError(f"exact_products must be {N} x {N}, one row per point")
    for i in range(N):
        if table[i][i] != 1:
            raise ParameterError(f"exact product ({i}, {i}) is {table[i][i]}, not 1")
        for j in range(i):
            if table[i][j] != table[j][i]:
                raise ParameterError(f"exact products ({i}, {j}) and ({j}, {i}) differ")
    g = np.array([[float(v) for v in row] for row in table])
    err = np.abs(g - pts @ pts.T)
    bad = np.argwhere(err > UNIT_NORM_TOL)
    if bad.size:
        i, j = bad[0]
        raise ParameterError(
            f"exact product ({i}, {j}) = {table[i][j]} is {err[i, j]:.3g} "
            "away from the points' product"
        )
    g.setflags(write=False)
    return g


@dataclass(eq=False)
class SphericalCode:
    """N unit vectors in R^n, immutable after construction.

    The points are a read-only, C-ordered copy of the array given, so the
    caller's array stays writable and later writes to it do not reach the
    code. Built-in codes carry an exact rational inner-product table, which
    makes their distance distributions exact and removes clustering
    ambiguity; the table is checked against the points on construction
    and kept in floats as the code's gram(), and its distance distribution
    is counted once, at first use, and kept beside it.
    """

    n: int
    points: np.ndarray
    exact_products: tuple | None = None  # tuple of tuples of Fraction, N x N
    name: str = "custom"
    _gram: np.ndarray | None = field(default=None, init=False, repr=False)
    # t -> A_t of the exact table, in Fractions (distance_distribution)
    _exact_entries: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.n = integer("code dimension", self.n)
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ParameterError(f"points must be an (N, {self.n}) array")
        if pts.shape[0] < 1:
            raise ParameterError("a code needs at least one point")
        if self.n < 2:
            raise ParameterError("code dimension must be >= 2")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("point coordinates must be finite")
        norms = np.sum(pts * pts, axis=1)
        bad = np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
        if bad.size:
            raise ParameterError(
                f"point {bad[0]} is not unit length (|x|^2 = {norms[bad[0]]!r})"
            )
        if self.exact_products is not None:
            self._gram = _exact_gram(self.exact_products, pts)
        pts.setflags(write=False)
        self.points = pts

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def gram(self) -> np.ndarray:
        """Float inner-product matrix, exactly symmetric with an exactly
        unit diagonal; read-only and cached.

        A built-in code's is its exact table in floats, made when the table
        is checked on construction. A float code's is assembled from the
        tiles the pair sums compute (_gram_tile): each tile on and above the
        diagonal, mirrored into the lower triangle. Only
        distance_distribution and triple_sum, which need every product at
        once, build it. With N <= _TILE the one tile is points @ points.T.
        """
        if self._gram is None:
            N = self.size
            g = np.empty((N, N))
            buf = np.empty(min(N, _TILE) ** 2)
            for rows, cols in _tiles(N):
                tile = _gram_tile(self, rows, cols, buf)
                g[rows, cols] = tile
                g[cols, rows] = tile.T
            g.setflags(write=False)
            self._gram = g
        return self._gram

    def to_dict(self) -> dict:
        return {"n": int(self.n), "points": [[float(x) for x in p] for p in self.points]}

    @classmethod
    def from_dict(cls, obj: dict, name: str = "custom") -> "SphericalCode":
        try:
            n = obj["n"]
            points = obj["points"]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"code object needs 'n' and 'points': {exc}")
        return cls(n, points, name=name)


@dataclass(eq=False)
class DistanceDistribution:
    """Clustered map t -> A_t over ordered pairs, diagonal excluded.

    A_t(u) counts points at inner product t from u; A_t is its average
    over u. For codes with an exact product table the keys and masses are
    Fractions and all identities hold exactly.
    """

    entries: dict
    exact: bool = False

    def total_mass(self):
        return sum(self.entries.values())

    def interval_mass(self, a: float, b: float):
        """Sum of A_t over cluster representatives in [a, b]."""
        if a > b:
            return 0
        total = 0
        for t, mass in self.entries.items():
            if a <= t <= b:
                total += mass
        return total


def distance_distribution(
    code: SphericalCode, tol: float = DEFAULT_CLUSTER_TOL
) -> DistanceDistribution:
    """Cluster the off-diagonal inner products of a code.

    Built-in codes use their exact product table and ignore tol; the table
    is counted at the first call and the count kept with the code. For
    float codes, values are merged while consecutive gaps stay within tol;
    two clusters whose centroids end up closer than 2*tol raise
    AmbiguityError.
    """
    N = code.size
    if code.exact_products is not None:
        # counting N^2 Fractions is most of code-stats on a large built-in
        # code; every caller gets its own copy of the one count
        if code._exact_entries is None:
            counts = Counter(code.exact_products[i][j]
                             for i in range(N) for j in range(N) if i != j)
            code._exact_entries = {t: Fraction(c, N) for t, c in sorted(counts.items())}
        return DistanceDistribution(dict(code._exact_entries), exact=True)

    if not 0.0 < tol < np.inf:
        raise ParameterError(f"clustering tolerance must be positive and finite, got {tol}")
    order = np.sort(code.gram()[~np.eye(N, dtype=bool)])
    if order.size == 0:
        return DistanceDistribution({})
    # each cluster is the slice of order up to the next edge, read one at a
    # time and never held as an array of its own, so that the first
    # ambiguous pair raises before the rest are read
    edges = np.flatnonzero(np.diff(order) > tol)
    edges += 1
    entries: dict[float, float] = {}
    a, start = -np.inf, 0
    for stop in map(int, itertools.chain(edges, [order.size])):
        b = float(np.mean(order[start:stop]))
        if b - a < 2 * tol:
            raise AmbiguityError(
                f"clusters at {a} and {b} are closer than 2*tol; rerun with tol < {(b - a) / 2:g}"
            )
        entries[b] = (stop - start) / N
        a, start = b, stop
    return DistanceDistribution(entries)


def moment(code: SphericalCode, k: int) -> float:
    """k-th moment: sum of G_k(x.y) over all ordered pairs, diagonal included.

    Nonnegative for every code by positive-definiteness of the basis.
    For a float code G_k is evaluated once per unordered pair, on a batch
    of tiles of products at a time computed from the points, and the tile
    sums are added (see _pair_sum); no N x N matrix is built. Up to 128
    points the value is np.sum of G_k over every entry of code.gram(), bit
    for bit.
    A code with an exact product table gets N (G_k(1) + sum_t A_t G_k(t))
    over its exact distance distribution, G_k(1) = 1, in Fractions from
    monomial_coeffs, rounded once: a spherical k-design's moment k is 0.0.
    """
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    if code.exact_products is None:
        return _pair_sum(code, lambda t: gegenbauer_eval(code.n, k, t))
    _check_dimension(code.n)
    coeffs = monomial_coeffs(code.n, integer("moment order", k))
    masses = distance_distribution(code).entries
    return float(code.size * (1 + sum(mass * sum(c * t ** i for i, c in enumerate(coeffs))
                                      for t, mass in masses.items())))


def energy(code: SphericalCode, g: GegenbauerExpansion) -> float:
    """E_g: sum of g(x.y) over ordered pairs of distinct points.

    g is evaluated once per unordered pair, on a batch of tiles of
    products at a time computed from the points, and the tile sums are
    added (see _pair_sum); no N x N matrix is built. g at the diagonal,
    where every product is exactly 1.0, is then summed and taken away. Up
    to 128 points the value is the same, bit for bit, as evaluating g at
    every entry of code.gram().
    """
    if g.n != code.n:
        raise ParameterError(
            f"expansion dimension {g.n} does not match code dimension {code.n}"
        )
    return _pair_sum(code, g.eval) - float(np.sum(g.eval(np.ones(code.size))))


def s_sum(code: SphericalCode, f: GegenbauerExpansion) -> float:
    """S_f = N f(1) + E_f, the pair sum including the diagonal."""
    return code.size * f.at_one() + energy(code, f)


def r_value(code: SphericalCode, g: GegenbauerExpansion) -> float:
    """R_g = E_g / N, the average off-diagonal g-energy per point."""
    return energy(code, g) / code.size


# ---------------------------------------------------------------------------
# Built-in codes


def make_simplex(n: int) -> SphericalCode:
    """Regular simplex: n+1 unit vectors with all pairwise products -1/n."""
    if n < 2:
        raise ParameterError("simplex dimension must be >= 2")
    # Vertices e_i - centroid of R^(n+1) live in the hyperplane orthogonal
    # to the all-ones vector; express them in an orthonormal basis of it.
    m = n + 1
    basis = np.linalg.qr(np.column_stack([np.ones(m), np.eye(m)[:, :n]]))[0][:, 1:]
    centered = np.eye(m) - 1.0 / m
    pts = centered @ basis
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    exact = tuple(
        tuple(Fraction(1) if i == j else Fraction(-1, n) for j in range(m))
        for i in range(m)
    )
    return SphericalCode(n, pts, exact_products=exact, name=f"simplex{n}")


def make_cross_polytope(n: int) -> SphericalCode:
    """Cross polytope: the 2n signed standard basis vectors."""
    if n < 2:
        raise ParameterError("cross polytope dimension must be >= 2")
    pts = np.vstack([np.eye(n), -np.eye(n)])
    exact = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            d = int(round(float(pts[i] @ pts[j])))
            row.append(Fraction(d))
        exact.append(tuple(row))
    return SphericalCode(n, pts, exact_products=tuple(exact), name=f"cross{n}")


def make_24cell() -> SphericalCode:
    """The 24 unit vectors obtained by normalizing all permutations of
    (+-1, +-1, 0, 0) in R^4; inner products lie in {0, +-1/2, +-1}."""
    scaled = []  # integer coordinates; actual points are these / sqrt(2)
    for i, j in itertools.combinations(range(4), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0, 0, 0, 0]
                v[i], v[j] = si, sj
                scaled.append(tuple(v))
    scaled.sort()
    pts = np.array(scaled, dtype=float) / np.sqrt(2.0)
    exact = tuple(
        tuple(Fraction(sum(a * b for a, b in zip(x, y)), 2) for y in scaled)
        for x in scaled
    )
    return SphericalCode(4, pts, exact_products=exact, name="24cell")


# Most points of a built-in simplex<n> or cross<n>: see builtin_code.
MAX_BUILTIN_POINTS = 1024


def builtin_code(name: str) -> SphericalCode:
    """Look up a built-in code: '24cell', 'simplex<n>' (n + 1 points) or
    'cross<n>' (2n points).

    A code of more than MAX_BUILTIN_POINTS = 1024 points is refused before
    anything is allocated. Its exact product table holds N^2 Python
    Fractions of about 90 bytes each, built, checked and counted one by
    one: at 1024 points the table takes about 100 MB and code-stats about
    200 MB and 15 s, both growing with N^2."""
    if name == "24cell":
        return make_24cell()
    for prefix, maker, points in (("simplex", make_simplex, lambda n: n + 1),
                                  ("cross", make_cross_polytope, lambda n: 2 * n)):
        if name.startswith(prefix):
            try:
                n = int(name[len(prefix):])
            except ValueError:
                break
            if points(n) > MAX_BUILTIN_POINTS:
                raise ParameterError(
                    f"built-in code {name!r} has {points(n)} points, over the "
                    f"{MAX_BUILTIN_POINTS} whose exact product table can be built")
            return maker(n)
    raise ParameterError(f"unknown built-in code {name!r}")


BUILTIN_NAMES = ("simplex3", "simplex4", "cross3", "cross4", "24cell")
