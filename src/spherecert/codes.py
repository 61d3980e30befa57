"""Spherical codes, their distance distributions, moments and energies.

A code is a set of N unit vectors in R^n. All pair sums below follow the
ordered-pair convention: sums run over ordered pairs (x, y), so the mass
of the distance distribution totals N - 1 and E_g counts g(x.y) twice per
unordered pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import AmbiguityError, ParameterError
from .gegenbauer import GegenbauerExpansion, gegenbauer_eval

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
# Side of the square tiles that pair sums evaluate: 128 x 128 points is
# one block of gegenbauer._BLOCK, so each tile is one pass of its loop.
_TILE = 128


def _tiles(N: int):
    """(rows, cols) slices of the _TILE-square tiles on and above the
    diagonal of an N x N matrix."""
    for i in range(0, N, _TILE):
        for j in range(i, N, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the upper triangle of the square matrix a onto its lower one,
    in place and tile by tile, so that a is exactly symmetric."""
    for rows, cols in _tiles(a.shape[0]):
        if rows == cols:
            tile = a[rows, cols]
            lower = np.tril_indices(tile.shape[0], -1)
            tile[lower] = tile.T[lower]
        else:
            a[cols, rows] = a[rows, cols].T


def _pair_values(gram: np.ndarray, fn) -> np.ndarray:
    """fn at every entry of a symmetric Gram matrix, into a new N x N array.

    fn sees each tile on and above the diagonal once; tiles below it are
    the transposed copies. fn must act entrywise, so that a value depends
    only on its entry: then the result equals fn(gram) bit for bit.
    """
    N = gram.shape[0]
    out = np.empty((N, N))
    for rows, cols in _tiles(N):
        vals = fn(gram[rows, cols])
        out[rows, cols] = vals
        if rows != cols:
            out[cols, rows] = vals.T
    return out


@dataclass(eq=False)
class SphericalCode:
    """N unit vectors in R^n, immutable after construction.

    Built-in codes carry an exact rational inner-product table, which makes
    their distance distributions exact and removes clustering ambiguity.
    """

    n: int
    points: np.ndarray
    exact_products: tuple | None = None  # tuple of tuples of Fraction, N x N
    name: str = "custom"
    _gram: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
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
        pts.setflags(write=False)
        self.points = pts

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def gram(self) -> np.ndarray:
        """Float inner-product matrix, exactly symmetric with an exactly
        unit diagonal; read-only."""
        if self._gram is None:
            if self.exact_products is not None:
                g = np.array([[float(v) for v in row] for row in self.exact_products])
            else:
                g = self.points @ self.points.T
                _mirror_upper(g)
                np.fill_diagonal(g, 1.0)
                np.clip(g, -1.0, 1.0, out=g)
            g.setflags(write=False)
            self._gram = g
        return self._gram

    def to_dict(self) -> dict:
        return {"n": int(self.n), "points": [[float(x) for x in p] for p in self.points]}

    @classmethod
    def from_dict(cls, obj: dict, name: str = "custom") -> "SphericalCode":
        try:
            n = int(obj["n"])
            points = obj["points"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"code object needs 'n' and 'points': {exc}")
        return cls(n, np.asarray(points, dtype=float), name=name)


@dataclass(eq=False)
class DistanceDistribution:
    """Clustered map t -> A_t over ordered pairs, diagonal excluded.

    A_t(u) counts points at inner product t from u; A_t is its average
    over u. For codes with an exact product table the keys and masses are
    Fractions and all identities hold exactly.
    """

    entries: dict
    size: int
    exact: bool = False
    per_point: list[dict] | None = None

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

    def r_value(self, g: GegenbauerExpansion) -> float:
        """R_g = sum_t A_t g(t), the per-point g-energy off the diagonal."""
        return float(sum(float(m) * g.eval(float(t)) for t, m in self.entries.items()))


def distance_distribution(
    code: SphericalCode, tol: float = DEFAULT_CLUSTER_TOL
) -> DistanceDistribution:
    """Cluster the off-diagonal inner products of a code.

    Built-in codes use their exact product table and ignore tol. For float
    codes, values are merged while consecutive gaps stay within tol; two
    clusters whose centroids end up closer than 2*tol raise AmbiguityError.
    """
    N = code.size
    if code.exact_products is not None:
        counts: dict[Fraction, int] = {}
        per_point: list[dict] = []
        for i in range(N):
            row: dict[Fraction, int] = {}
            for j in range(N):
                if i == j:
                    continue
                t = code.exact_products[i][j]
                row[t] = row.get(t, 0) + 1
                counts[t] = counts.get(t, 0) + 1
            per_point.append(row)
        entries = {t: Fraction(c, N) for t, c in sorted(counts.items())}
        return DistanceDistribution(entries, N, exact=True, per_point=per_point)

    if not 0.0 < tol < np.inf:
        raise ParameterError(f"clustering tolerance must be positive and finite, got {tol}")
    g = code.gram()
    off = g[~np.eye(N, dtype=bool)]
    if off.size == 0:
        return DistanceDistribution({}, N, exact=False, per_point=[{}])
    order = np.sort(off)
    splits = np.where(np.diff(order) > tol)[0]
    clusters = np.split(order, splits + 1)
    reps = [float(np.mean(c)) for c in clusters]
    for a, b in itertools.pairwise(reps):
        if b - a < 2 * tol:
            raise AmbiguityError(
                f"clusters at {a} and {b} are closer than 2*tol; rerun with tol < {(b - a) / 2:g}"
            )
    entries = {rep: len(c) / N for rep, c in zip(reps, clusters)}
    # gaps between clusters exceed tol, so each product lies in exactly one
    # cluster: the last one starting at or below it
    labels = np.searchsorted([c[0] for c in clusters], off, side="right") - 1
    rows = np.repeat(np.arange(N), N - 1)
    keys, counts = np.unique(rows * len(reps) + labels, return_counts=True)
    per_point: list[dict] = [{} for _ in range(N)]
    for key, cnt in zip(keys.tolist(), counts.tolist()):
        row, label = divmod(key, len(reps))
        per_point[row][reps[label]] = cnt
    return DistanceDistribution(entries, N, exact=False, per_point=per_point)


def moment(code: SphericalCode, k: int) -> float:
    """k-th moment: sum of G_k(x.y) over all ordered pairs, diagonal included.

    Nonnegative for every code by positive-definiteness of the basis.
    G_k is evaluated once per unordered pair, on the tiles on and above the
    diagonal of the symmetric Gram matrix, and mirrored; the sum runs over
    the full matrix, so the value is the same, bit for bit, as summing
    G_k over every entry.
    """
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    vals = _pair_values(code.gram(), lambda t: gegenbauer_eval(code.n, k, t))
    return float(np.sum(vals))


def energy(code: SphericalCode, g: GegenbauerExpansion) -> float:
    """E_g: sum of g(x.y) over ordered pairs of distinct points.

    g is evaluated once per unordered pair, on the tiles on and above the
    diagonal of the symmetric Gram matrix, and mirrored; the full matrix is
    then summed and its trace taken away, so the value is the same, bit
    for bit, as evaluating g at every entry.
    """
    if g.n != code.n:
        raise ParameterError(
            f"expansion dimension {g.n} does not match code dimension {code.n}"
        )
    vals = _pair_values(code.gram(), g.eval)
    return float(np.sum(vals) - np.trace(vals))


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
    basis = np.linalg.qr(
        np.column_stack([np.ones(m)] + [np.eye(m)[:, i] for i in range(n)])
    )[0][:, 1:]
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


def builtin_code(name: str) -> SphericalCode:
    """Look up a built-in code: '24cell', 'simplex<n>' or 'cross<n>'."""
    if name == "24cell":
        return make_24cell()
    for prefix, maker in (("simplex", make_simplex), ("cross", make_cross_polytope)):
        if name.startswith(prefix):
            try:
                return maker(int(name[len(prefix):]))
            except ValueError:
                break
    raise ParameterError(f"unknown built-in code {name!r}")


BUILTIN_NAMES = ("simplex3", "simplex4", "cross3", "cross4", "24cell")
