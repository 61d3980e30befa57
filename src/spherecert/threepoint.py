"""Symmetric triple functions F(t, u, v) and their certificate machinery.

Every triple function is stored as one symmetric dense coefficient tensor
C, with C[i, j, k] the coefficient of t^i u^j v^k.

Matrix-form certificates expand F as sum_k <H_k, S_k(t, u, v)> against the
matrix kernels S_k used in three-point bounds for sphere codes. The entry
(i, j) of the un-symmetrized kernel is u^i v^j Q_k(t, u, v), where

    Q_k(t, u, v) = ((1-u^2)(1-v^2))^(k/2) G_k(s),   s = (t-uv)/sqrt((1-u^2)(1-v^2)),

with G_k the normalized degree-k Gegenbauer polynomial in dimension n-1;
S_k averages that over the six role assignments of (t, u, v). Q_k is a
genuine polynomial (clearing the square root degree by degree removes the
0/0 at |u| = 1 or |v| = 1); its coefficients are summed exactly and
rounded to float once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, fsum, lcm

import numpy as np

from .codes import SphericalCode
from .errors import CapabilityError, ParameterError, integer
from .gegenbauer import monomial_coeffs

__all__ = [
    "TripleCertificate",
    "triple_sum",
    "triple_sum_parts",
    "TripleSumParts",
    "psd_check",
    "PsdResult",
    "certificate_valid",
    "CertificateReport",
]


# ---------------------------------------------------------------------------
# Coefficient tensors.

@lru_cache(maxsize=128)
def _kernel_tensor(n: int, k: int) -> np.ndarray:
    """Q_k(t, u, v) as a (k+1)^3 coefficient tensor, read-only.

    Expands sum_m a_m (t - uv)^m ((1-u^2)(1-v^2))^((k-m)/2) by the binomial
    theorem; parity of G_k makes k - m even whenever a_m != 0. The sums run
    in Python integers over one denominator D, the lcm of the a_m's, and
    each is divided by D once: int / int rounds correctly, so every entry
    is its exact rational coefficient correctly rounded.

    A pure function of (n, k): the process keeps the 128 tensors used
    last, so every certificate of a dimension shares them, and each is
    read-only because every caller gets the same array.
    """
    a = monomial_coeffs(n - 1, k)
    D = lcm(*(am.denominator for am in a))
    exact = np.zeros((k + 1,) * 3, dtype=object)
    for m, am in enumerate(a):
        if am == 0:
            continue
        r = (k - m) // 2
        w = np.array([(-1) ** q * comb(r, q) for q in range(r + 1)], dtype=object)
        ww = np.multiply.outer(w, w)
        num = am.numerator * (D // am.denominator)
        # the terms (t^(m-p) (-uv)^p) (-u^2)^q (-v^2)^s, for every q and s at once
        for p in range(m + 1):
            exact[m - p, p : p + 2 * r + 1 : 2, p : p + 2 * r + 1 : 2] += (
                (-1) ** p * comb(m, p) * num * ww)
    out = np.array([x / D for x in exact.ravel().tolist()]).reshape(exact.shape)
    out.flags.writeable = False
    return out


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Average of a cubic tensor over the six orders of its axes. Each entry
    adds its six transposes in sorted order, so the result equals each of
    its transposes bit for bit."""
    perms = np.stack([a.transpose(p) for p in itertools.permutations(range(3))])
    return np.sort(perms, axis=0).sum(axis=0) / 6.0


def _eval_tensor(c: np.ndarray, t, u, v) -> np.ndarray:
    """sum c[i, j, k] t^i u^j v^k at broadcast points.

    Horner in t over one (P, j) @ (j, k) product per power of t, so memory
    stays O(P * degree) for P points.
    """
    t, u, v = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (t, u, v)))
    shape = t.shape
    t = t.ravel()
    upow = np.vander(u.ravel(), c.shape[1], increasing=True)
    vpow = np.vander(v.ravel(), c.shape[2], increasing=True)
    out = np.zeros(t.shape)
    for ci in c[::-1]:
        out = out * t + np.einsum("pj,pj->p", upow @ ci, vpow)
    return out.reshape(shape)


# Floats held by each of V, X and Z of one block of triple_sum.
_TRIPLE_BLOCK = 1 << 20


def _require_finite(what: str, x) -> None:
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{what} must be finite")


def _symmetric(m: np.ndarray, atol: float) -> bool:
    """|m - m^T| <= atol entrywise: np.allclose(m, m.T, atol, rtol=0) on a
    finite matrix, without its overhead."""
    return bool((np.abs(m - m.T) <= atol).all())


# ---------------------------------------------------------------------------
# Certificates.

@dataclass(eq=False)
class TripleCertificate:
    """Symmetric triple function with a threshold F0.

    form='matrix': F = sum_k <H_k, S_k> with H_k square symmetric of size
    d+1-k. form='explicit': F is the symmetrization of sum a * t^i u^j v^k
    over the given terms.
    """

    form: str
    F0: float = 0.0
    # matrix form
    n: int | None = None
    d: int | None = None
    H: list[np.ndarray] | None = None
    # explicit form
    terms: list[tuple[int, int, int, float]] | None = None
    _poly: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _require_finite("F0", self.F0)
        if self.form == "matrix":
            if self.n is None or self.d is None or self.H is None:
                raise ParameterError("matrix certificate needs n, d and H")
            self.n, self.d = integer("n", self.n), integer("d", self.d)
            if len(self.H) != self.d + 1:
                raise ParameterError(f"expected {self.d + 1} matrices, got {len(self.H)}")
            mats = []
            for k, h in enumerate(self.H):
                h = np.asarray(h, dtype=float)
                size = self.d + 1 - k
                if h.shape != (size, size):
                    raise ParameterError(
                        f"H[{k}] must be {size}x{size}, got {h.shape}"
                    )
                _require_finite(f"H[{k}]", h)
                if not _symmetric(h, 1e-12):
                    raise ParameterError(f"H[{k}] is not symmetric")
                mats.append(h)
            self.H = mats
        elif self.form == "explicit":
            if self.terms is None:
                raise ParameterError("explicit certificate needs terms")
            self.terms = [tuple(integer("term exponent", e) for e in (i, j, k)) + (float(a),)
                          for i, j, k, a in self.terms]
            if any(min(e[:3]) < 0 for e in self.terms):
                raise ParameterError("term exponents must be >= 0")
            _require_finite("term coefficients", [a for *_, a in self.terms])
        else:
            raise ParameterError(f"unknown certificate form {self.form!r}")

    @classmethod
    def from_matrices(cls, n: int, d: int, H, F0: float = 0.0) -> "TripleCertificate":
        return cls(form="matrix", n=n, d=d, H=list(H), F0=F0)

    @classmethod
    def from_terms(cls, terms, F0: float = 0.0) -> "TripleCertificate":
        return cls(form="explicit", terms=list(terms), F0=F0)

    def poly(self) -> np.ndarray:
        """F as its symmetric coefficient tensor C[i, j, k] (cached)."""
        if self._poly is None:
            if self.form == "matrix":
                # sum_k P_k(u, v) Q_k(t, u, v) with P_k(u, v) = sum_ij (H_k)_ij u^i v^j:
                # (H_k)_ij times Q_k shifted by (i, j), added per (i, j) or, when q
                # has fewer offsets, per offset (di, dj) of q as q[:, di, dj] times
                # H_k; running the offsets down adds every entry's products in the
                # same (i, j) order, so both loops give the same bits
                a = np.zeros((self.d + 1,) * 3)
                for k, h in enumerate(self.H):
                    q = _kernel_tensor(self.n, k)
                    s = self.d + 1 - k
                    if k + 1 < s:
                        for di, dj in itertools.product(range(k, -1, -1), repeat=2):
                            a[: k + 1, di : di + s, dj : dj + s] += q[:, di, dj, None, None] * h
                    else:
                        for (i, j), hij in np.ndenumerate(h):
                            a[: k + 1, i : i + k + 1, j : j + k + 1] += hij * q
            else:
                deg = max((max(i, j, k) for i, j, k, _ in self.terms), default=0)
                a = np.zeros((deg + 1,) * 3)
                for i, j, k, coeff in self.terms:
                    a[i, j, k] += coeff
            self._poly = _symmetrize(a)
        return self._poly

    def eval(self, t, u, v):
        """Evaluate F; accepts scalars or broadcastable arrays."""
        out = _eval_tensor(self.poly(), t, u, v)
        return float(out) if out.ndim == 0 else out

    def at_diagonal_one(self) -> float:
        """F(1, 1, 1), the sum of the coefficient tensor."""
        # through eval, so that perfbench's spans count it as an F evaluation
        return self.eval(1.0, 1.0, 1.0)

    def diag_restriction(self) -> np.ndarray:
        """Univariate coefficients of s -> F(1, s, s): the sums of C[i, j, k]
        over j + k = p by math.fsum, each correctly rounded."""
        c = self.poly()
        j, k = np.indices(c.shape[1:])
        return np.array([fsum(c[:, j + k == p].ravel().tolist())
                         for p in range(2 * j.shape[0] - 1)])

    def to_dict(self) -> dict:
        if self.form == "matrix":
            return {
                "n": int(self.n),
                "d": int(self.d),
                "F0": float(self.F0),
                "H": [h.tolist() for h in self.H],
            }
        return {
            "F0": float(self.F0),
            "terms": [{"i": i, "j": j, "k": k, "a": a} for i, j, k, a in self.terms],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TripleCertificate":
        if "H" in obj:
            try:
                return cls.from_matrices(
                    obj["n"], obj["d"], obj["H"], float(obj.get("F0", 0.0))
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParameterError(f"bad matrix certificate: {exc}")
        if "terms" in obj:
            try:
                terms = [(tm["i"], tm["j"], tm["k"], tm["a"]) for tm in obj["terms"]]
            except (KeyError, TypeError) as exc:
                raise ParameterError(f"bad explicit certificate: {exc}")
            return cls.from_terms(terms, float(obj.get("F0", 0.0)))
        raise ParameterError("certificate object needs either 'H' or 'terms'")


@dataclass
class TripleSumParts:
    """S_F split by coincidence pattern of the ordered triple."""

    total: float
    diagonal: float        # x = y = z:            N * F(1,1,1)
    paired: float          # exactly two coincide: 3 * sum F(1, t, t)
    distinct: float        # pairwise distinct points


def triple_sum(code: SphericalCode, F: TripleCertificate) -> float:
    """S_F: sum of F(x.y, x.z, y.z) over all N^3 ordered triples.

    With G the Gram matrix, V[a, b, i] = G_ab^i and C = F.poly(),

        S_F = sum_k sum_{a,b,j} X_k[a, b, j] Z_k[a, b, j],
        X_k[a] = V[a] @ C[:, :, k],   Z_k[a] = G^k @ V[a],

    G^k taken entrywise: X_k sums over the power i of t = x_a.x_b and Z_k
    over the third point c. That is O(N^3 m^2 + N^2 m^3) flops for m =
    degree + 1, in matrix products. The first index a runs in blocks of at
    most _TRIPLE_BLOCK / (N m) rows, so that V, X and Z of one block hold
    at most _TRIPLE_BLOCK floats each (one at least), and memory stays
    O(N^2 + _TRIPLE_BLOCK). Each (block, k) gives one partial sum, the dot
    product of X_k and Z_k, and math.fsum adds the partial sums, taken
    block by block and k by k.
    """
    if F.form == "matrix" and F.n != code.n:
        raise ParameterError(
            f"certificate dimension {F.n} does not match code dimension {code.n}"
        )
    gram = code.gram()
    C = F.poly()
    N, m = code.size, C.shape[0]
    rows = max(1, _TRIPLE_BLOCK // (N * m))
    parts = []
    for lo in range(0, N, rows):
        B = min(rows, N - lo)
        # V of the block laid out as (b, a, i), so that one product with
        # G^k covers the whole block
        V = np.vander(gram[lo:lo + B].T.ravel(), m, increasing=True)
        by_row = V.reshape(N, B * m)
        gk = np.ones((N, N))
        for k in range(m):
            X = V @ C[:, :, k]
            Z = gk @ by_row
            parts.append(float(np.vdot(X, Z)))
            gk *= gram
    return fsum(parts)


def triple_sum_parts(code: SphericalCode, F: TripleCertificate) -> TripleSumParts:
    total = triple_sum(code, F)
    gram = code.gram()
    N = code.size
    diagonal = N * F.at_diagonal_one()
    off = ~np.eye(N, dtype=bool)
    paired = 3.0 * float(np.sum(F.eval(1.0, gram[off], gram[off])))
    return TripleSumParts(total, diagonal, paired, total - diagonal - paired)


# ---------------------------------------------------------------------------
# Positive-semidefiniteness checks.

@dataclass
class PsdResult:
    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {"ok": self.ok, "min_eigenvalue": self.min_eigenvalue}
        if self.witness is not None:
            out["witness"] = [float(x) for x in self.witness]
        return out


def psd_check(m: np.ndarray, tol: float = 1e-9) -> PsdResult:
    """Decide lambda_min(m) >= -tol; on failure return a witness w with
    w' m w < -tol. m must be square, finite and symmetric to within
    max(tol, 1e-12) entrywise."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError("psd_check needs a square matrix")
    _require_finite("psd_check's matrix", m)
    if not _symmetric(m, max(tol, 1e-12)):
        raise ParameterError("psd_check needs a symmetric matrix")
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    lo = float(vals[0])
    if lo >= -tol:
        return PsdResult(True, lo)
    return PsdResult(False, lo, witness=vecs[:, 0])


@dataclass
class CertificateReport:
    valid: bool
    checks: dict[str, PsdResult]

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "checks": {name: res.to_dict() for name, res in self.checks.items()},
        }


def certificate_valid(F: TripleCertificate, tol: float = 1e-9) -> CertificateReport:
    """PSD side conditions of a matrix certificate: every H_k with k > 0,
    and H_0 - F0*E0 where E0 has a single 1 in the top-left corner."""
    if F.form != "matrix":
        raise CapabilityError(
            "explicit certificates carry no PSD data; validity is only "
            "observable through triple sums"
        )
    checks: dict[str, PsdResult] = {}
    shifted = F.H[0].copy()
    shifted[0, 0] -= F.F0
    checks["H0-F0*E0"] = psd_check(shifted, tol)
    for k in range(1, F.d + 1):
        checks[f"H{k}"] = psd_check(F.H[k], tol)
    return CertificateReport(all(r.ok for r in checks.values()), checks)
