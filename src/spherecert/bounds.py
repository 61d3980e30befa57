"""Bound formulas: two-point (LP) and three-point inequalities, energy
lower bounds, and distance-distribution certificates.

All check operations return both sides of the inequality plus the slack,
never a bare boolean; near-boundary certificates are diagnosed from the
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import SphericalCode, energy
from .errors import ParameterError, PreconditionError
from .gegenbauer import GegenbauerExpansion
from .threepoint import TripleCertificate

__all__ = [
    "DDCertificate",
    "delsarte_bound",
    "yudin_energy_lower",
    "lp_rg_lower",
    "two_point_check",
    "three_point_check",
    "dd_bound",
    "dd_bound_general",
    "SlackReport",
    "ThreePointReport",
]


@dataclass(eq=False)
class DDCertificate:
    """Certificate bundle bounding R_g from below for (N, n, T) codes.

    scalar-M mode stores the single constant M = F(1,1,1) + 3 h(1)
    produced by an external semidefinite solve; full mode carries the
    pieces (h, h0, F, F0) themselves.
    """

    g: GegenbauerExpansion
    T: tuple[float, float]
    mode: str = "scalar-M"
    M: float | None = None
    h: GegenbauerExpansion | None = None
    h0: float | None = None
    F: TripleCertificate | None = None
    F0: float | None = None
    m_provenance: str = "external"

    def __post_init__(self):
        a, b = float(self.T[0]), float(self.T[1])
        if not (-1.0 <= a <= b < 1.0):
            raise ParameterError(f"domain T must satisfy -1 <= a <= b < 1, got {self.T}")
        self.T = (a, b)
        if self.mode == "scalar-M":
            if self.M is None:
                raise ParameterError("scalar-M certificate needs the constant M")
            self.M = float(self.M)
        elif self.mode == "full":
            if self.h is None or self.h0 is None or self.F is None:
                raise ParameterError("full certificate needs h, h0 and F")
            self.h0 = float(self.h0)
            if self.F0 is None:
                self.F0 = float(self.F.F0)
        else:
            raise ParameterError(f"unknown certificate mode {self.mode!r}")
        for name in ("M", "h0", "F0"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")

    def m_constant(self) -> float:
        """M = F(1,1,1) + 3 h(1); stored in scalar mode, derived in full."""
        if self.mode == "scalar-M":
            return self.M
        return self.F.at_diagonal_one() + 3.0 * self.h.at_one()

    def to_dict(self) -> dict:
        out = {"g": self.g.to_dict(), "T": [self.T[0], self.T[1]]}
        if self.mode == "scalar-M":
            out["M"] = self.M
            if self.m_provenance:
                out["M_provenance"] = self.m_provenance
        else:
            out["h"] = self.h.to_dict()
            out["h0"] = self.h0
            out["F"] = self.F.to_dict()
            out["F0"] = self.F0
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "DDCertificate":
        try:
            g_obj = obj["g"]
            T = (float(obj["T"][0]), float(obj["T"][1]))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ParameterError(f"certificate object needs 'g' and 'T': {exc}")
        g = GegenbauerExpansion.from_dict(g_obj)
        if "M" in obj:
            return cls(
                g, T, mode="scalar-M", M=float(obj["M"]),
                m_provenance=str(obj.get("M_provenance", "external")),
            )
        if "h" in obj and "F" in obj:
            F = TripleCertificate.from_dict(obj["F"])
            F0 = float(obj["F0"]) if "F0" in obj else float(F.F0)
            return cls(
                g, T, mode="full",
                h=GegenbauerExpansion.from_dict(obj["h"]),
                h0=float(obj.get("h0", 0.0)), F=F, F0=F0,
            )
        raise ParameterError("certificate object needs either 'M' or ('h', 'h0', 'F')")


def delsarte_bound(f: GegenbauerExpansion) -> float:
    """Upper bound f(1)/c0 on the size of codes where f <= 0 on T.

    The sign condition on T is the caller's obligation (see the verify
    module); this is the pure ratio.
    """
    c0 = float(f.coeffs[0])
    if c0 <= 0:
        raise PreconditionError(f"constant coefficient must be positive, got {c0}")
    return f.at_one() / c0


def _require_nonneg_tail(f: GegenbauerExpansion) -> None:
    tail = f.coeffs[1:]
    if tail.size and float(np.min(tail)) < 0:
        k = 1 + int(np.argmin(tail))
        raise PreconditionError(
            f"coefficient c_{k} = {f.coeffs[k]} is negative; the positive-"
            "definiteness argument needs c_k >= 0 for k >= 1"
        )


def yudin_energy_lower(f: GegenbauerExpansion, N: int) -> float:
    """Lower bound c0 N^2 - N f(1) on E_g over N-point sets, for g >= f."""
    _require_nonneg_tail(f)
    return float(f.coeffs[0]) * N * N - N * f.at_one()


def lp_rg_lower(f: GegenbauerExpansion, N: int) -> float:
    """Lower bound c0 N - f(1) on R_f for N-point codes."""
    _require_nonneg_tail(f)
    return float(f.coeffs[0]) * N - f.at_one()


@dataclass
class SlackReport:
    """One inequality instance: lhs >= rhs with slack = lhs - rhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack}


def two_point_check(
    code: SphericalCode,
    f: GegenbauerExpansion,
    g: GegenbauerExpansion,
    f0: float,
) -> SlackReport:
    """Evaluate N f(1) + E_g(C) >= f0 N^2 on a concrete code.

    Sound whenever f <= g on the code's product set and S_f >= f0 N^2;
    a negative slack under valid hypotheses means an implementation bug.
    """
    N = code.size
    lhs = N * f.at_one() + energy(code, g)
    return SlackReport("two-point", lhs, f0 * N * N)


@dataclass
class ThreePointReport:
    """Main three-point inequality plus the optional per-N^2 variant."""

    main: SlackReport
    reduced: SlackReport | None = None

    def to_dict(self) -> dict:
        out = {"main": self.main.to_dict()}
        if self.reduced is not None:
            out["reduced"] = self.reduced.to_dict()
        return out


def three_point_check(
    code: SphericalCode,
    F: TripleCertificate,
    f: GegenbauerExpansion,
    g: GegenbauerExpansion,
    q: GegenbauerExpansion | None = None,
    B: float | None = None,
) -> ThreePointReport:
    """Evaluate N F(1,1,1) + 3 E_f + (3N-6) E_g >= F0 N^3 on a code.

    When (q, B) is supplied (the substitution f = B + 2g - q with
    S_q >= 0), additionally evaluates the reduced inequality
    F(1,1,1) + 3 q(1) + 3(N-1) B + 3 E_g >= F0 N^2.
    """
    N = code.size
    lhs = N * F.at_diagonal_one() + 3.0 * energy(code, f) + (3 * N - 6) * energy(code, g)
    main = SlackReport("three-point", lhs, F.F0 * N**3)
    reduced = None
    if q is not None and B is not None:
        lhs2 = (
            F.at_diagonal_one() + 3.0 * q.at_one() + 3.0 * (N - 1) * B
            + 3.0 * energy(code, g)
        )
        reduced = SlackReport("three-point-reduced", lhs2, F.F0 * N * N)
    return ThreePointReport(main, reduced)


def dd_bound(cert: DDCertificate, N: int) -> float:
    """Lower bound B(N) = (N - M)/(3N) on R_g for matching (N, n, T) codes."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    return (N - cert.m_constant()) / (3.0 * N)


def dd_bound_general(cert: DDCertificate, N: int, E_h: float) -> float:
    """Lower bound on R_g from a full certificate and a supplied E_h(C):

    F0 N / 3 + h0 / 3 - F(1,1,1)/(3N) + E_h / N^2.
    """
    if cert.mode != "full":
        raise ParameterError("dd_bound_general needs a full-mode certificate")
    if N < 1:
        raise ParameterError("N must be >= 1")
    return (
        cert.F0 * N / 3.0
        + cert.h0 / 3.0
        - cert.F.at_diagonal_one() / (3.0 * N)
        + E_h / (N * N)
    )
