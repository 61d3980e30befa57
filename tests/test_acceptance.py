"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line (run with -s to see them). Random checks use
fixed seeds throughout.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from spherecert.bounds import DDCertificate, dd_bound, lp_rg_lower, dd_bound_general
from spherecert.capopt import kissing_check
from spherecert.cli import main as cli_main
from spherecert.codes import BUILTIN_NAMES, builtin_code, distance_distribution, r_value
from spherecert.data import load_certificate, load_expansion
from spherecert.gegenbauer import GegenbauerExpansion, gegenbauer_eval
from spherecert.threepoint import TripleCertificate, certificate_valid, triple_sum
from spherecert.verify import CERTIFIED, DomainSpec, check_sign

from oracles import monomial_oracle, orthogonality_oracle

SQRT2_2 = np.sqrt(2.0) / 2.0
DATA = Path(__file__).resolve().parent.parent / "src" / "spherecert" / "data"


@contextmanager
def criterion(num: int, descr: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL — {descr}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"criterion {num}: PASS — {descr} ({elapsed:.2f}s)")


def test_criterion_1_gegenbauer_correctness():
    with criterion(1, "Gegenbauer normalization, orthogonality, oracle agreement", 1.0):
        for k in range(31):
            assert abs(gegenbauer_eval(4, k, 1.0) - 1.0) < 1e-12
        for j in range(13):
            for k in range(j + 1, 13):
                assert abs(orthogonality_oracle(4, j, k)) < 1e-10
        grid = np.linspace(-1, 1, 100)
        for k in range(13):
            mono = monomial_oracle(4, k)
            ref = sum(c * grid**i for i, c in enumerate(mono))
            assert np.max(np.abs(ref - gegenbauer_eval(4, k, grid))) < 1e-10


def test_criterion_2_published_values_and_signs():
    with criterion(2, "certificate values and certified sign conditions", 10.0):
        g1 = load_expansion("g1")
        g2 = load_expansion("g2")
        assert g1.eval(-1.0) == pytest.approx(0.02, abs=5e-3)
        assert g2.eval(-1.0) == pytest.approx(0.02, abs=5e-3)
        assert g2.at_one() == pytest.approx(57.5714, abs=1e-3)
        spec = DomainSpec(grid_step=1e-6, mode=CERTIFIED)
        rep1 = check_sign(g1, (-SQRT2_2, 0.5), spec)
        assert rep1.certified and rep1.worst_violation <= 5e-3
        rep2 = check_sign(g2, (-0.73, 0.5), spec)
        assert rep2.certified and rep2.worst_violation <= 5e-3


def test_criterion_3_distance_distribution_bounds():
    with criterion(3, "B(N) = (N - M)/(3N) arithmetic", 1.0):
        g1c = load_certificate("g1")
        g2c = load_certificate("g2")
        assert dd_bound(g1c, 25) == pytest.approx(0.032415, abs=1e-6)
        assert dd_bound(g1c, 24) == pytest.approx(0.019876, abs=1e-6)
        assert dd_bound(g2c, 24) == pytest.approx(0.018817, abs=1e-6)
        assert dd_bound(g2c, 25) == pytest.approx(0.031397, abs=1e-6)


def test_criterion_4_lp_comparison(capsys):
    with criterion(4, "LP values and SDP-stronger verdicts", 5.0):
        g2 = load_expansion("g2")
        assert lp_rg_lower(g2, 24) == pytest.approx(-52.243, abs=1e-3)
        assert lp_rg_lower(g2, 25) == pytest.approx(-52.021, abs=1e-3)
        import json

        for N in (24, 25):
            code = cli_main(["bound", str(DATA / "g2_cert.json"), "--N", str(N)])
            rep = json.loads(capsys.readouterr().out)
            assert code == 0
            assert rep["sdp_stronger"] is True


def test_criterion_5_24cell_facts():
    with criterion(5, "24-cell distribution and interval masses, exact", 1.0):
        from fractions import Fraction as Q

        dist = distance_distribution(builtin_code("24cell"))
        assert dist.exact
        assert dist.entries == {Q(-1): Q(1), Q(-1, 2): Q(8), Q(0): Q(6), Q(1, 2): Q(8)}
        # upper limits attained with equality
        assert dist.interval_mass(-1, -0.45) == 9
        assert dist.interval_mass(-1, 0.05) == 15
        assert dist.interval_mass(-0.55, 0.05) == 14
        assert dist.interval_mass(-0.05, 0.5) == 14
        # lower limits attained with equality
        assert dist.interval_mass(-1, -0.73) == 1
        assert dist.interval_mass(0.35, 0.5) == 8


def test_criterion_6_kissing_pipeline():
    with criterion(6, "cap bounds, contradiction at N=25, inconclusive at N=24", 60.0):
        g1 = load_expansion("g1")
        # best_value is the largest certified upper bound; the best witness
        # is a two-point cap at the multistart maximum 0.0266
        rep25 = kissing_check(g1, 22.5689, -SQRT2_2, N=25)
        assert rep25.cap_lower["value"] == pytest.approx(0.0266, abs=1e-3)
        assert rep25.cap_lower["m"] == 2
        assert rep25.verdict == "CONTRADICTION"
        assert rep25.best_value < rep25.bound
        rep24 = kissing_check(g1, 22.5689, -SQRT2_2, N=24)
        assert rep24.verdict == "INCONCLUSIVE"
        assert rep24.best_value > rep24.bound
        m = rep24.cap_lower["m"]
        assert rep24.cap_lower["value"] + (23 - m) * rep24.epsilon > rep24.bound - rep24.margin


def _random_valid_cert(rng, n, d):
    # PSD blocks for k <= 3; degree-4 certificates carry a zero top block
    H = []
    for k in range(d + 1):
        size = d + 1 - k
        if k <= 3:
            a = rng.normal(size=(size, size))
            H.append(a @ a.T)
        else:
            H.append(np.zeros((size, size)))
    F0 = float(rng.uniform(-1.0, 0.0))
    cert = TripleCertificate.from_matrices(n, d, H, F0)
    assert certificate_valid(cert).valid
    return cert


def test_criterion_7_property_suites():
    with criterion(7, "random-certificate and reduction property suites", 120.0):
        rng = np.random.default_rng(2024)
        codes = [builtin_code(name) for name in BUILTIN_NAMES]

        # (a) 50 random valid matrix certificates against matching codes
        for i in range(50):
            n = 3 if i % 2 else 4
            d = int(rng.integers(0, 5))
            cert = _random_valid_cert(rng, n, d)
            for code in codes:
                if code.n != n:
                    continue
                N = code.size
                assert triple_sum(code, cert) >= cert.F0 * N**3 - 1e-6 * N**3

        # (b) production triple sums match a literal 3-loop oracle
        for code in codes:
            d = 2 if code.size > 10 else 3
            cert = _random_valid_cert(rng, code.n, d)
            got = triple_sum(code, cert)
            gram = code.gram()
            N = code.size
            brute = 0.0
            for a in range(N):
                for b in range(N):
                    for c in range(N):
                        brute += cert.eval(gram[a, b], gram[a, c], gram[b, c])
            assert got == pytest.approx(brute, rel=1e-12)

        # (c) the scalar-M bound is the F0 = 0, h0 = 1 reduction
        for _ in range(1000):
            d = int(rng.integers(0, 4))
            F = _random_valid_cert(rng, 4, d)
            F = TripleCertificate.from_matrices(4, d, F.H, 0.0)
            h = GegenbauerExpansion(4, rng.uniform(0, 1, size=int(rng.integers(1, 8))))
            cert = DDCertificate(
                GegenbauerExpansion(4, [1.0]), (-1.0, 0.5), mode="full",
                h=h, h0=1.0, F=F,
            )
            N = int(rng.integers(2, 60))
            lhs = dd_bound_general(cert, N, E_h=-N * h.at_one())
            M = F.eval(1, 1, 1) + 3.0 * h.at_one()
            scalar = DDCertificate(cert.g, cert.T, M=M)
            assert lhs == pytest.approx(dd_bound(scalar, N), rel=1e-12, abs=1e-12)

        # (d) R_f >= c0 N - f(1) for nonnegative coefficient vectors
        for code in codes:
            for _ in range(100):
                coeffs = rng.uniform(0, 1, size=int(rng.integers(1, 23)))
                f = GegenbauerExpansion(code.n, coeffs)
                lower = coeffs[0] * code.size - f.at_one()
                assert r_value(code, f) >= lower - 1e-9


def test_criterion_8_m_constants_are_external():
    """The constants M = 22.5689 and M = 22.6452 come from a semidefinite
    solve whose matrix and polynomial pieces are not published anywhere
    this package can reach; they are consumed as constants, flagged with
    their provenance, and everything downstream of them is verified."""
    with criterion(8, "M constants documented as externally sourced", 1.0):
        for name in ("g1", "g2"):
            cert = load_certificate(name)
            assert cert.mode == "scalar-M"
            assert "external" in cert.m_provenance
            assert "not re-derivable" in cert.m_provenance
            # the flag survives serialization into reports
            assert "external" in cert.to_dict()["M_provenance"]
