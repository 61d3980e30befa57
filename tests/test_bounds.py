import numpy as np
import pytest

from oracles import dd_certificate
from spherecert.bounds import (
    DDCertificate,
    dd_bound,
    delsarte_bound,
    lp_rg_lower,
    three_point_check,
    dd_bound_general,
    two_point_check,
    yudin_energy_lower,
)
from spherecert.codes import (
    builtin_code,
    energy,
    make_24cell,
    make_cross_polytope,
    r_value,
)
from spherecert.data import load_certificate, load_expansion
from spherecert.errors import ParameterError, PreconditionError
from spherecert.gegenbauer import GegenbauerExpansion
from spherecert.threepoint import TripleCertificate, certificate_valid
from spherecert.verify import DomainSpec, check_triple_condition, check_dd_pair_condition


def test_delsarte_trivia():
    assert delsarte_bound(GegenbauerExpansion(4, [1.0])) == 1.0
    assert delsarte_bound(GegenbauerExpansion(4, [2.0])) == 1.0  # scale invariant


def test_delsarte_simplex_polynomial():
    # (t+1)(t+1/2) = 0.75 G0 + 1.5 G1 + 0.75 G2 in dimension 4; nonpositive
    # on [-1, -1/2], so it bounds codes with products there by 4
    f = GegenbauerExpansion(4, [0.75, 1.5, 0.75])
    ts = np.linspace(-1, 1, 7)
    assert np.allclose(f.eval(ts), (ts + 1) * (ts + 0.5), atol=1e-12)
    assert delsarte_bound(f) == pytest.approx(4.0, abs=1e-12)


def test_delsarte_needs_positive_constant_term():
    with pytest.raises(PreconditionError):
        delsarte_bound(GegenbauerExpansion(4, [0.0, 1.0]))


def test_yudin():
    assert yudin_energy_lower(GegenbauerExpansion(4, [1.0]), 10) == 90.0
    for N in (2, 7, 30):
        assert yudin_energy_lower(GegenbauerExpansion(4, [0.0, 1.0]), N) == -N
    with pytest.raises(PreconditionError):
        yudin_energy_lower(GegenbauerExpansion(4, [1.0, -0.1]), 5)


def test_yudin_attained_on_cross_polytope():
    # E_{G1}(cross polytope) = -N, matching the bound with equality
    g1 = GegenbauerExpansion(4, [0.0, 1.0])
    code = make_cross_polytope(4)
    assert energy(code, g1) == pytest.approx(yudin_energy_lower(g1, 8), abs=1e-10)


def test_lp_rg_lower_published_values():
    g2 = load_expansion("g2")
    assert lp_rg_lower(g2, 24) == pytest.approx(-52.243, abs=1e-3)
    assert lp_rg_lower(g2, 25) == pytest.approx(-52.021, abs=1e-3)
    assert lp_rg_lower(GegenbauerExpansion(4, [1.0]), 7) == 6.0


def test_two_point_check():
    zero = GegenbauerExpansion(4, [0.0])
    rep = two_point_check(make_24cell(), zero, zero, 0.0)
    assert rep.slack == 0.0
    # boundary case: f = g = G1, f0 = 0 on the cross polytope
    g1 = GegenbauerExpansion(4, [0.0, 1.0])
    rep = two_point_check(make_cross_polytope(4), g1, g1, 0.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.slack == pytest.approx(0.0, abs=1e-10)
    # constant one: N + N(N-1) - N^2 = 0
    one = GegenbauerExpansion(4, [1.0])
    rep = two_point_check(make_24cell(), one, one, 1.0)
    assert rep.slack == pytest.approx(0.0, abs=1e-8)


def test_two_point_soundness_random():
    rng = np.random.default_rng(31)
    for name in ("simplex4", "cross4", "24cell"):
        code = builtin_code(name)
        for _ in range(20):
            f = GegenbauerExpansion(4, rng.uniform(0, 1, size=8))
            rep = two_point_check(code, f, f, float(f.coeffs[0]))
            assert rep.slack >= -1e-9


def test_three_point_check_trivia():
    zero_f = GegenbauerExpansion(4, [0.0])
    zero_F = TripleCertificate.from_terms([], F0=0.0)
    rep = three_point_check(make_24cell(), zero_F, zero_f, zero_f)
    assert rep.main.slack == 0.0
    assert rep.reduced is None


def test_three_point_check_single_point():
    from spherecert.codes import SphericalCode

    code = SphericalCode(4, np.array([[1.0, 0, 0, 0]]))
    F = TripleCertificate.from_terms([(1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 1, 1.0)], F0=1.0)
    rep = three_point_check(code, F, GegenbauerExpansion(4, [0, 3.0]), GegenbauerExpansion(4, [0.0]))
    # N=1: lhs = F(1,1,1) + 3 E_f + (3-6) E_g = 3, rhs = 1
    assert rep.main.lhs == pytest.approx(3.0, abs=1e-12)
    assert rep.main.rhs == pytest.approx(1.0)


def test_three_point_check_brute_force_cross4():
    # brute-force both sides with F == 1 on the 8-point cross polytope
    code = make_cross_polytope(4)
    N = code.size
    one = TripleCertificate.from_terms([(0, 0, 0, 1.0)], F0=1.0)
    f = GegenbauerExpansion(4, [1.0])
    rep = three_point_check(code, one, f, f)
    expected_lhs = N * 1.0 + 3 * N * (N - 1) + (3 * N - 6) * N * (N - 1)
    assert rep.main.lhs == pytest.approx(expected_lhs, rel=1e-12)
    assert rep.main.rhs == N**3
    # F == 1 with F0 = 1 is a boundary certificate (H0 = E0); the slack
    # collapses to 2N(N-1)(N-2), nonnegative for every N
    assert rep.main.slack == pytest.approx(2 * N * (N - 1) * (N - 2), rel=1e-12)


def test_three_point_reduced_form():
    code = make_cross_polytope(4)
    N = code.size
    F = TripleCertificate.from_terms([(0, 0, 0, 1.0)], F0=0.0)
    g = GegenbauerExpansion(4, [0.0, 1.0])
    q = GegenbauerExpansion(4, [0.5])
    B = 0.25
    rep = three_point_check(code, F, GegenbauerExpansion(4, [0.0]), g, q=q, B=B)
    expected = 1.0 + 3 * 0.5 + 3 * (N - 1) * B + 3 * energy(code, g)
    assert rep.reduced.lhs == pytest.approx(expected, rel=1e-12)
    assert rep.reduced.rhs == 0.0


def test_dd_bound_published_values():
    g1c = load_certificate("g1")
    g2c = load_certificate("g2")
    assert dd_bound(g1c, 25) == pytest.approx(0.032415, abs=1e-6)
    assert dd_bound(g1c, 24) == pytest.approx(0.019876, abs=1e-6)
    assert dd_bound(g2c, 24) == pytest.approx(0.018817, abs=1e-6)
    assert dd_bound(g2c, 25) == pytest.approx(0.031397, abs=1e-6)


def test_dd_bound_trivia_and_monotonicity():
    g = GegenbauerExpansion(4, [1.0])
    cert = DDCertificate(g, (-1, 0.5), M=10.0)
    assert dd_bound(cert, 10) == 0.0
    vals = [dd_bound(cert, N) for N in range(11, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        dd_bound(cert, 0)


def _constructed_full_cert(rng, n=4, d=3):
    """Full-mode certificate engineered to satisfy all side conditions:
    PSD matrices with F0 = 0, nonnegative h coefficients so S_h >= 0, and
    a constant g large enough to dominate both coupling inequalities."""
    H = []
    for k in range(d + 1):
        a = rng.normal(size=(d + 1 - k, d + 1 - k))
        H.append(0.1 * a @ a.T)
    F = TripleCertificate.from_matrices(n, d, H, 0.0)
    assert certificate_valid(F).valid
    h = GegenbauerExpansion(n, rng.uniform(0, 0.5, size=5))  # S_h >= 0
    h0 = 1.0
    diag_bound = float(np.sum(np.abs(F.diag_restriction())))
    abs_bound = float(np.abs(F.poly()).sum())
    c = max((float(np.sum(np.abs(h.coeffs))) + h0 + diag_bound) / 2.0, abs_bound / 3.0) + 0.1
    g = GegenbauerExpansion(n, [c])
    return DDCertificate(g, (-1.0, 0.5), mode="full", h=h, h0=h0, F=F)


def test_general_bound_reduces_to_scalar_m_form():
    rng = np.random.default_rng(32)
    for _ in range(200):
        cert = _constructed_full_cert(rng)
        N = int(rng.integers(2, 50))
        h1 = cert.h.at_one()
        lhs = dd_bound_general(cert, N, E_h=-N * h1)
        M = cert.F.eval(1, 1, 1) + 3 * h1
        rhs = (N - M) / (3 * N)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dd_bound_general_trivia():
    zero_F = TripleCertificate.from_terms([], F0=0.0)
    cert = DDCertificate(
        GegenbauerExpansion(4, [0.0]), (-1, 0.5), mode="full",
        h=GegenbauerExpansion(4, [0.0]), h0=0.0, F=zero_F,
    )
    assert dd_bound_general(cert, 7, 0.0) == 0.0
    with pytest.raises(ParameterError):
        dd_bound_general(DDCertificate(GegenbauerExpansion(4, [1.0]), (-1, 0), M=1.0), 5, 0.0)


def test_full_certificate_soundness_on_24cell():
    # constructed certificates satisfy the side conditions, so the bound
    # must sit below the measured R_g on a concrete code
    rng = np.random.default_rng(33)
    code = make_24cell()
    for _ in range(5):
        cert = _constructed_full_cert(rng)
        spec = DomainSpec(grid_step=1e-3)
        assert check_dd_pair_condition(cert.h, cert.h0, cert.F, cert.g, cert.T, spec).worst_violation <= 1e-9
        assert check_triple_condition(cert.F, cert.g, cert.T, DomainSpec(grid_step=0.05)).worst_violation <= 1e-9
        bound = dd_bound_general(cert, code.size, E_h=energy(code, cert.h))
        assert bound <= r_value(code, cert.g) + 1e-6


def test_dd_bound_of_full_certificate_uses_yudin_energy():
    # with F0 = 0, h0 = 1 and h >= 0 the bound is the general formula at
    # E_h = c0 N^2 - N h(1), and still below the measured R_g
    rng = np.random.default_rng(34)
    code = make_24cell()
    for _ in range(5):
        cert = _constructed_full_cert(rng)
        N = code.size
        bound = dd_bound(cert, N)
        assert bound == dd_bound_general(cert, N, yudin_energy_lower(cert.h, N))
        assert bound <= r_value(code, cert.g) + 1e-6


def test_full_certificate_holds_one_f0():
    cert = _constructed_full_cert(np.random.default_rng(36))
    assert cert.F0 == cert.F.F0 == 0.0
    obj = cert.to_dict()
    assert set(obj) == {"g", "T", "h", "h0", "F", "F0"}
    assert obj["F0"] == 0.0
    # a top-level F0 that disagrees with F's is refused, not believed
    obj["F0"] = 5.0
    with pytest.raises(ParameterError, match="F0"):
        DDCertificate.from_dict(obj)
    # without F0 in F, the top-level one becomes F's
    del obj["F"]["F0"]
    back = DDCertificate.from_dict(obj)
    assert back.F.F0 == back.F0 == 5.0
    assert not certificate_valid(back.F).valid


def test_dd_bound_loose_soundness_on_24cell_published():
    # published coefficients are rounded; the certified bound may exceed
    # the measured energy only within the documented 5e-3 slack
    g1c = load_certificate("g1")
    measured = r_value(make_24cell(), g1c.g)
    assert measured >= dd_bound(g1c, 24) - 5e-3


def test_ddcertificate_json():
    cert = load_certificate("g1")
    assert cert.mode == "scalar-M"
    assert cert.M == pytest.approx(22.5689)
    assert cert.m_provenance
    back = DDCertificate.from_dict(cert.to_dict())
    assert back.M == cert.M and back.T == cert.T
    with pytest.raises(ParameterError):
        DDCertificate.from_dict({"g": {"n": 4, "coeffs": [1.0]}, "T": [0.0, 1.0]})
    with pytest.raises(ParameterError):
        DDCertificate.from_dict({"g": {"n": 4, "coeffs": [1.0]}})


def test_full_certificate_refuses_mixed_dimensions():
    # S_k kernels are positive definite only on the sphere of their own
    # dimension, so h and a matrix F must share g's
    obj = dd_certificate(4, True)
    DDCertificate.from_dict(obj)
    for key in ("h", "F"):
        bad = {**obj, key: {**obj[key], "n": 7}}
        with pytest.raises(ParameterError, match="dimension"):
            DDCertificate.from_dict(bad)
