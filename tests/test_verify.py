import numpy as np
import pytest

from spherecert.data import load_expansion
from spherecert.errors import ParameterError
from spherecert.gegenbauer import GegenbauerExpansion
from spherecert.threepoint import TripleCertificate
from spherecert.verify import (
    CERTIFIED,
    DomainSpec,
    check_triple_condition,
    check_sign,
    check_pair_condition,
    check_dd_pair_condition,
    d3_determinant,
    in_d3,
)

T_HALF = (-1.0, 0.5)


def test_in_d3_trivia():
    assert in_d3(0, 0, 0, T_HALF)
    assert d3_determinant(0, 0, 0) == 1.0
    # regular simplex triple sits exactly on the boundary
    assert in_d3(-0.5, -0.5, -0.5, T_HALF)
    assert d3_determinant(-0.5, -0.5, -0.5) == 0.0
    # two nearly antipodal points force the third products to disagree
    assert not in_d3(-1, -1, -0.5, T_HALF)
    assert d3_determinant(-1, -1, -0.5) == -2.25
    # rejection by interval membership alone
    assert not in_d3(0.9, 0.0, 0.0, T_HALF)


def test_in_d3_permutation_invariance():
    rng = np.random.default_rng(40)
    for _ in range(50):
        t, u, v = rng.uniform(-1, 0.5, 3)
        vals = {
            in_d3(*p, T_HALF)
            for p in [(t, u, v), (t, v, u), (u, t, v), (u, v, t), (v, t, u), (v, u, t)]
        }
        assert len(vals) == 1


def test_realizable_triples_pass():
    # Gram triples of any three unit vectors have determinant >= 0
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = rng.normal(size=(3, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        t, u, v = p[0] @ p[1], p[0] @ p[2], p[1] @ p[2]
        assert in_d3(t, u, v, (-1.0, 0.999999999))


def test_check_sign_linear():
    rep = check_sign(GegenbauerExpansion(4, [0.0, 1.0]), (0.0, 0.5), DomainSpec(grid_step=1e-4))
    assert rep.worst_violation == pytest.approx(0.5, abs=1e-9)
    assert rep.location[0] == pytest.approx(0.5, abs=1e-6)


def test_check_sign_zero():
    rep = check_sign(GegenbauerExpansion(4, [0.0, 0.0]), (-1.0, 0.5), DomainSpec(grid_step=1e-3))
    assert rep.worst_violation == 0.0


def test_published_sign_conditions_certified():
    spec = DomainSpec(grid_step=1e-6, mode=CERTIFIED)
    g1 = load_expansion("g1")
    rep = check_sign(g1, (-np.sqrt(2) / 2, 0.5), spec)
    assert rep.certified and rep.worst_violation <= 5e-3
    g2 = load_expansion("g2")
    rep = check_sign(g2, (-0.73, 0.5), spec)
    assert rep.certified and rep.worst_violation <= 5e-3


def test_certified_bound_dominates_true_max():
    # known maximum: degree-1 on [0, 1/2] peaks at the right endpoint
    e = GegenbauerExpansion(4, [0.1, 1.0])
    for step in (1e-2, 1e-3, 1e-4):
        rep = check_sign(e, (0.0, 0.5), DomainSpec(grid_step=step, mode=CERTIFIED))
        assert rep.worst_violation >= 0.6 - 1e-12
        assert rep.sample_max <= rep.worst_violation


def test_refinement_monotonicity():
    # halving the step never drops the certified report by more than the pad
    rng = np.random.default_rng(42)
    e = GegenbauerExpansion(4, rng.normal(size=15))
    pad = e.derivative_bound() * 1e-3 / 2
    r1 = check_sign(e, (-0.9, 0.4), DomainSpec(grid_step=1e-3, mode=CERTIFIED))
    r2 = check_sign(e, (-0.9, 0.4), DomainSpec(grid_step=5e-4, mode=CERTIFIED))
    assert r2.worst_violation >= r1.worst_violation - pad


def test_pair_condition_trivia():
    zero_F = TripleCertificate.from_terms([])
    zero_f = GegenbauerExpansion(4, [0.0])
    spec = DomainSpec(grid_step=1e-3)
    assert check_pair_condition(zero_F, zero_f, T_HALF, spec).worst_violation == 0.0
    # F = t+u+v has F(1,t,t) = 1+2t, cancelling f = 1+2t exactly
    F = TripleCertificate.from_terms([(1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 1, 1.0)])
    f = GegenbauerExpansion(4, [1.0, 2.0])
    rep = check_pair_condition(F, f, T_HALF, spec)
    assert abs(rep.worst_violation) < 1e-12


def test_pair_condition_product_term():
    # F = tuv gives F(1,t,t) = t^2; against f = 1 the gap t^2 - 1 peaks
    # at -0.75 on [-1/2, 1/2] and at 0 at the endpoint t = -1
    F = TripleCertificate.from_terms([(1, 1, 1, 1.0)])
    f = GegenbauerExpansion(4, [1.0])
    spec = DomainSpec(grid_step=1e-4)
    rep = check_pair_condition(F, f, (-0.5, 0.5), spec)
    assert rep.worst_violation == pytest.approx(-0.75, abs=1e-9)
    rep = check_pair_condition(F, f, T_HALF, spec)
    assert rep.worst_violation == pytest.approx(0.0, abs=1e-9)


def test_dd_pair_condition_values():
    spec = DomainSpec(grid_step=1e-3)
    zero_F = TripleCertificate.from_terms([])
    zero = GegenbauerExpansion(4, [0.0])
    assert check_dd_pair_condition(zero, 0.0, zero_F, zero, T_HALF, spec).worst_violation == 0.0
    g0 = GegenbauerExpansion(4, [1.0])
    rep = check_dd_pair_condition(zero, 0.0, zero_F, g0, T_HALF, spec)
    assert rep.worst_violation == pytest.approx(-2.0, abs=1e-12)


def test_triple_condition_trivia():
    spec = DomainSpec(grid_step=0.02)
    zero_F = TripleCertificate.from_terms([])
    zero = GegenbauerExpansion(4, [0.0])
    assert check_triple_condition(zero_F, zero, T_HALF, spec).worst_violation == 0.0
    c = 0.7
    Fc = TripleCertificate.from_terms([(0, 0, 0, 3 * c)])
    gc = GegenbauerExpansion(4, [c])
    assert abs(check_triple_condition(Fc, gc, T_HALF, spec).worst_violation) < 1e-12
    # identity: F = t+u+v vs g = G1
    F = TripleCertificate.from_terms([(1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 1, 1.0)])
    g1 = GegenbauerExpansion(4, [0.0, 1.0])
    assert abs(check_triple_condition(F, g1, T_HALF, spec).worst_violation) < 1e-12


def test_triple_condition_wedge_equals_full_grid():
    # brute-force the full grid (no wedge reduction) and compare
    rng = np.random.default_rng(43)
    F = TripleCertificate.from_terms(
        [(2, 0, 0, 0.8), (1, 1, 0, -0.5), (0, 0, 0, 0.3), (1, 1, 1, 1.1)]
    )
    g = GegenbauerExpansion(4, rng.normal(size=4))
    step = 0.05
    spec = DomainSpec(grid_step=step, refinement_depth=0)
    rep = check_triple_condition(F, g, T_HALF, spec)
    ts = np.linspace(-1.0, 0.5, int(np.ceil(1.5 / step)) + 1)
    best = -np.inf
    for t in ts:
        for u in ts:
            for v in ts:
                if d3_determinant(t, u, v) >= -1e-12:
                    val = F.eval(t, u, v) - g.eval(t) - g.eval(u) - g.eval(v)
                    best = max(best, float(val))
    assert rep.sample_max == pytest.approx(best, abs=1e-12)


def test_triple_condition_empty_region():
    # triples of nearly antipodal values are never realizable
    F = TripleCertificate.from_terms([(0, 0, 0, 1.0)])
    g = GegenbauerExpansion(4, [0.0])
    rep = check_triple_condition(F, g, (-1.0, -0.9), DomainSpec(grid_step=0.01))
    assert rep.worst_violation == -np.inf
    assert rep.location is None


def test_triple_condition_certified_pads():
    F = TripleCertificate.from_terms([(1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 1, 1.0)])
    g = GegenbauerExpansion(4, [0.05, 0.9])
    coarse = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.1, mode=CERTIFIED))
    fine = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.02, mode=CERTIFIED))
    # certified bounds shrink with the grid but stay above the sample max
    assert fine.worst_violation <= coarse.worst_violation + 1e-12
    assert fine.worst_violation >= fine.sample_max


def test_triple_condition_certified_location_in_d3():
    # F = t^2 + u^2 + v^2 is largest at (-1, -1, 1/2), which passes the
    # relaxed certified filter but is not realizable; the reported maximum
    # must still be a value of F - g - g - g at a point of D3(T)
    F = TripleCertificate.from_terms([(2, 0, 0, 3.0)])
    g = GegenbauerExpansion(4, [0.0])
    rep = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.05, mode=CERTIFIED))
    assert in_d3(*rep.location, T_HALF)
    assert rep.sample_max == pytest.approx(F.eval(*rep.location), abs=1e-12)
    assert 1.5 <= rep.sample_max <= rep.worst_violation


def test_domainspec_validation():
    with pytest.raises(ParameterError):
        DomainSpec(grid_step=0.0)
    with pytest.raises(ParameterError):
        DomainSpec(mode="exact")
    with pytest.raises(ParameterError):
        DomainSpec(T=(0.0, 1.0))
    with pytest.raises(ParameterError):
        check_sign(GegenbauerExpansion(4, [1.0]), (0.5, 0.1), DomainSpec())
