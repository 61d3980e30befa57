import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from oracles import (
    cell_max_exact,
    dd_certificate,
    pair_expansion_fractions,
    sweep_1d_loop,
    triple_expansion_fractions,
    triple_sweep_loop,
    upper_per_box,
)
from spherecert import cli, threepoint, verify
from spherecert.bounds import DDCertificate
from spherecert.data import load_expansion
from spherecert.errors import ParameterError
from spherecert.gegenbauer import GegenbauerExpansion, monomial_coeffs, monomial_to_gegenbauer
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
T0 = -np.sqrt(2) / 2


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


def test_triple_condition_certified_bound_dominates_full_grid():
    # the certified bound is above the maximum over the full, unreduced
    # grid of T^3 (no wedge) restricted to D3(T), and the sampled maximum
    # is a value of F - g - g - g at a point of D3(T)
    rng = np.random.default_rng(43)
    F = TripleCertificate.from_terms(
        [(2, 0, 0, 0.8), (1, 1, 0, -0.5), (0, 0, 0, 0.3), (1, 1, 1, 1.1)]
    )
    g = GegenbauerExpansion(4, rng.normal(size=4))
    step = 0.05
    rep = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=step, mode=CERTIFIED))
    ts = np.linspace(-1.0, 0.5, int(np.ceil(1.5 / step)) + 1)
    t, u, v = (x.ravel() for x in np.meshgrid(ts, ts, ts, indexing="ij"))
    inside = d3_determinant(t, u, v) >= 0.0
    t, u, v = t[inside], u[inside], v[inside]
    best = float(np.max(F.eval(t, u, v) - g.eval(t) - g.eval(u) - g.eval(v)))
    assert rep.worst_violation >= best
    assert in_d3(*rep.location, T_HALF)
    assert rep.sample_max == pytest.approx(
        F.eval(*rep.location) - sum(g.eval(x) for x in rep.location), abs=1e-12)
    assert rep.sample_max <= rep.worst_violation


EMPTY_D3 = ("D3(T) is empty for T = [-1.0, -0.9]: b < -1/2, but realizable triples have "
            "t + u + v >= -3/2, since |x + y + z|^2 = 3 + 2(t + u + v) >= 0")


def test_triple_condition_empty_region():
    # triples of nearly antipodal values are never realizable
    F = TripleCertificate.from_terms([(0, 0, 0, 1.0)])
    g = GegenbauerExpansion(4, [0.0])
    for spec in (DomainSpec(grid_step=0.01), DomainSpec(grid_step=0.01, mode=CERTIFIED)):
        with pytest.raises(ParameterError) as err:
            check_triple_condition(F, g, (-1.0, -0.9), spec)
        assert str(err.value) == EMPTY_D3


@pytest.mark.parametrize("T, steps", [((-0.69, -0.49), (0.01,)), ((-1.0, -0.49), (0.01,)),
                                      ((-1.0, -0.48), (0.01, 0.04)),
                                      ((-1.0, -0.47), (0.01, 0.04))])
def test_triple_condition_thin_region_reports(T, steps):
    # F - g - g - g = -3 bounds every first-level box below 0, where these
    # thin D3(T) may hold no centre; the sweep starts from the corner
    # (b, b, b) and reports that the condition holds
    F = TripleCertificate.from_terms([(0, 0, 0, 0.0)])
    g = GegenbauerExpansion(4, [1.0])
    for step in steps:
        for mode in (verify.SAMPLED, CERTIFIED):
            rep = check_triple_condition(F, g, T, DomainSpec(step, mode))
            assert in_d3(*rep.location, T)
            assert rep.sample_max == -3.0
            assert rep.sample_max <= rep.worst_violation <= 0.0
            assert rep.to_dict() == triple_sweep_loop(F, g, T, DomainSpec(step, mode)).to_dict()


def test_one_loop_keeps_every_report():
    # the checks share one bisection loop; each report keeps the bits of a
    # loop of its own with the same rule (tests/oracles.py), in both modes,
    # swept to the end and with verify-cert's default refutation level
    g1, g2 = load_expansion("g1"), load_expansion("g2")
    rng = np.random.default_rng(19)
    seeded = []
    for n in range(3, 9):
        lo = float(rng.uniform(-1.0, 0.0))
        hi = lo if n == 5 else float(rng.uniform(lo, 1.0))
        seeded.append((GegenbauerExpansion(n, rng.normal(size=n + 5) / np.arange(1, n + 6)),
                       (lo, hi)))
    full = DDCertificate.from_dict(dd_certificate(4, True))
    F, g, h, h0 = full.F, full.g, full.h, full.h0
    certs = [DDCertificate.from_dict(dd_certificate(d, valid))
             for d in (4, 8, 12) for valid in (True, False)]
    for mode in (verify.SAMPLED, CERTIFIED):
        fine, spec = DomainSpec(1e-6, mode), DomainSpec(1e-5, mode)
        pairs = []
        for refute in (np.inf, 5e-3):
            pairs += [(check_sign(e, S, fine, refute), sweep_1d_loop(e, S, fine, "sign:g<=0",
                                                                     refute=refute))
                      for e, S in ((g1, (T0, 0.5)), (g2, (-0.73, 0.5)))]
            pairs += [(check_sign(e, S, spec, refute), sweep_1d_loop(e, S, spec, "sign:g<=0",
                                                                     refute=refute))
                      for e, S in seeded]
            if refute == np.inf:  # check_pair_condition takes no refutation level
                e, slack = verify._pair_expansion(4, F, [(-1, g)])
                pairs.append((check_pair_condition(F, g, T_HALF, spec),
                              sweep_1d_loop(e, T_HALF, spec, "pair:F(1,t,t)<=f", slack)))
            e, slack = verify._pair_expansion(
                4, F, [(1, h), (1, GegenbauerExpansion(4, [h0])), (-2, g)])
            pairs.append((check_dd_pair_condition(h, h0, F, g, T_HALF, spec, refute),
                          sweep_1d_loop(e, T_HALF, spec, "pair:h+h0+F(1,t,t)<=2g", slack, refute)))
            for step in (0.01, 0.02, 0.04):
                pairs += [(check_triple_condition(c.F, c.g, c.T, DomainSpec(step, mode), refute),
                           triple_sweep_loop(c.F, c.g, c.T, DomainSpec(step, mode), refute))
                          for c in certs]
        for got, want in pairs:
            assert got.to_dict() == want.to_dict()
        # every kind of ending is covered: proven <= 0, refuted, and a
        # positive maximum swept to the grid step
        assert {(p.sample_max > 5e-3, p.worst_violation <= 0.0) for p, _ in pairs} == {
            (False, True), (True, False), (False, False)}
        one, zero = TripleCertificate.from_terms([(0, 0, 0, 1.0)]), GegenbauerExpansion(4, [0.0])
        for check in (check_triple_condition, triple_sweep_loop):
            with pytest.raises(ParameterError) as err:
                check(one, zero, (-1.0, -0.9), DomainSpec(0.01, mode))
            assert str(err.value) == EMPTY_D3


def test_triple_condition_certified_pads():
    F = TripleCertificate.from_terms([(1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 1, 1.0)])
    g = GegenbauerExpansion(4, [0.05, 0.9])
    coarse = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.1, mode=CERTIFIED))
    fine = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.02, mode=CERTIFIED))
    # certified bounds shrink with the grid but stay above the sample max
    assert fine.worst_violation <= coarse.worst_violation + 1e-12
    assert fine.worst_violation >= fine.sample_max


def test_triple_condition_certified_location_in_d3():
    # F = t^2 + u^2 + v^2 is largest on T^3 at (-1, -1, 1/2), which is not
    # realizable; the reported maximum must still be a value of
    # F - g - g - g at a point of D3(T)
    F = TripleCertificate.from_terms([(2, 0, 0, 3.0)])
    g = GegenbauerExpansion(4, [0.0])
    rep = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.05, mode=CERTIFIED))
    assert in_d3(*rep.location, T_HALF)
    assert rep.sample_max == pytest.approx(F.eval(*rep.location), abs=1e-12)
    assert 1.5 <= rep.sample_max <= rep.worst_violation


@pytest.mark.parametrize("d", [8, 12])
def test_triple_condition_certifies_valid_certificates(d):
    # the side conditions of these certificates hold with a margin of S/4,
    # which a global pad over the cube never showed at d = 8 and 12
    for step in (0.02, 0.04):
        spec = DomainSpec(grid_step=step, mode=CERTIFIED)
        for valid in (True, False):
            cert = DDCertificate.from_dict(dd_certificate(d, valid))
            rep = check_triple_condition(cert.F, cert.g, cert.T, spec)
            assert (rep.worst_violation < 0.0) == valid
            assert rep.sample_max <= rep.worst_violation


def test_triple_condition_certifies_the_d24_certificate():
    # phi has 25 coefficients per axis here; the valid certificate's bound
    # is that of boxes dropped at 0, not the maximum, and the invalid twin
    # is rejected with its maximum
    spec = DomainSpec(grid_step=0.04, mode=CERTIFIED)
    for valid, bound in ((True, -0.0345), (False, 30.87)):
        cert = DDCertificate.from_dict(dd_certificate(24, valid))
        rep = check_triple_condition(cert.F, cert.g, cert.T, spec)
        assert rep.worst_violation == pytest.approx(bound, abs=0.01 if bound > 0 else 1e-4)
        assert rep.sample_max <= rep.worst_violation
        assert (rep.worst_violation <= 0.0) == valid


@pytest.mark.parametrize("d", [4, 8, 12, 22])
def test_decided_triple_bounds_dominate_a_dense_maximum(d):
    # a bound settled at 0 or left by a refutation is still an upper bound:
    # at least the maximum of F - g - g - g over random points of D3(T)
    rng = np.random.default_rng([48, d])
    p = rng.uniform(-1.0, 0.5, size=(40_000, 3))
    t, u, v = p[d3_determinant(*p.T) >= 0.0].T
    for valid in (True, False):
        cert = DDCertificate.from_dict(dd_certificate(d, valid))
        dense = float(np.max(cert.F.eval(t, u, v) - cert.g.eval(t) - cert.g.eval(u)
                             - cert.g.eval(v)))
        assert (dense <= 0.0) == valid
        for step, refute in ((0.01, 5e-3), (0.04, np.inf)):
            rep = check_triple_condition(cert.F, cert.g, cert.T, DomainSpec(step, CERTIFIED),
                                         refute)
            assert rep.worst_violation >= dense


def _symmetric_tensor(rng, m):
    P = rng.normal(size=(m, m, m))
    return sum(P.transpose(p) for p in itertools.permutations(range(3))) / 6.0


def _scattered_children(rng, parents, cells=232):
    """The children inside the wedge of up to `parents` random wedge boxes
    of a cells-per-axis grid, as wedge indices on the 2 * cells grid: few of
    them share a t-centre or a (t, u) pair."""
    idx = np.unique(np.sort(rng.integers(0, cells, size=(parents, 3)), axis=1), axis=0)
    kids = (2 * idx[:, None] + np.indices((2, 2, 2)).reshape(3, -1).T).reshape(-1, 3)
    return kids[(kids[:, 0] <= kids[:, 1]) & (kids[:, 1] <= kids[:, 2])], 2 * cells


def _box_centres(idx, cells, T=T_HALF):
    """Centres and half-width of wedge boxes, as check_triple_condition
    computes them."""
    width = (T[1] - T[0]) / cells
    return T[0] + (2 * idx + 1) * (width / 2.0), width / 2.0 + verify._MID_SLACK


@pytest.mark.parametrize("m", [1, 3, 5, 13, "det"])
def test_upper_matches_the_per_box_oracle(m):
    # sharing the t- and (t, u)-products between boxes moves no bound by
    # more than _upper's own rounding term
    rng = np.random.default_rng([48, 0 if m == "det" else m])
    P = verify._DET if m == "det" else _symmetric_tensor(rng, m)
    k = P.shape[0]
    err = 2.0 * (k ** 3 + 9 * k + 3) * verify._U * float(np.abs(P).sum())
    box_sets = [
        (np.array(list(itertools.combinations_with_replacement(range(12), 3))), 12),
        _scattered_children(rng, 150),
        (np.array([[3, 5, 9]]), 16),
        (np.empty((0, 3), dtype=int), 16),
    ]
    for idx, cells in box_sets:
        mids, rho = _box_centres(idx, cells)
        got = verify._upper(P, mids, rho)
        assert got.shape == (len(idx),)
        assert np.all(np.abs(got - upper_per_box(P, mids, rho)) <= err)


def test_upper_memory_is_bounded():
    # about 24k boxes at m = 13 that share few centres: the shared products
    # are batched within the same coefficient budget as the boxes, so no
    # tensor is held for every (t, u) pair at once (that would take 0.2 GB)
    rng = np.random.default_rng(49)
    idx, cells = _scattered_children(rng, 3200)
    mids, rho = _box_centres(idx, cells)
    P = _symmetric_tensor(rng, 13)
    assert 20_000 < len(mids) < 30_000
    tracemalloc.start()
    try:
        verify._upper(P, mids, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _exact_tensor(c, point):
    """sum c[i, j, k] t^i u^j v^k in exact rationals."""
    t, u, v = (Fraction(x) for x in point)
    out = Fraction(0)
    for (i, j, k), x in np.ndenumerate(c):
        if x:
            out += Fraction(float(x)) * t ** i * u ** j * v ** k
    return out


def _exact_phi(F, g, point):
    """F(t, u, v) - g(t) - g(u) - g(v) in exact rationals, from the stored
    tensor and coefficients."""
    out = _exact_tensor(F.poly(), point)
    for k, c in enumerate(g.coeffs.tolist()):
        mono = monomial_coeffs(g.n, k)
        out -= Fraction(c) * sum(_exact_value(mono, x) for x in point)
    return out


def _d3_points(rng, T, count):
    a, b = T
    p = rng.uniform(a, b, size=(20 * count, 3))
    return p[d3_determinant(*p.T) >= 0.0][:count]


def test_certified_triple_bound_dominates_exact_phi():
    # random certificates, g and T: the bound is above the exact F - g - g - g
    # at the reported location and at random points of D3(T)
    rng = np.random.default_rng(46)
    for _ in range(8):
        deg = int(rng.integers(1, 6))
        terms = [(*rng.integers(0, deg + 1, size=3), float(rng.normal())) for _ in range(12)]
        F = TripleCertificate.from_terms(terms)
        g = GegenbauerExpansion(int(rng.integers(3, 9)), rng.normal(size=int(rng.integers(1, 8))))
        T = (float(rng.uniform(-1.0, -0.3)), float(rng.uniform(0.2, 1.0)))
        rep = check_triple_condition(F, g, T, DomainSpec(grid_step=0.05, mode=CERTIFIED))
        bound = Fraction(rep.worst_violation)
        for point in [rep.location, *_d3_points(rng, T, 30).tolist()]:
            assert bound >= _exact_phi(F, g, point)


def test_triple_expansion_is_within_its_slack():
    # phi's tensor, read at the wedge point sort(x), is within the slack of
    # the exact F - g - g - g of the stored tensor at any x of [-1, 1]^3:
    # F's stored tensor is exactly symmetric, so the slack is the rounding
    # of phi alone and stays below 1e-14 on this d = 12 certificate
    rng = np.random.default_rng(47)
    cert = DDCertificate.from_dict(dd_certificate(12, True))
    phi, slack = verify._triple_expansion(cert.F, cert.g)
    for x in [*itertools.product((-1.0, 1.0), repeat=3), *rng.uniform(-1.0, 1.0, (4, 3)).tolist()]:
        wedge = _exact_tensor(phi, sorted(x))
        assert abs(wedge - _exact_phi(cert.F, cert.g, x)) <= Fraction(slack)
    assert slack < 1e-14


def test_certified_triple_bound_covers_a_bump_between_centres():
    # F = 1 - 1000 |x - (x0, x0, x0)|^2 peaks at 1 on a corner shared by
    # eight final boxes, where no sample lands
    T, step = T_HALF, 0.05
    cells, levels = verify.triple_cells(T, step)
    x0 = T[0] + 24 * (T[1] - T[0]) / (cells << levels)
    assert x0 == 0.125 and in_d3(x0, x0, x0, T)
    F = TripleCertificate.from_terms(
        [(0, 0, 0, 1.0 - 3000.0 * x0 ** 2), (1, 0, 0, 6000.0 * x0), (2, 0, 0, -3000.0)])
    g = GegenbauerExpansion(4, [0.0])
    assert _exact_phi(F, g, (x0, x0, x0)) == 1
    rep = check_triple_condition(F, g, T, DomainSpec(grid_step=step, mode=CERTIFIED))
    assert rep.sample_max < 0.0
    assert rep.worst_violation >= 1.0


def test_domainspec_validation():
    for step in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            DomainSpec(grid_step=step)
    with pytest.raises(ParameterError):
        DomainSpec(mode="exact")
    with pytest.raises(ParameterError):
        check_sign(GegenbauerExpansion(4, [1.0]), (0.5, 0.1), DomainSpec())
    # a step below float resolution would overflow the cell indices
    for step in (1e-16, 1e-320):
        with pytest.raises(ParameterError, match="too fine"):
            check_sign(GegenbauerExpansion(4, [1.0]), (-1.0, 1.0), DomainSpec(grid_step=step))


def _exact_max_near(e, interval, rep):
    """Exact maximum of e on the final cell around the reported location."""
    a, b = interval
    x = rep.location[0]
    return cell_max_exact(e.n, e.coeffs, max(a, x - rep.grid_step), min(b, x + rep.grid_step))


def test_certified_bound_dominates_exact_cell_max():
    # the certified bound is above the exact maximum (mpmath intervals) on
    # the cell that holds the sampled maximum, and the sample is a value
    # of the function there
    spec = DomainSpec(grid_step=1e-6, mode=CERTIFIED)
    for name, interval in (("g1", (T0, 0.5)), ("g2", (-0.73, 0.5))):
        e = load_expansion(name)
        rep = check_sign(e, interval, spec)
        exact = _exact_max_near(e, interval, rep)
        assert mp.mpf(rep.worst_violation) >= exact
        assert rep.worst_violation - float(exact) < 1e-8
        assert rep.sample_max <= float(exact) + 1e-12
    rng = np.random.default_rng(44)
    spec = DomainSpec(grid_step=1e-4, mode=CERTIFIED)
    for _ in range(40):
        n, d = int(rng.integers(3, 9)), int(rng.integers(0, 61))
        e = GegenbauerExpansion(n, rng.normal(size=d + 1) / (1.0 + np.arange(d + 1)) ** 0.5)
        interval = tuple(sorted(rng.uniform(-1.0, 1.0, 2)))
        rep = check_sign(e, interval, spec)
        exact = _exact_max_near(e, interval, rep)
        assert mp.mpf(rep.worst_violation) >= exact
        assert rep.sample_max <= float(exact) + 1e-12 * np.sum(np.abs(e.coeffs))


def test_sign_sweep_point_count():
    # g1 on [t0, 1/2] at a finest cell width of 1e-6: a uniform grid would
    # take 1.2 million points
    rep = check_sign(load_expansion("g1"), (T0, 0.5), DomainSpec(grid_step=1e-6, mode=CERTIFIED))
    assert rep.evaluations <= 60_000
    # a constant is settled by its first cells: ends and 500 midpoints
    rep = check_sign(GegenbauerExpansion(4, [0.3]), (0.0, 0.5), DomainSpec(grid_step=1e-3))
    assert rep.evaluations == 2 + 500
    assert rep.worst_violation == rep.sample_max == 0.3


def test_sample_max_is_the_value_at_location():
    # nothing is refined after the sweep: the reported sample is f at the
    # reported end or midpoint, bit for bit, in both modes
    rng = np.random.default_rng(48)
    for _ in range(30):
        n, d = int(rng.integers(3, 9)), int(rng.integers(0, 41))
        e = GegenbauerExpansion(n, rng.normal(size=d + 1))
        interval = tuple(sorted(rng.uniform(-1.0, 1.0, 2)))
        for mode in ("sampled", CERTIFIED):
            rep = check_sign(e, interval, DomainSpec(grid_step=1e-4, mode=mode))
            assert rep.sample_max == e.eval(rep.location[0])
            assert interval[0] <= rep.location[0] <= interval[1]


def test_sign_sweep_worst_case_point_count():
    # when cells cannot be dropped the sweep still costs at most about twice
    # a uniform grid at the same step
    step = 1e-4
    uniform = int(np.ceil(2.0 / step)) + 1
    oscillating = GegenbauerExpansion(5, (-1.0) ** np.arange(61))
    for e in (GegenbauerExpansion(5, [1.0]), oscillating):
        for mode in ("sampled", CERTIFIED):
            rep = check_sign(e, (-1.0, 1.0), DomainSpec(grid_step=step, mode=mode))
            assert rep.evaluations <= 2 * uniform


def test_clenshaw_intermediates_bound():
    # _clenshaw_err assumes the associated polynomials P_{j,k} of the
    # recurrence G_{j+1} = a_j x G_j + beta_j G_{j-1} (started from
    # P_{k,k} = 1, P_{k+1,k} = a_k x) are at most j - k + 1 in size on [-1, 1]
    x = np.linspace(-1.0, 1.0, 4001)
    for n in range(3, 14):
        for k in range(0, 64, 9):
            alpha = lambda j: (2 * j + n - 2) / (j + n - 2)
            prev, cur = np.ones_like(x), alpha(k) * x
            for j in range(k + 1, k + 150):
                assert np.max(np.abs(cur)) <= j - k + 1
                prev, cur = cur, alpha(j) * x * cur - j / (j + n - 2) * prev


def test_pair_checks_certified_bounds_dominate_dense_samples():
    rng = np.random.default_rng(45)
    F = TripleCertificate.from_terms([(2, 1, 0, 0.4), (1, 1, 1, -0.3), (3, 0, 0, 0.2)])
    f = GegenbauerExpansion(4, rng.normal(size=25) / (1.0 + np.arange(25)))
    h = GegenbauerExpansion(4, rng.normal(size=21) / (1.0 + np.arange(21)))
    g = GegenbauerExpansion(4, rng.normal(size=23) / (1.0 + np.arange(23)))
    xs = np.linspace(-1.0, 0.5, 200_001)
    spec = DomainSpec(grid_step=1e-5, mode=CERTIFIED)
    rep = check_pair_condition(F, f, T_HALF, spec)
    assert rep.worst_violation >= np.max(F.eval(1.0, xs, xs) - f.eval(xs))
    rep = check_dd_pair_condition(h, 0.3, F, g, T_HALF, spec)
    assert rep.worst_violation >= np.max(h.eval(xs) + 0.3 + F.eval(1.0, xs, xs) - 2 * g.eval(xs))
    assert rep.worst_violation - rep.sample_max < 1e-6
    assert rep.evaluations < 20_000


def test_triple_condition_counts_evaluations():
    F = TripleCertificate.from_terms([(1, 1, 0, 0.5), (0, 0, 0, 0.2)])
    g = GegenbauerExpansion(4, [0.1, 0.3])
    spec = DomainSpec(grid_step=0.05)
    rep = check_triple_condition(F, g, T_HALF, spec)
    m = 31  # points per axis of a uniform grid on [-1, 1/2]
    assert 0 < rep.evaluations <= m * (m + 1) * (m + 2) // 6
    assert rep.evaluations == check_triple_condition(F, g, T_HALF, spec).evaluations
    assert rep.to_dict()["evaluations"] == rep.evaluations


def test_triple_condition_counts_the_points_it_evaluates(monkeypatch):
    # evaluations is the number of points where phi is sampled, the corner
    # (b, b, b) included
    F = TripleCertificate.from_terms([(1, 1, 0, 0.5), (0, 0, 0, 0.2)])
    g = GegenbauerExpansion(4, [0.1, 0.3])
    points = []
    orig = verify._eval_tensor

    def counted(c, t, u, v):
        points.append(np.broadcast(np.asarray(t), np.asarray(u), np.asarray(v)).size)
        return orig(c, t, u, v)

    monkeypatch.setattr(verify, "_eval_tensor", counted)
    for mode in ("sampled", CERTIFIED):
        points.clear()
        rep = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.05, mode=mode))
        assert rep.evaluations == sum(points)


def test_triple_step_too_fine_is_refused_before_evaluating(monkeypatch):
    def refuse(*args):
        raise AssertionError("phi evaluated")

    monkeypatch.setattr(verify, "_eval_tensor", refuse)
    F = TripleCertificate.from_terms([(0, 0, 0, 1.0)])
    g = GegenbauerExpansion(4, [1.0])
    a, b = T_HALF
    # a wedge of m cells per axis holds m (m+1) (m+2) / 6 boxes
    m = verify._MAX_AXIS_3D
    assert m * (m + 1) * (m + 2) // 6 <= 2 ** 24 < (m + 1) * (m + 2) * (m + 3) // 6
    with pytest.raises(ParameterError, match="too fine") as err:
        check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=(b - a) / (m - 0.5)))
    finest = float(str(err.value).rsplit(" ", 1)[1])
    assert np.ceil((b - a) / finest) + 1 <= m
    cells, levels = verify.triple_cells(T_HALF, finest)
    assert cells << levels <= m
    assert np.ceil((b - a) / verify.DEFAULT_STEP_3D) + 1 <= m


def test_empty_d3_is_refused_before_evaluating(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a function evaluated")

    for owner, name in ((verify, "_eval_tensor"), (threepoint, "_eval_tensor"),
                        (verify, "check_sign"), (cli, "check_sign")):
        monkeypatch.setattr(owner, name, refuse)
    F = TripleCertificate.from_terms([(0, 0, 0, 1.0)])
    g = GegenbauerExpansion(4, [0.0])
    with pytest.raises(ParameterError) as err:
        check_triple_condition(F, g, (-1.0, -0.9), DomainSpec(0.01, CERTIFIED))
    assert str(err.value) == EMPTY_D3
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({
        "g": {"n": 4, "coeffs": [-1.0]}, "T": [-1, -0.9],
        "h": {"n": 4, "coeffs": [0.0]}, "h0": -4.0,
        "F": {"terms": [{"i": 0, "j": 0, "k": 0, "a": 1.0}]},
    }))
    assert cli.main(["verify-cert", str(f), "--mode", "certified"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "ParameterError: " + EMPTY_D3}


def test_triple_condition_reports_a_point_of_d3_or_refuses():
    # D3(T) is empty exactly when b < -1/2; otherwise every sweep reports a
    # sample of phi at a point of D3(T), also where D3(T) is a thin sliver
    # that the first level's centres miss
    rng = np.random.default_rng(25)
    Ts = [(-1.0, -0.5), (-0.5, -0.5), (-0.69, -0.49), (-1.0, -0.49), (-1.0, -0.48),
          (-1.0, -0.47), (-1.0, -0.5000001), (-0.6, -0.6)]
    Ts += [tuple(sorted(rng.uniform(-1.0, 1.0, 2))) for _ in range(12)]
    pairs = [(TripleCertificate.from_terms([]), GegenbauerExpansion(4, [1.0])),
             (TripleCertificate.from_terms([(2, 0, 0, 3.0), (1, 1, 1, -0.5)]),
              GegenbauerExpansion(4, [0.1, -0.2, 0.3]))]
    for T in Ts:
        for F, g in pairs:
            phi, _ = verify._triple_expansion(F, g)
            for step in (0.01, 0.04):
                for mode in (verify.SAMPLED, CERTIFIED):
                    spec = DomainSpec(step, mode)
                    if T[1] < -0.5:
                        with pytest.raises(ParameterError, match="D3\\(T\\) is empty"):
                            check_triple_condition(F, g, T, spec, refute=5e-3)
                        continue
                    rep = check_triple_condition(F, g, T, spec, refute=5e-3)
                    assert in_d3(*rep.location, T)
                    assert rep.sample_max == verify._eval_tensor(phi, *rep.location)
                    assert rep.sample_max <= rep.worst_violation


def _vanishing_tensor(rng, degree=3):
    """(t-1)(u-1)(v-1) Q with random Q: F(1, t, t) is 0 in exact arithmetic,
    and the stored tensor keeps only its rounding errors."""
    terms = []
    for a, b, c in itertools.product(range(degree + 1), repeat=3):
        q = float(rng.normal())
        for e in itertools.product((0, 1), repeat=3):
            terms.append((a + e[0], b + e[1], c + e[2], (-1.0) ** (3 - sum(e)) * q))
    return TripleCertificate.from_terms(terms)


def _exact_diag(F):
    """Exact monomial coefficients of s -> F(1, s, s) of the stored tensor."""
    c = F.poly()
    out = [Fraction(0)] * (2 * c.shape[1] - 1)
    for (i, j, k), x in np.ndenumerate(c):
        out[j + k] += Fraction(float(x))
    return out


def _exact_value(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * Fraction(x) + c
    return out


def test_certified_pair_bounds_dominate_exact_pair_function():
    # here F(1, t, t) is a polynomial of size about 1e-16 whose float sums
    # cancel badly; the certified bounds must still be above its exact
    # values (with f = 0, and h = h0 = g = 0)
    rng = np.random.default_rng(0)
    zero = GegenbauerExpansion(4, [0.0])
    spec = DomainSpec(grid_step=1e-4, mode=CERTIFIED)
    xs = np.linspace(-1.0, 0.5, 1001).tolist()
    for _ in range(6):
        F = _vanishing_tensor(rng)
        diag = _exact_diag(F)
        exact_max = max(_exact_value(diag, x) for x in xs)
        for rep in (check_pair_condition(F, zero, T_HALF, spec),
                    check_dd_pair_condition(zero, 0.0, F, zero, T_HALF, spec)):
            assert Fraction(rep.worst_violation) >= exact_max
            assert Fraction(rep.worst_violation) >= _exact_value(diag, rep.location[0])
            assert rep.worst_violation < 1e-14


def _captured_expansion(monkeypatch, check, *args):
    """The expansion and slack that check hands to the 1-D sweep."""
    seen = []
    sweep = verify._sweep_1d

    def capture(e, interval, spec, condition, slack=0.0, refute=np.inf):
        seen.append((e, slack))
        return sweep(e, interval, spec, condition, slack, refute)

    monkeypatch.setattr(verify, "_sweep_1d", capture)
    check(*args, T_HALF, DomainSpec(grid_step=1e-3, mode=CERTIFIED))
    monkeypatch.undo()
    (e, slack), = seen
    return e, slack


def test_pair_expansions_are_within_their_slack(monkeypatch):
    # the built expansion differs from the exact rational pair function by
    # at most its charged slack, summed over coefficients (each |G_k| <= 1)
    rng = np.random.default_rng(51)
    psd = [(lambda a: a @ a.T)(rng.normal(size=(5 - k, 5 - k))) for k in range(5)]
    certs = [TripleCertificate.from_matrices(4, 4, psd),
             TripleCertificate.from_terms([(2, 1, 0, 0.4), (1, 1, 1, -0.3), (3, 0, 0, 0.2)]),
             _vanishing_tensor(rng)]
    exact = lambda e: [Fraction(c) for c in e.coeffs]
    for F in certs:
        f = GegenbauerExpansion(4, rng.normal(size=7) / 3.0)
        h = GegenbauerExpansion(4, rng.normal(size=12))
        g = GegenbauerExpansion(4, rng.normal(size=5))
        h0 = float(rng.normal())
        diag = monomial_to_gegenbauer(4, _exact_diag(F))
        for args, parts, const in (((F, f), [(-1, f)], 0),
                                   ((h, h0, F, g), [(1, h), (-2, g)], h0)):
            check = check_pair_condition if len(args) == 2 else check_dd_pair_condition
            e, slack = _captured_expansion(monkeypatch, check, *args)
            want = diag + [Fraction(0)] * (e.coeffs.size - len(diag))
            want[0] += Fraction(const)
            for w, p in parts:
                for k, c in enumerate(exact(p)):
                    want[k] += w * c
            assert len(want) == e.coeffs.size
            assert sum(abs(a - b) for a, b in zip(exact(e), want)) <= Fraction(slack)
            # and the slack is of the size of one rounding per coefficient
            size = sum(abs(c) for c in want) + sum(abs(c) for c in _exact_diag(F))
            assert Fraction(slack) <= size * Fraction(2.0 ** -52)


def test_expansions_keep_the_bits_of_their_fraction_sums():
    # the pair and triple expansions, summed in integers over one
    # denominator, round the same exact rationals as the Fraction sums do:
    # every coefficient and both slacks keep their bits
    for d in range(29):
        for valid in (True, False):
            cert = DDCertificate.from_dict(dd_certificate(d, valid))
            F, g, h = cert.F, cert.g, cert.h
            for parts in ([(-1, g)], [(1, h), (1, GegenbauerExpansion(4, [cert.h0])), (-2, g)]):
                (e, slack), (want, want_slack) = (verify._pair_expansion(4, F, parts),
                                                  pair_expansion_fractions(4, F, parts))
                assert e.coeffs.tobytes() == want.coeffs.tobytes(), (d, valid)
                assert slack.hex() == want_slack.hex(), (d, valid)
            (phi, slack), (want, want_slack) = (verify._triple_expansion(F, g),
                                                triple_expansion_fractions(F, g))
            assert phi.tobytes() == want.tobytes() and slack.hex() == want_slack.hex(), (d, valid)


def test_sign_sweep_charges_no_slack(monkeypatch):
    g = GegenbauerExpansion(4, [0.1, 0.3])
    e, slack = _captured_expansion(monkeypatch, check_sign, g)
    assert e is g and slack == 0.0


def test_pair_dimension_mismatch():
    zero_F = TripleCertificate.from_terms([])
    h, g = GegenbauerExpansion(5, [0.0]), GegenbauerExpansion(4, [1.0])
    with pytest.raises(ParameterError, match="dimension"):
        check_dd_pair_condition(h, 0.0, zero_F, g, T_HALF)
