import itertools
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from oracles import cell_max_exact
from spherecert import verify
from spherecert.data import load_expansion
from spherecert.errors import ParameterError
from spherecert.gegenbauer import GegenbauerExpansion, monomial_to_gegenbauer
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


def test_triple_condition_wedge_equals_full_grid(monkeypatch):
    # brute-force the full grid (no wedge reduction) and compare; depth 0
    # keeps the golden-section refinement from moving off the grid maximum
    monkeypatch.setattr(verify, "REFINEMENT_DEPTH", 0)
    rng = np.random.default_rng(43)
    F = TripleCertificate.from_terms(
        [(2, 0, 0, 0.8), (1, 1, 0, -0.5), (0, 0, 0, 0.3), (1, 1, 1, 1.1)]
    )
    g = GegenbauerExpansion(4, rng.normal(size=4))
    step = 0.05
    spec = DomainSpec(grid_step=step)
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
    for spec in (DomainSpec(grid_step=0.01), DomainSpec(grid_step=0.01, mode=CERTIFIED)):
        with pytest.raises(ParameterError, match="no grid point"):
            check_triple_condition(F, g, (-1.0, -0.9), spec)


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
    # a constant is settled by its first cells: ends, 500 midpoints, refinement
    rep = check_sign(GegenbauerExpansion(4, [0.3]), (0.0, 0.5), DomainSpec(grid_step=1e-3))
    assert rep.evaluations == 2 + 500 + verify.REFINEMENT_DEPTH + 3
    assert rep.worst_violation == rep.sample_max == 0.3


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
    m = 31  # grid points on [-1, 1/2]
    refinement = max(1, verify.REFINEMENT_DEPTH // 10) * 3 * (verify.REFINEMENT_DEPTH + 3) + 1
    assert 0 < rep.evaluations <= m * (m + 1) * (m + 2) // 6 + refinement
    assert rep.evaluations == check_triple_condition(F, g, T_HALF, spec).evaluations
    assert rep.to_dict()["evaluations"] == rep.evaluations


def test_triple_condition_counts_the_points_it_evaluates(monkeypatch):
    # evaluations is the number of points TripleCertificate.eval receives
    F = TripleCertificate.from_terms([(1, 1, 0, 0.5), (0, 0, 0, 0.2)])
    g = GegenbauerExpansion(4, [0.1, 0.3])
    points = []
    orig = TripleCertificate.eval

    def counted(self, t, u, v):
        points.append(np.broadcast(np.asarray(t), np.asarray(u), np.asarray(v)).size)
        return orig(self, t, u, v)

    monkeypatch.setattr(TripleCertificate, "eval", counted)
    for mode in ("sampled", CERTIFIED):
        points.clear()
        rep = check_triple_condition(F, g, T_HALF, DomainSpec(grid_step=0.05, mode=mode))
        assert rep.evaluations == sum(points)


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

    def capture(e, interval, spec, condition, slack=0.0):
        seen.append((e, slack))
        return sweep(e, interval, spec, condition, slack)

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


def test_sign_sweep_charges_no_slack(monkeypatch):
    g = GegenbauerExpansion(4, [0.1, 0.3])
    e, slack = _captured_expansion(monkeypatch, check_sign, g)
    assert e is g and slack == 0.0


def test_pair_dimension_mismatch():
    zero_F = TripleCertificate.from_terms([])
    h, g = GegenbauerExpansion(5, [0.0]), GegenbauerExpansion(4, [1.0])
    with pytest.raises(ParameterError, match="dimension"):
        check_dd_pair_condition(h, 0.0, zero_F, g, T_HALF)
