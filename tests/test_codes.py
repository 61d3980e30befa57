from collections import Counter
from fractions import Fraction as Q

import numpy as np
import pytest

from spherecert.codes import (
    BUILTIN_NAMES,
    SphericalCode,
    builtin_code,
    distance_distribution,
    energy,
    make_24cell,
    make_cross_polytope,
    make_simplex,
    moment,
    r_value,
    s_sum,
)
from spherecert.data import load_expansion
from spherecert.errors import AmbiguityError, ParameterError
from spherecert.gegenbauer import GegenbauerExpansion


def all_builtins():
    return [builtin_code(name) for name in BUILTIN_NAMES]


def test_simplex():
    for n in (2, 3, 4, 7):
        c = make_simplex(n)
        assert c.size == n + 1
        assert np.max(np.abs(np.sum(c.points**2, axis=1) - 1)) < 1e-12
        d = distance_distribution(c)
        assert d.entries == {Q(-1, n): Q(n)}


def test_cross_polytope():
    c = make_cross_polytope(4)
    assert c.size == 8
    assert distance_distribution(c).entries == {Q(-1): Q(1), Q(0): Q(6)}
    c2 = make_cross_polytope(2)
    assert distance_distribution(c2).entries == {Q(-1): Q(1), Q(0): Q(2)}


def test_24cell_distribution_exact():
    c = make_24cell()
    assert (c.size, c.n) == (24, 4)
    d = distance_distribution(c)
    assert d.exact
    assert d.entries == {Q(-1): Q(1), Q(-1, 2): Q(8), Q(0): Q(6), Q(1, 2): Q(8)}
    assert d.total_mass() == 23
    # every point sees the same pattern
    for row in d.per_point:
        assert row == {Q(-1): 1, Q(-1, 2): 8, Q(0): 6, Q(1, 2): 8}
    assert max(t for t in d.entries) == Q(1, 2)


def test_mass_totals_n_minus_one():
    for c in all_builtins():
        d = distance_distribution(c)
        assert abs(float(d.total_mass()) - (c.size - 1)) < 1e-9


def test_single_point_code():
    one = SphericalCode(3, np.array([[0.0, 0.0, 1.0]]))
    d = distance_distribution(one)
    assert d.entries == {}
    assert d.total_mass() == 0
    assert moment(one, 9) == 1.0


def test_interval_masses_24cell():
    d = distance_distribution(make_24cell())
    for (a, b), expect in [
        ((-1, -0.45), 9), ((-1, 0.05), 15), ((-0.55, 0.05), 14),
        ((-0.05, 0.5), 14), ((-1, -0.73), 1), ((0.35, 0.5), 8),
    ]:
        assert d.interval_mass(a, b) == expect
    assert d.interval_mass(0.3, 0.1) == 0  # empty interval


def test_moments_nonnegative():
    for c in all_builtins():
        for k in range(23):
            assert moment(c, k) >= -1e-9


def test_first_moment_is_squared_sum():
    for c in all_builtins():
        expected = float(np.sum(c.points.sum(axis=0) ** 2))
        assert moment(c, 1) == pytest.approx(expected, abs=1e-9)
    assert moment(make_cross_polytope(4), 1) == pytest.approx(0.0, abs=1e-10)


def test_24cell_third_moment_direct_sum_oracle():
    c = make_24cell()
    # brute-force ordered-pair sum of 2t^3 - t, the degree-3 basis element
    g = c.gram()
    oracle = float(np.sum(2 * g**3 - g))
    assert moment(c, 3) == pytest.approx(oracle, abs=1e-9)
    assert moment(c, 3) >= -1e-9


def test_energy_values():
    zero = GegenbauerExpansion(4, [0.0])
    g1 = GegenbauerExpansion(4, [0.0, 1.0])
    assert energy(make_24cell(), zero) == 0.0
    assert energy(make_simplex(4), g1) == pytest.approx(-5.0, abs=1e-12)
    assert energy(make_cross_polytope(4), g1) == pytest.approx(-8.0, abs=1e-12)


def test_energy_24cell_matches_distribution_route():
    c = make_24cell()
    g1 = load_expansion("g1")
    per_point = (
        g1.eval(-1.0) + 8 * g1.eval(-0.5) + 6 * g1.eval(0.0) + 8 * g1.eval(0.5)
    )
    assert energy(c, g1) == pytest.approx(24 * per_point, rel=1e-9)
    assert r_value(c, g1) == pytest.approx(per_point, rel=1e-9)


def test_s_sum_identity():
    rng = np.random.default_rng(4)
    for c in all_builtins():
        f = GegenbauerExpansion(c.n, rng.normal(size=9))
        lhs = s_sum(c, f)
        rhs = c.size * f.at_one() + energy(c, f)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_r_value_two_routes_agree():
    rng = np.random.default_rng(5)
    for c in all_builtins():
        g = GegenbauerExpansion(c.n, rng.normal(size=12))
        via_pairs = r_value(c, g)
        via_dist = distance_distribution(c).r_value(g)
        assert via_pairs == pytest.approx(via_dist, rel=1e-9, abs=1e-9)


def test_lp_inequality_on_builtins():
    # R_f >= c0 N - f(1) for nonnegative coefficient vectors
    rng = np.random.default_rng(6)
    for c in all_builtins():
        for _ in range(20):
            coeffs = rng.uniform(0, 1, size=rng.integers(1, 23))
            f = GegenbauerExpansion(c.n, coeffs)
            assert r_value(c, f) >= coeffs[0] * c.size - f.at_one() - 1e-9


def test_float_code_clustering():
    pts = make_24cell().points
    c = SphericalCode(4, pts)  # no exact table
    d = distance_distribution(c, tol=1e-9)
    assert not d.exact
    assert sorted(d.entries) == pytest.approx([-1.0, -0.5, 0.0, 0.5], abs=1e-12)
    assert sorted(d.entries.values()) == pytest.approx([1.0, 6.0, 8.0, 8.0])
    # a rotated copy has no exact products; every point still sees the
    # 24-cell pattern
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))
    d = distance_distribution(SphericalCode(4, pts @ q), tol=1e-9)
    assert len(d.per_point) == 24
    for row in d.per_point:
        assert list(row) == pytest.approx([-1.0, -0.5, 0.0, 0.5], abs=1e-12)
        assert list(row.values()) == [1, 8, 6, 8]
    # per-point counts on a random code against labelling each product by
    # its nearest cluster representative
    pts = np.random.default_rng(8).normal(size=(30, 3))
    code = SphericalCode(3, pts / np.linalg.norm(pts, axis=1, keepdims=True))
    d = distance_distribution(code)
    reps = np.array(sorted(d.entries))
    for i, row in enumerate(d.per_point):
        nearest = reps[np.argmin(np.abs(np.delete(code.gram()[i], i)[:, None] - reps), axis=1)]
        assert row == Counter(nearest.tolist())


def test_cluster_ambiguity():
    # two product clusters separated by ~1.5 tol
    angles = [0.0, np.pi / 3, np.pi / 3 + np.arccos(0.5015)]
    pts = np.array([[np.cos(a), np.sin(a)] for a in angles])
    code = SphericalCode(2, pts)
    with pytest.raises(AmbiguityError):
        distance_distribution(code, tol=1e-3)
    # a smaller tolerance resolves it
    d = distance_distribution(code, tol=1e-4)
    assert len(d.entries) == 3


def test_validation():
    with pytest.raises(ParameterError, match="point 1"):
        SphericalCode(3, np.array([[1.0, 0, 0], [0.5, 0.5, 0.5]]))
    with pytest.raises(ParameterError):
        energy(make_simplex(3), GegenbauerExpansion(4, [1.0]))
    with pytest.raises(ParameterError):
        builtin_code("hypercube5")
    with pytest.raises(ParameterError):
        SphericalCode.from_dict({"n": 3})
    with pytest.raises(ParameterError, match="finite"):
        SphericalCode(2, np.array([[1.0, 0.0], [np.nan, 0.0]]))


def test_json_round_trip():
    c = make_simplex(3)
    c2 = SphericalCode.from_dict(c.to_dict())
    assert c2.size == c.size
    assert np.allclose(c2.points, c.points)
