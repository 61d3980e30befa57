import math
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest

from oracles import _monomial_oracle_exact, energy_whole_matrix, moment_whole_matrix
from spherecert import codes, gegenbauer
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


def test_builtin_moments_are_exact():
    # a built-in code's moment is its exact pair sum rounded once: summed
    # here over every ordered pair of its product table, with G_k from
    # Gram-Schmidt, and 0.0 for every k up to the code's design strength
    for name, strength in (("simplex3", 2), ("simplex4", 2), ("cross3", 3), ("cross4", 3),
                           ("24cell", 5)):
        code = builtin_code(name)
        for k in range(9):
            coeffs = _monomial_oracle_exact(code.n, k)
            exact = sum(sum(c * t ** i for i, c in enumerate(coeffs))
                        for row in code.exact_products for t in row)
            assert moment(code, k) == float(exact)
            if 1 <= k <= strength:
                assert moment(code, k) == 0.0


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
        via_dist = sum(float(m) * g.eval(float(t))
                       for t, m in distance_distribution(c).entries.items())
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


def test_distance_distribution_memory_before_ambiguity():
    # nearly every ordered pair of a random code is a cluster of its own;
    # clusters are read as slices of the sorted products, not held as one
    # array each, and the first ambiguous pair raises before the rest are
    # read
    rng = np.random.default_rng(0)
    N = 1000
    X = rng.normal(size=(N, 5))
    code = SphericalCode(5, X / np.linalg.norm(X, axis=1, keepdims=True))
    tracemalloc.start()
    try:
        with pytest.raises(AmbiguityError):
            distance_distribution(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * code.gram().nbytes


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


def test_gram_cache_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        SphericalCode(3, np.eye(3), _gram=np.ones((3, 3)))
    assert "_gram" not in repr(SphericalCode(3, np.eye(3)))


def test_exact_products_are_checked_against_the_points():
    one, zero, half = Q(1), Q(0), Q(1, 2)
    eye = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    assert distance_distribution(SphericalCode(3, np.eye(3), exact_products=eye)).entries == {zero: 2}
    ones = tuple((one,) * 3 for _ in range(3))
    skew = ((one, half, zero), (zero, one, zero), (zero, zero, one))
    diag = tuple(tuple(half if i == j else zero for j in range(3)) for i in range(3))
    for table, match in ((ones, "away from"), (((one,),), "3 x 3"),
                         (eye[:2] + ((zero, one),), "3 x 3"), (skew, "differ"),
                         (diag, "not 1")):
        with pytest.raises(ParameterError, match=match):
            SphericalCode(3, np.eye(3), exact_products=table)
    # the float products of the built-ins' points are within the tolerance
    for c in all_builtins():
        assert SphericalCode(c.n, c.points, exact_products=c.exact_products).size == c.size


def test_json_round_trip():
    c = make_simplex(3)
    c2 = SphericalCode.from_dict(c.to_dict())
    assert c2.size == c.size
    assert np.allclose(c2.points, c.points)


def test_pair_sums_are_bit_identical_to_whole_matrix_sums():
    # energy and moment add one tile of the Gram matrix at a time; up to
    # _TILE points that tile is the whole matrix and no bit of the sums
    # changes. Above it the additions run in another order, so the sums
    # agree within a multiple of u * sum |values|. A full batch of tiles
    # fills whole blocks of the evaluation.
    assert codes._BATCH * codes._TILE ** 2 % gegenbauer._BLOCK == 0
    rng = np.random.default_rng(46)
    T = codes._TILE
    floats = []
    for N in (1, 2, T - 1, T, T + 1, 3 * T + 5):
        X = rng.normal(size=(N, 5))
        floats.append(SphericalCode(5, X / np.linalg.norm(X, axis=1, keepdims=True)))
    for code in floats + all_builtins():
        gram = code.gram()
        before = gram.copy()
        assert not gram.flags.writeable
        assert np.array_equal(gram, gram.T)
        # 0 asks for bit identity
        rel = 0.0 if code.size <= T else 32 * 2.0 ** -53
        g = GegenbauerExpansion(code.n, rng.normal(size=23)) if code.n >= 3 else None
        if g is not None:
            err = abs(energy(code, g) - energy_whole_matrix(code, g))
            assert err <= rel * np.sum(np.abs(g.eval(gram)))
        # a built-in's moments are exact (test_builtin_moments_are_exact)
        for k in (0, 1, 5) if code.exact_products is None else ():
            err = abs(moment(code, k) - moment_whole_matrix(code, k))
            assert err <= rel * np.sum(np.abs(gegenbauer.gegenbauer_eval(code.n, k, gram)))
        assert np.array_equal(gram, before)


def _sum_over_gram_tiles(code, fn) -> float:
    """fn summed over the _TILE-square tiles of code.gram() on and above
    the diagonal, a tile above it counted twice, the tile sums added by
    math.fsum."""
    gram, T = code.gram(), codes._TILE
    return math.fsum(
        (1.0 if i == j else 2.0) * float(np.sum(fn(gram[i:i + T, j:j + T])))
        for i in range(0, code.size, T) for j in range(i, code.size, T)
    )


def test_streamed_pair_sums_match_gram_tiles_bit_for_bit():
    # energy and moment compute their tiles from the points; gram() is
    # built from the same tiles, so the sums over its tiles agree in every
    # bit. At (129, 4) and (300, 3) a whole-matrix points @ points.T
    # differs from the tile products in some entries. 1100 points are 45
    # tiles, handed to the evaluation in several batches.
    assert len(list(codes._tiles(1100))) > 2 * codes._BATCH
    rng = np.random.default_rng(48)
    floats = []
    for N, n in ((129, 4), (300, 3), (389, 5), (1100, 5)):
        X = rng.normal(size=(N, n))
        floats.append(SphericalCode(n, X / np.linalg.norm(X, axis=1, keepdims=True)))
    for code in floats + all_builtins():
        g = GegenbauerExpansion(code.n, rng.normal(size=23))
        # a built-in's moments are exact (test_builtin_moments_are_exact)
        orders = range(7) if code.exact_products is None else ()
        streamed = [energy(code, g)] + [moment(code, k) for k in orders]
        # a built-in's float table is made on construction, a float code's
        # Gram matrix only on demand
        assert (code._gram is None) == (code.exact_products is None)
        gram = code.gram()
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diagonal(gram) == 1.0)
        via_gram = [_sum_over_gram_tiles(code, g.eval) - float(np.sum(g.eval(np.diagonal(gram))))]
        via_gram += [_sum_over_gram_tiles(code, lambda t, k=k: gegenbauer.gegenbauer_eval(code.n, k, t))
                     for k in orders]
        assert [v.hex() for v in streamed] == [v.hex() for v in via_gram]


def test_pair_sums_hold_one_tile():
    # energy and moment compute one batch of tiles of products at a time
    # from the points and build no N x N matrix: the whole call stays far
    # below a quarter of an N x N float array
    rng = np.random.default_rng(47)
    N = 3000
    X = rng.normal(size=(N, 5))
    code = SphericalCode(5, X / np.linalg.norm(X, axis=1, keepdims=True))
    g = GegenbauerExpansion(5, rng.normal(size=23))
    tracemalloc.start()
    try:
        energy(code, g)
        moment(code, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8 / 4
    assert code._gram is None


@pytest.mark.parametrize("N", [255, 257])
def test_gram_is_exactly_symmetric_for_any_layout(N):
    rng = np.random.default_rng(N)
    X = rng.normal(size=(N, 14))
    X /= np.linalg.norm(X[:, ::2], axis=1, keepdims=True)
    strided = X[:, ::2]
    assert not strided.flags.c_contiguous
    for pts in (np.ascontiguousarray(strided), np.asfortranarray(strided), strided):
        gram = SphericalCode(7, pts).gram()
        assert np.array_equal(gram, gram.T)


def test_code_copies_its_points():
    X = np.eye(3)
    code = SphericalCode(3, X)
    assert X.flags.writeable
    X[0] = [0.0, 1.0, 0.0]
    assert np.array_equal(code.points, np.eye(3))
    assert np.array_equal(code.gram(), np.eye(3))
