from fractions import Fraction

import numpy as np
import pytest

from spherecert.data import load_expansion
from spherecert.errors import CapabilityError, DomainError, ParameterError
from spherecert.gegenbauer import (
    _BLOCK,
    _EDGE_SLACK,
    _SMALL_INPUT,
    GegenbauerExpansion,
    gegenbauer_eval,
    monomial_coeffs,
    monomial_to_gegenbauer,
)

from oracles import (
    clenshaw_whole_array,
    forward_whole_array,
    monomial_oracle,
    orthogonality_oracle,
)


def test_value_at_one_is_one():
    for n in range(3, 9):
        for k in range(31):
            assert abs(gegenbauer_eval(n, k, 1.0) - 1.0) < 1e-12


def test_degree_zero_and_one():
    assert gegenbauer_eval(4, 0, 0.3) == 1.0
    assert gegenbauer_eval(4, 1, -0.25) == -0.25
    assert gegenbauer_eval(4, 5, 1.0) == 1.0


def test_degree_two_frozen():
    # Gram-Schmidt against the weight gives (4t^2 - 1)/3 in dimension 4
    assert abs(gegenbauer_eval(4, 2, 0.5)) < 1e-15
    ts = np.linspace(-1, 1, 21)
    assert np.allclose(gegenbauer_eval(4, 2, ts), (4 * ts**2 - 1) / 3, atol=1e-14)


def test_parity():
    rng = np.random.default_rng(10)
    ts = rng.uniform(-1, 1, 25)
    for n in (3, 4, 5, 8):
        for k in range(31):
            lhs = gegenbauer_eval(n, k, -ts)
            rhs = (-1) ** k * gegenbauer_eval(n, k, ts)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_boundedness():
    ts = np.linspace(-1, 1, 10_001)
    for n in (3, 4, 6):
        for k in (1, 2, 5, 13, 22, 30):
            assert np.max(np.abs(gegenbauer_eval(n, k, ts))) <= 1 + 1e-12


def test_orthogonality():
    for n in (3, 4, 5):
        for j in range(13):
            for k in range(j + 1, 13):
                assert abs(orthogonality_oracle(n, j, k)) < 1e-10


def test_weight_mass_dimension_four():
    # integral of sqrt(1 - t^2) over [-1, 1]
    assert abs(orthogonality_oracle(4, 0, 0) - np.pi / 2) < 1e-12


def test_recurrence_matches_gram_schmidt_oracle():
    grid = np.linspace(-1, 1, 100)
    for n in (3, 4, 5, 6):
        for k in range(13):
            mono = monomial_oracle(n, k)
            ref = sum(c * grid**i for i, c in enumerate(mono))
            assert np.max(np.abs(ref - gegenbauer_eval(n, k, grid))) < 1e-10


def test_monomial_oracle_frozen():
    assert monomial_oracle(4, 1) == [0.0, 1.0]
    assert monomial_oracle(4, 2) == pytest.approx([-1 / 3, 0.0, 4 / 3], abs=1e-15)
    assert monomial_oracle(3, 2) == pytest.approx([-1 / 2, 0.0, 3 / 2], abs=1e-15)


def test_monomial_oracle_degree_cap():
    with pytest.raises(CapabilityError):
        monomial_oracle(4, 13)


def test_expansion_matches_naive_sum():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(0, 23))
        c = rng.normal(size=d + 1)
        e = GegenbauerExpansion(n, c)
        ts = rng.uniform(-1, 1, 40)
        naive = sum(c[k] * gegenbauer_eval(n, k, ts) for k in range(d + 1))
        assert np.max(np.abs(naive - e.eval(ts))) < 1e-10


def test_small_and_array_paths_agree_bitwise():
    # eval runs Clenshaw in Python floats up to _SMALL_INPUT points and as
    # numpy array operations above that; both must give the same bits
    rng = np.random.default_rng(14)
    edges = [-1.0, 1.0, -1.0 - _EDGE_SLACK, 1.0 + _EDGE_SLACK,
             -1.0 - _EDGE_SLACK / 2, 1.0 + _EDGE_SLACK / 2, 0.0, -0.0]
    for _ in range(60):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(0, 61))
        c = rng.normal(size=d + 1) * 10.0 ** rng.integers(-3, 4, size=d + 1)
        e = GegenbauerExpansion(n, c)
        ts = np.concatenate([edges, rng.uniform(-1, 1, 4 * _SMALL_INPUT)])
        whole = e.eval(ts)
        one_by_one = np.array([e.eval(float(t)) for t in ts])
        chunks = np.concatenate([e.eval(ts[i:i + 4]) for i in range(0, ts.size, 4)])
        assert np.array_equal(one_by_one, whole)
        assert np.array_equal(chunks, whole)
        # on either side of the switch
        assert np.array_equal(e.eval(ts[:_SMALL_INPUT]), whole[:_SMALL_INPUT])
        assert np.array_equal(e.eval(ts[:_SMALL_INPUT + 1]), whole[:_SMALL_INPUT + 1])


def test_eval_return_types():
    e = GegenbauerExpansion(4, [0.5, -1.0, 2.0])
    expected = e.eval(np.full(2 * _SMALL_INPUT, 0.3))[0]
    for t in (0.3, np.float64(0.3)):
        out = e.eval(t)
        assert type(out) is float and out == expected
    zero_d = e.eval(np.array(0.3))  # a numpy scalar, as numpy arithmetic gives
    assert type(zero_d) is np.float64 and zero_d == expected
    empty = e.eval(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == float
    for shape in ((2, 3), (2, _SMALL_INPUT)):
        out = e.eval(np.full(shape, 0.3))
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert np.all(out == expected)


def test_domain_error_on_both_paths():
    e = GegenbauerExpansion(5, [0.5, -1.0, 2.0])
    messages = set()
    for size in (1, 4, _SMALL_INPUT, _SMALL_INPUT + 1, 10 * _SMALL_INPUT):
        for bad in (1.0 + 2 * _EDGE_SLACK, -1.0 - 2 * _EDGE_SLACK, np.nan):
            ts = np.zeros(size)
            ts[-1] = bad
            with pytest.raises(DomainError) as info:
                e.eval(ts)
            messages.add(str(info.value))
    assert len(messages) == 3  # the same message for the same offending value
    for bad in (1.0 + 2 * _EDGE_SLACK, np.nan):
        with pytest.raises(DomainError):
            e.eval(bad)


def _same_bits(a, b):
    # array_equal would take -0.0 for 0.0
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _blocked_inputs():
    """Inputs on either side of the small-input switch and of block
    boundaries, with the domain edges, ±0 and the slack beyond ±1 mixed in
    at random places; a 2-d shape, its transpose and a read-only array."""
    rng = np.random.default_rng(15)
    edges = [-1.0, 1.0, -1.0 - _EDGE_SLACK, 1.0 + _EDGE_SLACK, 0.0, -0.0]
    for size in (_SMALL_INPUT + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
        ts = rng.uniform(-1, 1, size)
        ts[rng.choice(size, len(edges), replace=False)] = edges
        yield ts
    square = rng.uniform(-1, 1, (37, 500))
    square[0, :len(edges)] = edges
    yield square
    yield square.T
    frozen = rng.uniform(-1, 1, 2 * _BLOCK + 3)  # as SphericalCode.gram() returns
    frozen.setflags(write=False)
    yield frozen


def test_blocked_paths_match_whole_array_loops():
    # array inputs run in blocks of _BLOCK points in place; the values must
    # be the bits of the whole-array loops, and the input must stay as it was
    rng = np.random.default_rng(16)
    expansions = [GegenbauerExpansion(5, [0.7])]
    for n in (4, 7):
        c = rng.normal(size=61) * 10.0 ** rng.integers(-3, 4, size=61)
        expansions.append(GegenbauerExpansion(n, c))
    for ts in _blocked_inputs():
        before = ts.tobytes()
        for e in expansions:
            assert _same_bits(e.eval(ts), clenshaw_whole_array(e.n, e.coeffs, ts))
        for n, k in ((4, 0), (4, 1), (6, 40), (3, 40)):
            assert _same_bits(gegenbauer_eval(n, k, ts), forward_whole_array(n, k, ts))
        assert ts.tobytes() == before


def test_blocked_domain_error_names_first_bad_value():
    e = GegenbauerExpansion(4, [0.5, -1.0, 2.0])
    for first, second in ((1.0 + 2 * _EDGE_SLACK, -3.0), (np.nan, 2.0), (-1.5, np.nan)):
        ts = np.zeros(3 * _BLOCK + 5)
        ts[2 * _BLOCK + 7] = first  # in the third block only
        ts[2 * _BLOCK + 9] = second
        with pytest.raises(DomainError) as oracle:
            clenshaw_whole_array(4, e.coeffs, ts)
        assert str(oracle.value) == f"argument outside [-1, 1]: {np.float64(first)}"
        for f in (e.eval, lambda t: gegenbauer_eval(6, 40, t)):
            with pytest.raises(DomainError) as info:
                f(ts)
            assert str(info.value) == str(oracle.value)


def test_expansion_trivia():
    zero = GegenbauerExpansion(4, [0.0, 0.0, 0.0])
    assert zero.eval(0.7) == 0.0
    e = GegenbauerExpansion(5, [1.0, -2.0, 0.25])
    assert e.eval(1.0) == pytest.approx(e.at_one(), abs=1e-12)
    assert e.degree == 2


def test_bundled_expansions():
    g1 = load_expansion("g1")
    g2 = load_expansion("g2")
    assert g1.n == 4 and g1.degree == 22
    assert g1.eval(-1.0) == pytest.approx(0.02, abs=5e-3)
    assert g2.eval(-1.0) == pytest.approx(0.02, abs=5e-3)
    assert g2.at_one() == pytest.approx(57.5714, abs=1e-3)


def test_derivative():
    rng = np.random.default_rng(12)
    e = GegenbauerExpansion(4, rng.normal(size=14))
    de = e.derivative()
    assert de.n == 6
    ts = rng.uniform(-0.9, 0.9, 30)
    fd = (e.eval(ts + 1e-6) - e.eval(ts - 1e-6)) / 2e-6
    assert np.max(np.abs(fd - de.eval(ts))) < 1e-4
    grid = np.linspace(-1, 1, 4001)
    assert e.derivative_bound() >= np.max(np.abs(de.eval(grid)))


def test_json_round_trip():
    e = GegenbauerExpansion(4, [0.5, -1.0, 2.0], provenance="test")
    e2 = GegenbauerExpansion.from_dict(e.to_dict())
    assert e2.n == e.n and np.array_equal(e2.coeffs, e.coeffs)
    with pytest.raises(ParameterError):
        GegenbauerExpansion.from_dict({"coeffs": [1.0]})


def test_parameter_errors():
    with pytest.raises(ParameterError):
        gegenbauer_eval(2, 1, 0.0)
    with pytest.raises(ParameterError):
        gegenbauer_eval(4, -1, 0.0)
    with pytest.raises(DomainError):
        gegenbauer_eval(4, 3, 1.5)
    with pytest.raises(DomainError):
        GegenbauerExpansion(4, [1.0]).eval(-1.01)
    with pytest.raises(ParameterError):
        GegenbauerExpansion(2, [1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            GegenbauerExpansion(4, [1.0, bad])


def test_monomial_to_gegenbauer_round_trips_exactly():
    # the basis change inverts expansion by monomial_coeffs, in exact
    # arithmetic, both on the basis itself and on random polynomials
    rng = np.random.default_rng(50)
    for n in range(3, 9):
        for k in range(31):
            assert monomial_to_gegenbauer(n, monomial_coeffs(n, k)) == [0] * k + [1]
        for degree in (0, 1, 7, 30):
            poly = [Fraction(int(a), int(b)) for a, b in
                    zip(rng.integers(-99, 100, degree + 1), rng.integers(1, 100, degree + 1))]
            back = [Fraction(0)] * (degree + 1)
            for k, c in enumerate(monomial_to_gegenbauer(n, poly)):
                for i, a in enumerate(monomial_coeffs(n, k)):
                    back[i] += c * a
            assert back == poly
    # floats are taken exactly
    assert monomial_to_gegenbauer(4, [0.1]) == [Fraction(0.1)]
