import numpy as np
import pytest

from spherecert.data import load_expansion
from spherecert.errors import CapabilityError, DomainError, ParameterError
from spherecert.gegenbauer import (
    GegenbauerExpansion,
    gegenbauer_eval,
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
