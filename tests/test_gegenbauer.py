import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from spherecert import codes, gegenbauer
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
    monomial_to_gegenbauer_backsub,
    monomial_rows_from_scratch,
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


def _pool_inputs():
    """1, 2, 3 and 7 blocks plus a remainder, with the domain edges and the
    slack beyond them in the first and the last block; a 0-d array and a
    2-d shape of three blocks."""
    rng = np.random.default_rng(17)
    edges = [-1.0, 1.0, -1.0 - _EDGE_SLACK, 1.0 + _EDGE_SLACK,
             -1.0 - _EDGE_SLACK / 2, 1.0 + _EDGE_SLACK / 2]
    for size in (_BLOCK + 3, 2 * _BLOCK + 1, 3 * _BLOCK + 5, 7 * _BLOCK + 2):
        ts = rng.uniform(-1, 1, size)
        ts[:len(edges)] = edges
        ts[-len(edges):] = edges
        yield ts
    yield np.array(0.3)
    yield rng.uniform(-1, 1, (3, _BLOCK))


def test_values_do_not_depend_on_the_worker_count(monkeypatch):
    # blocks run on the calling thread and a pool; each value has the
    # same bits for one worker, for two, and for more workers than cores
    # with thread switches forced often
    rng = np.random.default_rng(18)
    e = GegenbauerExpansion(4, rng.normal(size=61) * 10.0 ** rng.integers(-3, 4, size=61))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for ts in _pool_inputs():
            results = []
            for workers in (1, 2, 5):
                monkeypatch.setattr(gegenbauer, "_WORKERS", workers)
                results.append([np.asarray(e.eval(ts)), np.asarray(gegenbauer_eval(6, 40, ts))])
            for one, *more in zip(*results):
                assert one.shape == ts.shape
                assert all(_same_bits(one, other) for other in more)
    finally:
        sys.setswitchinterval(interval)


def test_pool_domain_error_names_first_bad_value(monkeypatch):
    # t is checked whole before any block is dispatched, so the first
    # offender in t's order is named whichever threads would run the
    # blocks that hold the offenders
    monkeypatch.setattr(gegenbauer, "_WORKERS", 2)
    e = GegenbauerExpansion(4, [0.5, -1.0, 2.0])
    big = 1.0 + 2 * _EDGE_SLACK
    for (i, first), (j, second) in (((_BLOCK + 7, big), (2 * _BLOCK + 1, np.nan)),
                                    ((_BLOCK + 7, np.nan), (2 * _BLOCK + 1, -3.0)),
                                    ((5, -1.5), (_BLOCK + 2, np.nan)),
                                    ((2 * _BLOCK - 1, np.nan), (2 * _BLOCK, big))):
        ts = np.zeros(3 * _BLOCK + 5)
        ts[i], ts[j] = first, second
        for f in (e.eval, lambda t: gegenbauer_eval(6, 40, t)):
            with pytest.raises(DomainError) as info:
                f(ts)
            assert str(info.value) == f"argument outside [-1, 1]: {np.float64(first)}"


def test_public_names_run_on_the_calling_thread_only(monkeypatch):
    # the pool runs private recurrences only: a tracer that wraps the
    # public evaluations sees every call on the calling thread
    monkeypatch.setattr(gegenbauer, "_WORKERS", 2)
    caller, public, pool_ran = threading.get_ident(), set(), threading.Event()

    def recorded(f):
        def wrapper(*args, **kwargs):
            public.add(threading.get_ident())
            return f(*args, **kwargs)
        return wrapper

    def block(f):
        def wrapper(*args):
            if threading.get_ident() != caller:
                pool_ran.set()
            else:
                # the caller holds its first block until a pool thread has
                # taken one, so a pool that never runs fails here
                assert pool_ran.wait(timeout=60)
            return f(*args)
        return wrapper

    monkeypatch.setattr(GegenbauerExpansion, "eval", recorded(GegenbauerExpansion.eval))
    for mod in (gegenbauer, codes):
        monkeypatch.setattr(mod, "gegenbauer_eval", recorded(gegenbauer_eval))
    for name in ("_clenshaw", "_forward_recurrence"):
        monkeypatch.setattr(gegenbauer, name, block(getattr(gegenbauer, name)))
    rng = np.random.default_rng(19)
    g = GegenbauerExpansion(5, rng.normal(size=23))
    g.eval(rng.uniform(-1, 1, 3 * _BLOCK))
    X = rng.normal(size=(600, 5))
    code = codes.SphericalCode(5, X / np.linalg.norm(X, axis=1, keepdims=True))
    codes.energy(code, g)
    codes.moment(code, 5)
    assert public == {caller}


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


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
def test_monomial_rows_match_a_from_scratch_recurrence(monkeypatch, order):
    # the per-dimension table grows on demand; whatever order the degrees
    # are asked for in, every row is the one a fresh recurrence gives
    monkeypatch.setattr(gegenbauer, "_ROWS", {})
    degrees = list(range(61))
    if order == "descending":
        degrees.reverse()
    elif order == "random":
        np.random.default_rng(51).shuffle(degrees)
    for n in range(2, 9):
        expected = monomial_rows_from_scratch(n, 60)
        for k in degrees:
            assert monomial_coeffs(n, k) == expected[k], (n, k)
            rows = gegenbauer._monomial_rows(n, k)
            assert [list(r) for r in rows[:k + 1]] == expected[:k + 1], (n, k)
        assert len(gegenbauer._ROWS[n]) == 61


def test_monomial_rows_grow_by_extending_the_table(monkeypatch):
    # a higher degree appends rows to the table the process keeps: the
    # rows already built are the same objects, not rebuilt
    monkeypatch.setattr(gegenbauer, "_ROWS", {})
    low = gegenbauer._monomial_rows(5, 10)
    assert len(low) == 11
    assert gegenbauer._monomial_rows(5, 3) is low
    high = gegenbauer._monomial_rows(5, 20)
    assert len(high) == 21 and all(a is b for a, b in zip(low, high))
    assert gegenbauer._ROWS == {5: high}


def test_monomial_rows_grown_from_several_threads_at_once(monkeypatch):
    # threads grow one dimension's table to different degrees at the same
    # time, more threads than cores; each reads correct rows, and the
    # table left behind is the longest one grown, never a partial one
    expected = monomial_rows_from_scratch(5, 80)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(gegenbauer, "_ROWS", {})
            degrees = (40, 80, 20, 60)
            start = threading.Barrier(len(degrees))
            got = {}

            def grow(degree):
                start.wait(timeout=60)
                got[degree] = gegenbauer._monomial_rows(5, degree)

            threads = [threading.Thread(target=grow, args=(d,)) for d in degrees]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert sorted(got) == sorted(degrees)
            for degree, rows in got.items():
                assert [list(r) for r in rows[:degree + 1]] == expected[:degree + 1]
            assert [list(r) for r in gegenbauer._ROWS[5]] == expected
    finally:
        sys.setswitchinterval(interval)


def _conversion_inputs(degree: int) -> list[float]:
    """Seeded floats of degree + 1 coefficients, from 5e-324 to 2^1000 in
    size, with 5e-324, 0.0 and -2^1000 first."""
    rng = np.random.default_rng([52, degree])
    x = rng.uniform(-1.0, 1.0, degree + 1) * np.exp2(rng.integers(-1074, 1001, degree + 1))
    return ([5e-324, 0.0, -2.0 ** 1000] + x.tolist()[3:])[:degree + 1]


def test_monomial_to_gegenbauer_matches_back_substitution(monkeypatch):
    # the integer dot products over the per-dimension table of powers give
    # the exact rationals of back-substitution, whatever order the degrees
    # are asked for in, and so whatever order the table grew in
    inputs = {degree: _conversion_inputs(degree) for degree in range(61)}
    expected = {(n, degree): monomial_to_gegenbauer_backsub(n, x)
                for n in range(2, 9) for degree, x in inputs.items()}
    for order in ("ascending", "descending", "random"):
        monkeypatch.setattr(gegenbauer, "_POWERS", {})
        degrees = list(range(61))
        if order == "descending":
            degrees.reverse()
        elif order == "random":
            np.random.default_rng(53).shuffle(degrees)
        for n in range(2, 9):
            for degree in degrees:
                got = monomial_to_gegenbauer(n, inputs[degree])
                assert got == expected[n, degree], (order, n, degree)
                assert all(type(c) is Fraction for c in got)
            assert len(gegenbauer._POWERS[n][1]) == 61
    assert monomial_to_gegenbauer(4, []) == []


def test_power_table_grown_from_several_threads_at_once(monkeypatch):
    # threads convert polynomials of different degrees in one dimension at
    # the same time, more threads than cores, each growing the table of
    # powers; each gets exact coefficients, and the table left behind is
    # the longest one grown, never a partial one
    degrees = (40, 80, 20, 60)
    inputs = {degree: _conversion_inputs(degree) for degree in degrees}
    expected = {degree: monomial_to_gegenbauer_backsub(5, x) for degree, x in inputs.items()}
    monkeypatch.setattr(gegenbauer, "_POWERS", {})
    table = gegenbauer._power_rows(5, 80)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(gegenbauer, "_POWERS", {})
            start = threading.Barrier(len(degrees))
            got = {}

            def convert(degree):
                start.wait(timeout=60)
                got[degree] = monomial_to_gegenbauer(5, inputs[degree])

            threads = [threading.Thread(target=convert, args=(d,)) for d in degrees]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert got == expected
            assert gegenbauer._POWERS == {5: table}
    finally:
        sys.setswitchinterval(interval)
