import itertools

import numpy as np
import pytest

from spherecert import threepoint
from spherecert.codes import SphericalCode, builtin_code, make_24cell
from spherecert.errors import CapabilityError, ParameterError
from spherecert.threepoint import (
    TripleCertificate,
    _kernel_tensor,
    _symmetric,
    certificate_valid,
    psd_check,
    triple_sum,
    triple_sum_parts,
)

from oracles import (
    bv_matrix,
    dd_certificate,
    kernel_tensor_fraction,
    poly_per_entry,
    triple_sum_rows,
)

CODES = ["simplex3", "simplex4", "cross3", "cross4", "24cell"]


def geg_unclamped(n, k, t):
    """Local recurrence without the domain clamp; the oracle below feeds it
    arguments beyond [-1, 1] when a triple is not realizable."""
    if k == 0:
        return 1.0
    prev, cur = 1.0, t
    for j in range(2, k + 1):
        prev, cur = cur, ((2 * j + n - 4) * t * cur - (j - 1) * prev) / (j + n - 3)
    return cur


def sk_sqrt_oracle(n, k, d, t, u, v):
    """Kernel matrix from the square-root formula; independent of the
    polynomial expansion used in production."""
    size = d + 1 - k

    def q(a, b, c):
        rad = (1 - b * b) * (1 - c * c)
        s = (a - b * c) / np.sqrt(rad)
        return rad ** (k / 2.0) * geg_unclamped(n - 1, k, s)

    m = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            m[i, j] = (
                u**i * v**j * q(t, u, v) + v**i * u**j * q(t, u, v)
                + t**i * v**j * q(u, t, v) + v**i * t**j * q(u, t, v)
                + t**i * u**j * q(v, t, u) + u**i * t**j * q(v, t, u)
            ) / 6.0
    return m


def random_psd(rng, size):
    a = rng.normal(size=(size, size))
    return a @ a.T


def random_valid_matrix_cert(rng, n, d):
    H = [random_psd(rng, d + 1 - k) for k in range(d + 1)]
    F0 = float(rng.uniform(-1.0, 0.0))  # H0 - F0*E0 stays PSD for F0 <= 0
    cert = TripleCertificate.from_matrices(n, d, H, F0)
    assert certificate_valid(cert).valid
    return cert


def test_s0_base_case():
    m = bv_matrix(4, 0, 0, 0.3, -0.2, 0.7)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_bv_matrix_symmetry():
    rng = np.random.default_rng(20)
    for _ in range(10):
        t, u, v = rng.uniform(-1, 1, 3)
        k = int(rng.integers(0, 4))
        base = bv_matrix(4, k, 3, t, u, v)
        assert np.allclose(base, base.T, atol=1e-13)
        for perm in [(t, v, u), (u, t, v), (u, v, t), (v, t, u), (v, u, t)]:
            assert np.allclose(base, bv_matrix(4, k, 3, *perm), atol=1e-12)


def test_bv_matrix_against_sqrt_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(0, 13))
        k = int(rng.integers(0, d + 1))
        t, u, v = rng.uniform(-0.9, 0.9, 3)
        got = bv_matrix(n, k, d, t, u, v)
        ref = sk_sqrt_oracle(n, k, d, t, u, v)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_psd_triple_sum_property():
    # sum over C^3 of <H_k, S_k> is nonnegative for PSD H_k
    rng = np.random.default_rng(22)
    d = 3
    for name in CODES:
        code = builtin_code(name)
        N = code.size
        for k in range(d + 1):
            H = [np.zeros((d + 1 - j, d + 1 - j)) for j in range(d + 1)]
            H[k] = random_psd(rng, d + 1 - k)
            cert = TripleCertificate.from_matrices(code.n, d, H, 0.0)
            assert triple_sum(code, cert) >= -1e-8 * N**3


def test_triple_eval_permutation_symmetry():
    rng = np.random.default_rng(23)
    certs = [
        random_valid_matrix_cert(rng, 4, 3),
        TripleCertificate.from_terms([(2, 1, 0, 1.5), (1, 0, 0, -0.3)]),
    ]
    for cert in certs:
        for _ in range(25):
            t, u, v = rng.uniform(-1, 1, 3)
            base = cert.eval(t, u, v)
            for perm in [(t, v, u), (u, t, v), (u, v, t), (v, t, u), (v, u, t)]:
                assert cert.eval(*perm) == pytest.approx(base, abs=1e-10)


def test_poly_is_exactly_symmetric():
    # every entry of F's tensor equals its transposes bit for bit, so F is
    # the same function of (t, u, v) in every order
    rng = np.random.default_rng(25)
    certs = []
    for _ in range(12):
        n, d = int(rng.integers(3, 7)), int(rng.integers(0, 9))
        certs.append(TripleCertificate.from_matrices(
            n, d, [random_psd(rng, d + 1 - k) for k in range(d + 1)]))
        deg = int(rng.integers(0, 9))
        certs.append(TripleCertificate.from_terms(
            [(*map(int, rng.integers(0, deg + 1, size=3)), float(rng.normal()))
             for _ in range(20)]))
    for cert in certs:
        c = cert.poly()
        for perm in itertools.permutations(range(3)):
            assert c.transpose(perm).tobytes() == c.tobytes()


@pytest.mark.parametrize("n", range(3, 9))
def test_kernel_tensor_matches_the_fraction_oracle(n):
    # summed in integers over one denominator, every entry keeps the bits
    # of its Fraction sum rounded once
    for k in range(23):
        assert _kernel_tensor(n, k).tobytes() == kernel_tensor_fraction(n, k).tobytes()


@pytest.mark.parametrize("d", [4, 8, 12, 22])
def test_poly_matches_the_per_entry_oracle(d):
    # adding the shifted copies of Q_k per offset of Q_k where that is the
    # shorter loop keeps every entry's order of additions
    for valid in (True, False):
        F = TripleCertificate.from_dict(dd_certificate(d, valid)["F"])
        assert F.poly().tobytes() == poly_per_entry(F).tobytes()


def test_explicit_eval_frozen():
    one = TripleCertificate.from_terms([(0, 0, 0, 1.0)])
    assert one.eval(0.4, -0.2, 0.9) == pytest.approx(1.0, abs=1e-14)
    lin = TripleCertificate.from_terms([(1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 1, 1.0)])
    assert lin.eval(0.1, 0.2, 0.3) == pytest.approx(0.6, abs=1e-14)
    # symmetrization spreads a lone term over its orbit
    lone = TripleCertificate.from_terms([(1, 0, 0, 3.0)])
    assert lone.eval(0.1, 0.2, 0.3) == pytest.approx(0.6, abs=1e-14)


def test_matrix_eval_two_routes():
    # coefficient tensor vs the square-root kernel formula, contracted with H_k
    rng = np.random.default_rng(24)
    for d, points in ((4, 100), (8, 20), (12, 20)):
        cert = random_valid_matrix_cert(rng, 4, d)
        scale = sum(float(np.sum(np.abs(h))) for h in cert.H)
        for _ in range(points):
            t, u, v = rng.uniform(-1, 1, 3)
            via_tensor = cert.eval(t, u, v)
            via_oracle = sum(
                float(np.sum(cert.H[k] * sk_sqrt_oracle(4, k, d, t, u, v)))
                for k in range(d + 1)
            )
            assert via_tensor == pytest.approx(via_oracle, rel=1e-9, abs=1e-11 * scale)


def test_triple_sum_constant():
    one = TripleCertificate.from_terms([(0, 0, 0, 1.0)])
    for name in ("simplex4", "cross3", "24cell"):
        code = builtin_code(name)
        assert triple_sum(code, one) == pytest.approx(code.size**3, rel=1e-12)


def test_triple_sum_single_point():
    code = SphericalCode(4, np.array([[1.0, 0, 0, 0]]))
    cert = TripleCertificate.from_terms([(1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 1, 1.0)])
    assert triple_sum(code, cert) == pytest.approx(cert.eval(1, 1, 1), abs=1e-12)


def test_triple_sum_brute_force_oracle():
    rng = np.random.default_rng(25)
    for name in CODES:
        code = builtin_code(name)
        d = 2 if code.size > 10 else 4
        cert = random_valid_matrix_cert(rng, code.n, d)
        got = triple_sum(code, cert)
        gram = code.gram()
        N = code.size
        brute = 0.0
        for a in range(N):
            for b in range(N):
                for c in range(N):
                    brute += cert.eval(gram[a, b], gram[a, c], gram[b, c])
        assert got == pytest.approx(brute, rel=1e-12)


def _contraction_cases():
    """(code, certificate) pairs: the five built-in codes and a seeded
    40-point float code, each with matrix certificates at d = 0..12, two
    explicit-form certificates and a constant F."""
    rng = np.random.default_rng(34)
    x = rng.normal(size=(40, 5))
    codes = [builtin_code(name) for name in CODES]
    codes.append(SphericalCode(5, x / np.linalg.norm(x, axis=1, keepdims=True)))
    for code in codes:
        for d in range(13):
            yield code, random_valid_matrix_cert(rng, code.n, d)
        for degree in (3, 7):
            terms = [(*(int(e) for e in rng.integers(0, degree + 1, 3)), float(rng.normal()))
                     for _ in range(6)]
            yield code, TripleCertificate.from_terms(terms)
        yield code, TripleCertificate.from_terms([(0, 0, 0, float(rng.normal()))])


def test_triple_sum_contraction_matches_the_row_loop():
    # the blocked contraction adds the terms in another order than one
    # F.eval per row. Each term is at most sum |C| in size, and the random
    # certificates' sums cancel to a millionth of N^3 sum |C|, so the two
    # may differ by a few ulps of that scale; the benchmark's certificates
    # do not cancel, and agree to a relative 1e-12
    for code, cert in _contraction_cases():
        scale = code.size ** 3 * float(np.abs(cert.poly()).sum())
        assert triple_sum(code, cert) == pytest.approx(
            triple_sum_rows(code, cert), rel=1e-12, abs=1e-14 * scale), (code.name, cert.form)
    for d in (0, 4, 8, 12):
        for valid in (True, False):
            cert = TripleCertificate.from_dict(dd_certificate(d, valid)["F"])
            for name in ("simplex4", "cross4", "24cell"):
                code = builtin_code(name)
                assert triple_sum(code, cert) == pytest.approx(
                    triple_sum_rows(code, cert), rel=1e-12), (d, valid, name)


def test_triple_sum_blocks_add_up_to_one_block(monkeypatch):
    # a block bound small enough to cut the first index into blocks of 1, 3
    # and 7 rows, the last one short, gives the sum of one block
    rng = np.random.default_rng(35)
    for name in ("cross4", "24cell"):
        code = builtin_code(name)
        cert = random_valid_matrix_cert(rng, 4, 5)
        whole = triple_sum(code, cert)
        for rows in (1, 3, 7):
            monkeypatch.setattr(threepoint, "_TRIPLE_BLOCK", rows * code.size * 6 + 5)
            assert triple_sum(code, cert) == pytest.approx(whole, rel=1e-12), (name, rows)
        monkeypatch.undo()


def test_triple_sum_decomposition():
    rng = np.random.default_rng(26)
    for name in ("simplex4", "cross4", "24cell"):
        code = builtin_code(name)
        cert = random_valid_matrix_cert(rng, 4, 3)
        parts = triple_sum_parts(code, cert)
        assert parts.diagonal == pytest.approx(code.size * cert.eval(1, 1, 1), rel=1e-9)
        assert parts.total == pytest.approx(
            parts.diagonal + parts.paired + parts.distinct, rel=1e-9
        )


def test_valid_certificate_bound_on_24cell():
    rng = np.random.default_rng(27)
    code = make_24cell()
    for _ in range(5):
        cert = random_valid_matrix_cert(rng, 4, 3)
        assert triple_sum(code, cert) >= cert.F0 * 24**3 - 1e-6


def test_psd_check():
    assert psd_check(np.eye(3)).ok
    res = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not res.ok
    assert res.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert res.witness @ m @ res.witness < -1e-9
    boundary = psd_check(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert boundary.ok and boundary.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("m", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
                               [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["inf-diagonal", "inf-pair", "nan-pair"])
def test_psd_check_refuses_non_finite_matrices(m):
    # before, the first gave ok=False with a NaN min_eigenvalue, the second
    # a NaN witness, and the third was refused as "not symmetric"
    with pytest.raises(ParameterError, match="must be finite"):
        psd_check(np.array(m))


def test_symmetry_test_agrees_with_allclose():
    # the entrywise test |m - m^T| <= atol accepts and refuses the same
    # finite matrices as np.allclose(m, m.T, atol, rtol=0), also at the
    # boundary, where the asymmetry equals atol
    rng = np.random.default_rng(29)
    for size in (1, 2, 5):
        for scale in (0.0, 1e-13, 1e-12, 1e-9, 1e-3):
            a = rng.normal(size=(size, size))
            m = a + a.T + scale * rng.normal(size=(size, size))
            for atol in (1e-12, 1e-9):
                assert _symmetric(m, atol) == np.allclose(m, m.T, atol=atol, rtol=0.0)
    for gap in (1e-12, 1e-9):
        m = np.array([[1.0, 0.5], [0.5 + gap, 1.0]])
        atol = abs(m[0, 1] - m[1, 0])
        for tol in (atol, np.nextafter(atol, 0.0)):
            assert _symmetric(m, tol) == np.allclose(m, m.T, atol=tol, rtol=0.0)


def test_kernel_tensors_are_kept_read_only():
    # a kernel tensor is built once per (n, k) and shared by every
    # certificate, so no caller may write to it
    for n, k in ((3, 0), (4, 5), (6, 8)):
        q = _kernel_tensor(n, k)
        assert _kernel_tensor(n, k) is q
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0, 0, 0] = 1.0
        assert q.tobytes() == _kernel_tensor.__wrapped__(n, k).tobytes()


def test_certificate_valid():
    H = [np.eye(3), np.eye(2), np.eye(1)]
    assert certificate_valid(TripleCertificate.from_matrices(4, 2, H, 0.0)).valid
    rep = certificate_valid(TripleCertificate.from_matrices(4, 2, H, 2.0))
    assert not rep.valid
    assert rep.checks["H0-F0*E0"].min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    e0 = np.zeros((3, 3))
    e0[0, 0] = 1.0
    assert certificate_valid(
        TripleCertificate.from_matrices(4, 2, [e0, np.eye(2), np.eye(1)], 1.0)
    ).valid
    with pytest.raises(CapabilityError):
        certificate_valid(TripleCertificate.from_terms([(0, 0, 0, 1.0)]))


def test_dimension_mismatch():
    cert = TripleCertificate.from_matrices(4, 1, [np.eye(2), np.eye(1)], 0.0)
    with pytest.raises(ParameterError):
        triple_sum(builtin_code("simplex3"), cert)


def test_json_round_trip():
    rng = np.random.default_rng(28)
    cert = random_valid_matrix_cert(rng, 4, 2)
    back = TripleCertificate.from_dict(cert.to_dict())
    assert back.form == "matrix" and back.d == 2 and back.F0 == cert.F0
    t, u, v = 0.1, -0.4, 0.3
    assert back.eval(t, u, v) == pytest.approx(cert.eval(t, u, v), rel=1e-12)

    exp = TripleCertificate.from_terms([(1, 1, 0, 2.0)], F0=0.5)
    back = TripleCertificate.from_dict(exp.to_dict())
    assert back.eval(t, u, v) == pytest.approx(exp.eval(t, u, v), rel=1e-12)
    with pytest.raises(ParameterError):
        TripleCertificate.from_dict({"n": 4})


def test_non_finite_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="finite"):
            TripleCertificate.from_matrices(4, 1, [[[1.0, bad], [bad, 1.0]], [[1.0]]])
        with pytest.raises(ParameterError, match="finite"):
            TripleCertificate.from_matrices(4, 0, [[[1.0]]], F0=bad)
        with pytest.raises(ParameterError, match="finite"):
            TripleCertificate.from_terms([(1, 0, 0, bad)])
