import inspect
import json
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from spherecert import capopt
from spherecert.bounds import DDCertificate, dd_bound
from spherecert.capopt import CapProblem, _constraint_violation, cap_max, kissing_check
from spherecert.data import load_expansion
from spherecert.errors import DomainError, ParameterError, PreconditionError
from spherecert.gegenbauer import GegenbauerExpansion, monomial_to_gegenbauer

from oracles import (
    _cap_matrix,
    _certified_not_psd,
    _certified_pd,
    _project_cap,
    cap_max_configurations,
    cell_max_exact,
    slsqp_scipy_minimize,
)

T0 = -np.sqrt(2) / 2


# g1 cap maxima for m = 1..4 at 60 starts, seed 0; the SLSQP polish moves
# their last bits with the BLAS thread count, which 1e-10 absorbs
G1_CAP_VALUES = [0.02030000000000054, 0.026627791659585787,
                 0.024882080135972262, 0.02308843040063019]


@pytest.fixture(scope="module")
def g1():
    return load_expansion("g1")


@pytest.fixture(scope="module")
def g1_caps(g1):
    return [cap_max(CapProblem(4, g1, T0, m, 4), starts=60, seed=0) for m in range(1, 5)]


def one_point_oracle(g, t0):
    """Grid-plus-refinement maximum of g over [-1, t0]; the m = 1 cap
    problem collapses to this one-dimensional search."""
    ts = np.linspace(-1.0, t0, 200_001)
    vals = g.eval(ts)
    i = int(np.argmax(vals))
    lo, hi = max(-1.0, ts[i] - 1e-5), min(t0, ts[i] + 1e-5)
    fine = np.linspace(lo, hi, 20_001)
    return float(np.max(g.eval(fine)))


def feasibility_violation(cfg, t0):
    worst = float(np.max(np.abs(np.sum(cfg * cfg, axis=1) - 1.0)))
    worst = max(worst, float(np.max(cfg[:, 0] - t0)))
    if len(cfg) > 1:
        gram = cfg @ cfg.T
        iu = np.triu_indices(len(cfg), 1)
        worst = max(worst, float(np.max(gram[iu] - 0.5)))
    return worst


def test_empty_configuration(g1):
    res = cap_max(CapProblem(4, g1, T0, 0, 4), starts=1, seed=0)
    assert res.value == 0.0
    assert res.configuration.shape == (0, 4)


def test_single_point_matches_1d_oracle(g1):
    res = cap_max(CapProblem(4, g1, T0, 1, 4), starts=40, seed=1)
    assert res.value == pytest.approx(one_point_oracle(g1, T0), abs=1e-6)


def test_configurations_feasible(g1):
    for m in (2, 3, 4):
        res = cap_max(CapProblem(4, g1, T0, m, 4), starts=60, seed=2)
        assert res.configuration.shape == (m, 4)
        assert feasibility_violation(res.configuration, T0) <= 1e-9


def test_pinned_g1_cap_values(g1_caps):
    for res, expected in zip(g1_caps, G1_CAP_VALUES):
        assert res.value == pytest.approx(expected, abs=1e-10)


def test_cap_max_reaches_the_configuration_space_oracle():
    # the heights decide feasibility, so searching them finds what SLSQP
    # finds over all m * n coordinates under the m(m+3)/2 constraints, and
    # the configuration built from them is feasible in R^n
    for name, t0 in (("g1", T0), ("g2", -0.73)):
        g = load_expansion(name)
        for m in (1, 2, 3, 4):
            best, cfg = cap_max_configurations(g, t0, m, 4, starts=10, seed=0)
            assert feasibility_violation(cfg, t0) <= 1e-9
            for seed in (0, 1, 2):
                res = cap_max(CapProblem(4, g, t0, m, 4), starts=40, seed=seed)
                assert res.value >= best - 1e-10
                assert feasibility_violation(res.configuration, t0) <= 1e-9


def test_polish_evaluates_each_iterate_once(g1, monkeypatch):
    # values writes the q row of an iterate and runs once per objective
    # evaluation nfev counts; neither callback runs twice in a row at the
    # same x, not even when SLSQP comes back to its iterate after a failed
    # line search and asks for rows again
    seen = {"values": [], "normals": []}
    runs = []
    minimize = capopt.minimize

    def counted(name, fun):
        def call(x):
            seen[name].append(x.tobytes())
            return fun(x)
        return call

    def minimize_counted(values, normals, *args, **kwargs):
        before = len(seen["values"])
        res = minimize(counted("values", values), counted("normals", normals), *args, **kwargs)
        runs.append((len(seen["values"]) - before, res.nfev))
        return res

    monkeypatch.setattr(capopt, "minimize", minimize_counted)
    for m in (2, 4):
        cap_max(CapProblem(4, g1, T0, m, 4), starts=3, seed=0)
    assert len(runs) == 6
    assert all(calls == nfev for calls, nfev in runs)
    for keys in seen.values():
        assert len(keys) > 6
        assert all(a != b for a, b in zip(keys, keys[1:]))


def test_minimize_matches_scipy_minimize(monkeypatch):
    # the driver hands scipy's compiled SLSQP core the numbers scipy's own
    # minimize hands it, bounds included, so each run ends on the same bits
    # after the same iterations and objective evaluations; a change in the
    # core's contract shows here. The polishes of cap_max start near an
    # optimum, the random heights anywhere in the box, for m >= 2 mostly
    # outside q <= 1
    runs = []
    minimize = capopt.minimize

    def recording(values, normals, x0, *args, **kwargs):
        start = np.array(x0)
        res = minimize(values, normals, x0, *args, **kwargs)
        runs.append((start, res))
        return res

    monkeypatch.setattr(capopt, "minimize", recording)
    rng = np.random.default_rng(3)
    statuses = set()
    for name, t0 in (("g1", T0), ("g2", -0.73)):
        g = load_expansion(name)
        for m in (1, 2, 3, 4):
            runs.clear()
            cap_max(CapProblem(4, g, t0, m, 4), starts=100, seed=3)
            for t in rng.uniform(-1.0, t0, size=(10, m)):
                capopt._polish(t, g, t0)
            assert len(runs) == 20
            for start, res in runs:
                ref = slsqp_scipy_minimize(start, g, t0)
                assert res.x.tobytes() == ref.x.tobytes()
                assert (res.success, res.status, res.nit, res.nfev) == (
                    ref.success, ref.status, ref.nit, ref.nfev)
                statuses.add(res.status)
    # status 8: a positive directional derivative in the line search
    assert statuses == {0, 8}


def test_polish_rejects_nan_height(g1):
    with pytest.raises(DomainError, match=r"argument outside \[-1, 1\]: nan"):
        capopt._polish(np.array([T0, np.nan]), g1, T0)


def test_configuration_from_heights_is_feasible():
    # heights with q(t) <= 1 hold a configuration, built without LAPACK:
    # for m = n the directions' Gram matrix is C shifted down to rank n - 1
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 4):
        t = rng.uniform(-1.0, T0, size=(20_000, m))
        t = t[capopt._q(t) <= 1.0][:50]
        assert len(t) == 50
        for heights in t:
            cfg = capopt._configuration(heights, 4)
            assert np.array_equal(cfg[:, 0], heights)
            assert feasibility_violation(cfg, T0) <= 1e-12


def test_cap_at_the_pole_has_no_direction():
    # g = -t peaks at t = -1, the point -e1, whose direction part s = 0:
    # its configuration is built without dividing by s
    g = GegenbauerExpansion(4, [0.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cap_max(CapProblem(4, g, T0, 1, 4), starts=5)
    assert res.value == 1.0
    assert np.array_equal(res.configuration, [[-1.0, 0.0, 0.0, 0.0]])


def test_cap_max_refuses_where_heights_do_not_decide(g1):
    # above -1/sqrt(2), or with more than n points, q(t) <= 1 no longer
    # decides whether heights hold a configuration
    just_above = math.nextafter(-0.7071067811865476, 0.0)
    for t0, m, mu in ((just_above, 2, 4), (-0.6058, 3, 6), (-0.51, 1, 4), (T0, 5, 6)):
        with pytest.raises(ParameterError, match="heights do not decide"):
            cap_max(CapProblem(4, g1, t0, m, mu), starts=2)


def test_batched_projection_and_violation_match_per_configuration():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 4):
        Y = rng.normal(size=(7, m, 4))
        Y[0, 0] = [1.0, 0.0, 0.0, 0.0]  # +e1: outside the cap, no meridian
        P = _project_cap(Y, T0)
        assert np.array_equal(P, np.stack([_project_cap(y, T0) for y in Y]))
        assert np.allclose(P[0, 0], [T0, np.sqrt(1 - T0 * T0), 0.0, 0.0], rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.norm(P, axis=-1), 1.0, rtol=0, atol=1e-15)
        assert np.all(P[..., 0] <= T0)
        for Z in (Y, P):
            batched = _constraint_violation(Z, T0)
            assert batched.shape == (7,)
            assert np.array_equal(batched, [_constraint_violation(z, T0) for z in Z])
            oracle = [max(feasibility_violation(z, T0), 0.0) for z in Z]
            assert np.allclose(batched, oracle, rtol=1e-14, atol=1e-15)


def test_q_row_normal_matches_central_differences(g1, monkeypatch):
    # the row normals writes into C is the gradient of the 1 - q(t) that
    # values writes into d, and the gradient it returns is the objective's
    calls = []

    def capture(values, normals, x0, C, d, *args, **kwargs):
        calls.append((values, normals, C, d))
        return SimpleNamespace(x=x0)

    monkeypatch.setattr(capopt, "minimize", capture)
    rng = np.random.default_rng(6)
    h = 1e-6
    for m in (1, 2, 3, 4):
        capopt._polish(np.full(m, T0), g1, T0)
        values, normals, C, d = calls[-1]
        for t in rng.uniform(-0.99, T0, size=(5, m)):
            grad, row = normals(t), C[0].copy()
            for j in range(m):
                dx = np.eye(m)[j] * h
                up, q_up = values(t + dx), d[0]
                down, q_down = values(t - dx), d[0]
                assert row[j] == pytest.approx((q_up - q_down) / (2 * h), rel=0, abs=1e-8)
                assert grad[j] == pytest.approx((up - down) / (2 * h), rel=0, abs=1e-7)


def test_determinism(g1):
    a = cap_max(CapProblem(4, g1, T0, 2, 4), starts=50, seed=9)
    b = cap_max(CapProblem(4, g1, T0, 2, 4), starts=50, seed=9)
    assert a.value == b.value
    assert np.array_equal(a.configuration, b.configuration)


def test_extension_property():
    # g peaking inside the cap leaves room: if the single-point optimum
    # admits a feasible companion with g >= 0, two points can only help
    g = GegenbauerExpansion(4, [-0.79, -1.6, -0.75])  # 0.1 - (t + 0.8)^2
    assert g.eval(-0.8) == pytest.approx(0.1, abs=1e-12)
    r1 = cap_max(CapProblem(4, g, T0, 1, 4), starts=40, seed=3)
    r2 = cap_max(CapProblem(4, g, T0, 2, 4), starts=40, seed=3)
    y1 = r1.configuration[0]
    found = False
    rng = np.random.default_rng(4)
    for _ in range(2000):
        s = rng.uniform(-1.0, T0)
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        cand = np.concatenate([[s], np.sqrt(1 - s * s) * w])
        if cand @ y1 <= 0.5 and g.eval(s) >= 0.0:
            found = True
            break
    assert found
    assert r2.value >= r1.value - 1e-9


def test_problem_validation(g1):
    CapProblem(4, g1, -0.6058, 3, 6)  # reference capacity inputs accepted
    CapProblem(4, g1, T0, 4, 4)
    with pytest.raises(ParameterError):
        CapProblem(4, g1, -0.4, 1, 4)  # t0 above -1/2
    with pytest.raises(ParameterError):
        CapProblem(4, g1, T0, 5, 4)  # m beyond capacity
    with pytest.raises(ParameterError):
        CapProblem(3, g1, T0, 1, 4)  # dimension mismatch
    with pytest.raises(ParameterError):
        cap_max(CapProblem(4, g1, T0, 1, 4), starts=0)


def test_kissing_check_refuses_positive_g():
    with pytest.raises(PreconditionError):
        kissing_check(GegenbauerExpansion(4, [1.0]), 20.0, T0, 25)


def test_kissing_check_m_at_least_n_inconclusive(g1):
    # M > N puts B(N) below the empty cap's value 0: the sweep over m = 0..n
    # is refuted at m = 0
    rep = kissing_check(g1, 30.0, T0, 25)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.bound <= 0.0 <= rep.best_value + 1e-12
    assert rep.sweeps[0]["ended"] == "refuted"


def test_kissing_check_verdicts_smoke(g1):
    # every sweep decides N = 25; best_value is the largest certified bound,
    # which a decision sweep leaves anywhere below its threshold
    rep = kissing_check(g1, 22.5689, T0, 25)
    assert rep.verdict == "CONTRADICTION"
    assert [s["ended"] for s in rep.sweeps] == ["decided"] * 5
    assert rep.best_value == max(rep.cap_values) < rep.bound - rep.margin
    assert rep.cap_values[rep.best_m] == rep.best_value
    assert rep.margin > 0
    assert not hasattr(rep, "heuristic") and "heuristic" not in json.dumps(rep.to_dict())
    rep24 = kissing_check(g1, 22.5689, T0, 24)
    assert rep24.verdict == "INCONCLUSIVE"
    assert [s["ended"] for s in rep24.sweeps] == ["decided"] + ["refuted"] * 4


def test_rankin_capacity_decided_exactly():
    t0 = -0.7071067811865476  # the double nearest -1/sqrt(2), just below it
    assert capopt._rankin_capacity_applies(t0)
    assert not capopt._rankin_capacity_applies(math.nextafter(t0, 0.0))
    assert capopt._rankin_capacity_applies(-0.99)
    assert not capopt._rankin_capacity_applies(-0.6)


def test_kissing_check_needs_mu_at_least_n(g1):
    # the verdict needs every cap up to the capacity: the check takes no mu
    # and sweeps m = 0..n itself, as t0 <= -1/sqrt(2) caps the open cap at n
    assert list(inspect.signature(kissing_check).parameters) == ["g", "M", "t0", "N", "margin"]
    rep = kissing_check(g1, 22.5689, T0, 25)
    assert rep.mu == g1.n == 4
    assert len(rep.cap_values) == len(rep.charged_values) == len(rep.sweeps) == 5
    assert all(s["boxes"] > 0 for s in rep.sweeps[1:])


def test_kissing_verdict_charges_epsilon(g1):
    rep = kissing_check(g1, 22.5689, T0, 25)
    assert rep.bound == dd_bound(DDCertificate(g1, (-1.0, 0.5), M=22.5689), 25)
    assert rep.epsilon == max(rep.sign_check.worst_violation, 0.0)
    assert 1.999e-4 < rep.epsilon < 2.0e-4
    assert rep.charged_values == [v + (24 - m) * rep.epsilon
                                  for m, v in enumerate(rep.cap_values)]
    assert rep.charged_best == max(rep.charged_values)
    # the sweep decides U' < B(25) - margin = 0.031415; the multistart
    # maxima gave U' = 0.031026, and no upper bound may be below them
    assert 0.031026 <= rep.charged_best < rep.bound - rep.margin
    assert rep.M_max == 25 - 3 * 25 * (rep.charged_best + rep.margin)
    assert 22.5689 < rep.M_max < 22.598
    out = rep.to_dict()
    assert out["epsilon"] == rep.epsilon and out["charged_best"] == rep.charged_best
    assert out["sign_check"]["evaluations"] == rep.sign_check.evaluations


def test_charged_values_never_below_cap_values(g1):
    # with N <= n, an m above N - 1 leaves no point outside the cap to charge
    for N in (1, 3):
        rep = kissing_check(g1, 22.5689, T0, N)
        assert len(rep.charged_values) == len(rep.cap_values) == 5
        assert all(c >= v for c, v in zip(rep.charged_values, rep.cap_values))
        assert rep.charged_values == [v + max(N - 1 - m, 0) * rep.epsilon
                                      for m, v in enumerate(rep.cap_values)]
    # the report carries each m's sweep counts
    assert [s["boxes"] for s in rep.to_dict()["sweeps"]][0] == 0
    assert all(s["ended"] == "refuted" for s in rep.sweeps)


def test_planted_excess_flips_the_verdict(g1):
    # raising c0 by 3e-4 keeps g within SIGN_CHECK_TOL on [t0, 1/2] and its
    # best cap configurations below B(25) - margin; charged for the excess
    # on the 24 - m points outside the cap, a witness refutes the
    # contradiction (the sweep stops there, so its upper bounds are loose)
    raised = GegenbauerExpansion(4, g1.coeffs + np.eye(g1.coeffs.size)[0] * 3e-4)
    rep = kissing_check(raised, 22.5689, T0, 25)
    assert 0.0 < rep.epsilon <= capopt.SIGN_CHECK_TOL
    m, value = rep.cap_lower["m"], rep.cap_lower["value"]
    assert value < rep.bound - rep.margin
    assert value + (24 - m) * rep.epsilon > rep.bound - rep.margin
    assert rep.sweeps[m]["ended"] == "refuted"
    assert rep.charged_best >= rep.bound - rep.margin
    assert rep.verdict == "INCONCLUSIVE"


def test_kissing_check_rejects_bad_n_before_optimizing(g1, monkeypatch):
    monkeypatch.setattr(capopt, "check_sign", lambda *a, **k: pytest.fail("checked"))
    monkeypatch.setattr(capopt, "_envelope", lambda *a, **k: pytest.fail("swept"))
    with pytest.raises(ParameterError, match="N must be"):
        kissing_check(g1, 22.5689, T0, 0)


def configuration_from_heights(t, n=4):
    """A cap configuration with heights t whose C(t) is PSD, built with
    LAPACK as an independent check of the sweep's witness argument: C
    itself for m < n, and for m = n, C with its off-diagonal entries
    lowered together by the largest s that keeps it PSD."""
    m = len(t)
    C = _cap_matrix(np.array([t]))[0][0]
    off = np.ones((m, m)) - np.eye(m)
    if m == n:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if np.linalg.eigvalsh(C - mid * off)[0] >= 0 else (lo, mid)
        C = C - lo * off
    lam, vec = np.linalg.eigh(C)
    w = (vec * np.sqrt(np.maximum(lam, 0.0)))[:, -(n - 1):]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    s = np.sqrt(1.0 - np.asarray(t) ** 2)
    return np.column_stack([t, s[:, None] * w])


def exact_q_sign(t):
    """sign(q(t) - 1) of each row, in Fractions throughout."""
    out = []
    for row in t.tolist():
        f = [Fraction(x) for x in row]
        q = 2 * (sum(x * x for x in f) - sum(f) ** 2 / (len(f) + 1))
        out.append((q > 1) - (q < 1))
    return np.array(out)


def test_q_sign_is_exact_at_the_boundary():
    # rows within a few ulps of q = 1, where the floats of _q alone decide
    # some of them wrongly: m = 2 around both heights at -sqrt(3)/2, rows
    # of m = 3 and 4 whose last height solves q = 1, nudged by ulps, and
    # rows with q = 1 exactly
    a = -math.sqrt(3) / 2
    near = [a]
    for _ in range(4):
        near = [math.nextafter(near[0], -1.0)] + near + [math.nextafter(near[-1], 0.0)]
    rows = {2: [[x, y] for x in near for y in near] + [[-1.0, -0.5]]}
    rng = np.random.default_rng(13)
    for m in (3, 4):
        rows[m] = []
        while len(rows[m]) < 200:
            head = rng.uniform(-1.0, T0, size=m - 1)
            # 2(A + x^2 - (B + x)^2/(m + 1)) = 1 for the last height x
            A, B = float(np.sum(head * head)), float(np.sum(head))
            qa, qb, qc = m / (m + 1), -2.0 * B / (m + 1), A - B * B / (m + 1) - 0.5
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0:
                continue
            x = (-qb - math.sqrt(disc)) / (2.0 * qa)
            if not -1.0 < x < T0:
                continue
            for k in range(-3, 4):
                rows[m].append(list(head) + [x + k * math.ulp(x)])
    wrong = 0
    for m, r in [(1, [[-1.0]]), *rows.items()]:
        t = np.array(r)
        exact = exact_q_sign(t)
        assert np.array_equal(capopt._q_sign(t), exact)
        wrong += int(np.sum(np.sign(capopt._q(t) - 1.0) != exact))
    assert wrong > 0  # the floats alone do not decide these rows


def test_cap_max_heights_hold_q_exactly():
    # the polish may end with q just above 1; cap_max lifts its heights
    # until q <= 1 holds exactly, so the configuration keeps its products
    # at most 1/2 to rounding, not to the polish's tolerance
    g2, t0 = load_expansion("g2"), -0.73
    res = cap_max(CapProblem(4, g2, t0, 3, 4), starts=60, seed=0)
    assert capopt._q_sign(res.configuration[:, :1].T)[0] <= 0
    assert _constraint_violation(res.configuration, t0) <= 1e-14


def test_envelope_bounds_g_on_every_level(g1):
    # each entry bounds the exact maximum of g on its cell, and the finest
    # cells' Taylor slack keeps even the coarse entries within 1e-5 of it
    env = capopt._envelope(g1, T0)
    assert len(env) == capopt._CAP_LEVELS + 1
    rng = np.random.default_rng(8)
    for k in (0, 4, capopt._CAP_LEVELS):
        width = (T0 + 1.0) / len(env[k])
        for i in rng.choice(len(env[k]), min(3, len(env[k])), replace=False):
            exact = float(cell_max_exact(4, g1.coeffs, -1.0 + i * width, -1.0 + (i + 1) * width))
            assert exact <= env[k][i] <= exact + 1e-5


def test_cap_max_below_the_certified_upper_bound():
    # no multistart maximum exceeds the sweep's certified upper bound; a
    # threshold 1e-4 above it (1e-3 at m = 4, where 1e-4 overruns the box
    # budget) is decided, putting the bound within that gap of it, unless
    # a witness beats the multistart by more than the gap
    decided = 0
    for name, t0 in (("g1", T0), ("g2", -0.73)):
        g = load_expansion(name)
        env = capopt._envelope(g, t0)
        for m in (1, 2, 3, 4):
            for seed in (0, 1, 2):
                res = cap_max(CapProblem(4, g, t0, m, 4), starts=20, seed=seed)
                gap = 1e-3 if m == 4 else 1e-4
                rep, counts = capopt._cap_sweep(g, env, t0, m, res.value + gap)
                assert res.value <= rep.worst_violation
                if counts["ended"] == "decided":
                    decided += 1
                    assert rep.worst_violation <= res.value + gap + 1e-15
                    assert rep.sample_max <= res.value + 1e-9
                else:
                    assert counts["ended"] == "refuted"
                    assert rep.sample_max > res.value + gap
    assert decided >= 20


def test_corner_psd_decision_agrees_with_random_configurations():
    # a feasible configuration's heights are never certified not PSD, heights
    # certified PD hold a configuration, and the two decisions leave only
    # heights within 1e-9 of the PSD boundary undecided. The exact q decision
    # the sweep makes never calls a feasible configuration infeasible, agrees
    # with eigvalsh away from that boundary, and decides every row the
    # Cholesky oracles decide, the same way. The directions are a randomly
    # turned regular tetrahedron's, perturbed, and half the heights lie in
    # [-0.85, t0], so that four points fit often enough.
    rng = np.random.default_rng(11)
    tetrahedron = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    for m in (2, 3, 4):
        turn = np.linalg.qr(rng.normal(size=(20_000, 3, 3)))[0]
        w = np.einsum("ik,bkj->bij", tetrahedron[:m], turn) + 0.1 * rng.normal(size=(20_000, m, 3))
        w /= np.linalg.norm(w, axis=2, keepdims=True)
        t = rng.uniform([[-1.0]] * 10_000 + [[-0.85]] * 10_000, T0, size=(20_000, m))
        Y = np.concatenate([t[:, :, None], np.sqrt(1.0 - t * t)[:, :, None] * w], axis=2)
        iu, ju = np.triu_indices(m, 1)
        feasible = np.all(np.einsum("bik,bjk->bij", Y, Y)[:, iu, ju] <= 0.5, axis=1)
        C, err = _cap_matrix(t)
        pd = _certified_pd(C, err)
        not_psd = _certified_not_psd(C, err)
        lam = np.linalg.eigvalsh(C)[:, 0]
        assert feasible.sum() >= 100 and not_psd.sum() >= 1000
        assert not np.any(feasible & not_psd)
        assert np.all(lam[pd] > 0) and np.all(lam[not_psd] < 0)
        assert np.all((pd | not_psd)[np.abs(lam) > 1e-9])
        sign = capopt._q_sign(t)
        assert not np.any(feasible & (sign > 0))
        clear = np.abs(lam) > 1e-9
        assert np.array_equal(sign[clear] < 0, lam[clear] > 0)
        assert np.all(sign[pd] < 0) and np.all(sign[not_psd] > 0)
        for heights in t[pd][:40]:
            cfg = configuration_from_heights(heights)
            assert feasibility_violation(cfg, T0) <= 1e-12


def test_planted_bump_inside_the_cap_yields_a_refuting_witness(g1):
    # b = -(t + 0.708)(t - 1/2)^2 / 100 is <= 0 on [t0, 1/2], so the sign
    # check still passes, and positive inside the cap, where it lifts the
    # cap configurations above the N = 25 threshold
    a = Fraction(708, 1000)
    bump = [-Fraction(1, 100) * c for c in (a / 4, Fraction(1, 4) - a, a - 1, 1)]
    coeffs = g1.coeffs.copy()
    coeffs[:4] += [float(c) for c in monomial_to_gegenbauer(4, bump)]
    g = GegenbauerExpansion(4, coeffs)
    rep = kissing_check(g, 22.5689, T0, 25)
    assert rep.epsilon <= kissing_check(g1, 22.5689, T0, 25).epsilon
    assert rep.verdict == "INCONCLUSIVE"
    m, value, heights = rep.cap_lower["m"], rep.cap_lower["value"], rep.cap_lower["heights"]
    assert rep.sweeps[m]["ended"] == "refuted" and rep.sweeps[m]["lower"] == value
    assert value + (24 - m) * rep.epsilon > rep.bound - rep.margin
    cfg = configuration_from_heights(heights)
    assert feasibility_violation(cfg, T0) <= 1e-12
    assert value <= float(np.sum(g.eval(cfg[:, 0])))


def test_kissing_check_never_runs_multistart(g1, monkeypatch):
    for name in ("cap_max", "minimize"):
        monkeypatch.setattr(capopt, name, lambda *a, **k: pytest.fail("multistart ran"))
    assert kissing_check(g1, 22.5689, T0, 25).verdict == "CONTRADICTION"


def test_sweep_stops_at_its_box_budget():
    # g = -1/4 puts every feasible box's bound above the threshold m g, its
    # own cap maximum, and every witness below it: nothing is dropped by
    # value or refutes, so the sweep stops before a level of over
    # _CAP_BUDGET boxes, with a bound at or above the maximum
    g = GegenbauerExpansion(4, [-0.25])
    env = capopt._envelope(g, T0)
    for m in (2, 3):
        rep, counts = capopt._cap_sweep(g, env, T0, m, -0.25 * m)
        assert counts["ended"] == "budget"
        assert counts["levels"] < capopt._CAP_LEVELS + 1
        assert counts["boxes"] <= counts["levels"] * capopt._CAP_BUDGET
        assert counts["value_prunes"] == 0
        assert rep.sample_max <= -0.25 * m <= rep.worst_violation
    # through the check: B(2) - margin = -1/2 with M = 5 and margin 0 is
    # the two-point cap's maximum, and its budget stop leaves INCONCLUSIVE
    rep = kissing_check(g, 5.0, T0, 2, margin=0.0)
    assert rep.bound == -0.5 and rep.epsilon == 0.0
    assert [s["ended"] for s in rep.sweeps] == ["refuted", "refuted", "budget", "decided",
                                                "decided"]
    assert rep.cap_values[2] >= -0.5
    assert rep.verdict == "INCONCLUSIVE"


def test_sweep_that_runs_out_of_levels_ends_finest():
    # g = 0.01 with a threshold just under it: every box's bound stays
    # above the threshold and every witness, lowered by its rounding, below
    # it. At m = 1 no level comes near the budget, so all 14 levels run
    g = GegenbauerExpansion(4, [0.01])
    threshold = 0.00999999999999996
    rep, counts = capopt._cap_sweep(g, capopt._envelope(g, T0), T0, 1, threshold)
    assert counts["ended"] == "finest"
    assert counts["levels"] == capopt._CAP_LEVELS + 1
    assert counts["boxes"] == 2 ** (capopt._CAP_LEVELS + 1) - 1 < capopt._CAP_BUDGET
    assert rep.sample_max <= threshold < rep.worst_violation


def test_sweep_prunes_at_or_above_each_exact_corner(monkeypatch):
    # the float corner min(centre + rho, t0) the sweep decides q at lies at
    # or above the exact dyadic corner -1 + (i + 1)w of every cell, at every
    # level; g = 0.01 against a threshold just under it keeps all cells live
    seen = []
    q_sign = capopt._q_sign
    monkeypatch.setattr(capopt, "_q_sign", lambda t: seen.append(t[:, 0].copy()) or q_sign(t))
    g = GegenbauerExpansion(4, [0.01])
    for t0 in (T0, -0.73, -0.99):
        seen.clear()
        capopt._cap_sweep(g, capopt._envelope(g, t0), t0, 1, 0.00999999999999996)
        corners = seen[0::2]  # each level decides its corners, then its centres
        assert len(corners) == capopt._CAP_LEVELS + 1
        for k, level in enumerate(corners):
            w = Fraction(t0 + 1.0) / 2 ** k
            assert len(level) == 2 ** k
            assert all(-1 + (i + 1) * w <= Fraction(c) <= Fraction(t0)
                       for i, c in enumerate(level.tolist()))


def test_caps_above_n_are_empty():
    # t0 <= -1/sqrt(2) leaves room for at most n points in the open cap, so
    # the report ends at m = n, in dimension 5 as in 4; at t0 = -0.99 no two
    # points fit, and every sweep above m = 1 prunes all its boxes
    for n in (4, 5):
        rep = kissing_check(GegenbauerExpansion(n, [-1.0]), 1.0, -0.99, 25)
        assert rep.mu == n
        assert rep.cap_values == [0.0, pytest.approx(-1.0)] + [None] * (n - 1)
        assert all(s["psd_prunes"] == s["boxes"] > 0 for s in rep.sweeps[2:])
        assert rep.verdict == "CONTRADICTION"


def test_closed_cap_points_are_charged_epsilon(g1):
    # at t0 = -0.7071067811865476 the six points (t0, +-e_i/sqrt(2)) have
    # pairwise products at most 1/2 (to 2.2e-16), more than the n = 4 the
    # open cap holds; they lie at exactly t0, outside the open cap, where
    # the sign check's epsilon bounds g
    t0 = -0.7071067811865476
    s = math.sqrt(1.0 - t0 * t0)
    Y = np.array([[t0] + list(sign * s * e) for e in np.eye(3) for sign in (1.0, -1.0)])
    gram = Y @ Y.T
    assert np.all(gram[np.triu_indices(6, 1)] <= 0.5 + 2.2e-16)
    assert np.allclose(np.diag(gram), 1.0, rtol=0, atol=2.2e-16)
    assert not np.any(Y[:, 0] < t0)
    rep = kissing_check(g1, 22.5689, t0, 25)
    assert rep.mu == 4 and rep.verdict == "CONTRADICTION"
    assert g1.eval(t0) <= rep.epsilon
