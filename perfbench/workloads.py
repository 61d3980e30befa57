"""Seeded inputs, the operations of one pass, and the judge of each output.

Every operation goes through a public entry point of spherecert: cli.main
or a public function of gegenbauer, codes, threepoint, bounds, verify,
capopt or data. A traced pass installs its wrappers before the operations
are built, so every function an operation holds is the traced one. Inputs
are written under the pass's work directory before the timed loop starts;
judges run after it, and whatever they need beyond the inputs (Gram
matrices, for one) they compute then, so it adds nothing to the pass's
peak memory.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import Findings

from spherecert import capopt, cli, codes, data, gegenbauer, threepoint, verify

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "demos" / "manifests"
T_DD = (-1.0, 0.5)
KISSING_T0 = -0.7071067811865476
# Triple certificates are drawn around a base fixed per degree. The valid
# ones are the base itself, not seeded: certified verify-cert rejects them
# at d = 8 and 12, and a failure that is counted has to come from the same
# input in every run.
CERT_BASE_SEED = 4
CLI_TOL = 5e-3       # verify-cert's default --tol
PSD_TOL = 1e-9       # verify-cert's default --psd-tol

SIZES = {
    "full": {
        "kissing_starts": None,   # as stored in the manifests
        "cap_starts": 40,
        "triple": ((4, 0.01), (8, 0.02), (12, 0.04)),
        "sweep_step": 1e-6,
        "seeded_step": 2e-6,
        "bulk_points": 2_000_000,
        "code_points": 2000,
        "random_code_points": 100,
    },
    "smoke": {
        "kissing_starts": 4,
        "cap_starts": 4,
        "triple": ((4, 0.05),),
        "sweep_step": 1e-4,
        "seeded_step": 1e-4,
        "bulk_points": 20_000,
        "code_points": 100,
        "random_code_points": 20,
    },
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    judge: Callable[[object], Findings]
    verb: str | None = None   # CLI verb, for operations that go through cli.main


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def cli_call(argv: list[str]):
    def call():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()
    return call


def _report(f: Findings, out, codes_ok) -> dict:
    code, text = out
    rep = json.loads(text)
    f.expect(code in codes_ok, f"exit code {code}, want one of {sorted(codes_ok)}")
    return rep


def _expansion_fun(obj: dict):
    n, c = int(obj["n"]), [float(x) for x in obj["coeffs"]]
    return checks.expansion_fun(n, c), checks.coeff_scale(c)


# ---------------------------------------------------------------------------
# Input makers.

def unit_rows(rng, N: int, n: int) -> np.ndarray:
    X = rng.normal(size=(N, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def seeded_coeffs(rng, degree: int, decay: float = 0.5) -> list[float]:
    return [float(x) for x in rng.normal(size=degree + 1) / (1.0 + np.arange(degree + 1)) ** decay]


def nonneg_tail_coeffs(rng, degree: int) -> list[float]:
    tail = np.abs(rng.normal(size=degree)) / (2.0 + np.arange(degree)) ** 2
    return [float(rng.uniform(0.5, 1.0))] + [float(x) for x in tail]


def dd_certificate(d: int, valid: bool, rng=None) -> dict:
    """Full-mode certificate in dimension 4 on T = [-1, 1/2].

    H_k = P_k (+ c E0 for k = 0) with P_k = A_k A_k^T positive
    semidefinite. On realizable triples every kernel entry is at most 1 in
    size, so |F - c| <= S = sum_k sum |P_k|. g is a negative constant plus
    a tail of size delta; c, F0 and h0 are then set so that every side
    condition holds with a margin of S/4. The invalid certificate raises
    H_0[0,0] until F > g + g + g by S/4 everywhere on D3(T), and raises F0
    so that H_0 - F0 E0 has a negative diagonal entry.

    All draws come from a base generator fixed per degree; `rng` adds a
    seeded perturbation of 1 % to each of them. Larger changes move the
    maximizer of the triple sweep between the inside and the outside of
    D3(T), which changes how much refinement runs several-fold.
    """
    base = np.random.default_rng([CERT_BASE_SEED, d])

    def draw(*shape):
        x = base.normal(size=shape)
        return x if rng is None else x + 0.01 * rng.normal(size=shape)

    H = []
    for k in range(d + 1):
        size = d + 1 - k
        A = draw(size, size)
        H.append(A @ A.T / (size * size * (k + 1)))
    S = float(sum(np.abs(h).sum() for h in H))
    g_tail = draw(d) * 0.02 * S / np.arange(1, d + 1)
    delta = float(np.abs(g_tail).sum())
    g0 = -delta - 0.05 * S
    c = 3.0 * (g0 - delta) - 1.25 * S
    h = draw(d + 1) * 0.05 * S / np.arange(1, d + 2)
    h0 = 2.0 * (g0 - delta) - S - c - float(np.abs(h).sum()) - 0.25 * S
    p00 = float(H[0][0, 0])
    H[0][0, 0] += c
    F0 = c
    if not valid:
        lift = 3.0 * (g0 + delta) + S - c + 0.25 * S
        H[0][0, 0] += lift
        F0 = c + lift + p00 + 0.25 * S
    F = {"n": 4, "d": d, "F0": F0, "H": [m.tolist() for m in H]}
    return {"g": {"n": 4, "coeffs": [g0, *g_tail.tolist()]}, "T": list(T_DD),
            "h": {"n": 4, "coeffs": h.tolist()}, "h0": h0, "F": F, "F0": F0}


def separated_code(rng, N: int, n: int, gap: float = 1e-8) -> np.ndarray:
    """Random code whose distinct inner products are more than `gap`
    apart, so clustering at the default tolerance is unambiguous."""
    while True:
        X = unit_rows(rng, N, n)
        vals = np.sort((X @ X.T)[np.triu_indices(N, 1)])
        if vals.size < 2 or np.min(np.diff(vals)) > gap:
            return X


def rotated_24cell(rng) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(4, 4)))
    Q = Q * np.sign(np.diag(R))
    return codes.make_24cell().points @ Q


# ---------------------------------------------------------------------------
# Judges of replayed manifests. Each compares with an independent
# computation from the manifest's own input files.

def judge_eval(manifest: dict, out) -> Findings:
    f = Findings()
    rep = _report(f, out, {0})
    exp = read_json(ROOT / manifest["inputs"][0])
    fun, scale = _expansion_fun(exp)
    ts = manifest["parameters"]["t"]
    f.expect([r["t"] for r in rep["values"]] == ts, "evaluation points differ from the manifest")
    for r in rep["values"]:
        f.close(r["value"], fun(np.array([r["t"]]))[0], scale, f"value at {r['t']}")
    f.close(rep["value_at_one"], math.fsum(exp["coeffs"]), scale, "value at 1")
    return f


def judge_bound(manifest: dict, out) -> Findings:
    f = Findings()
    rep = _report(f, out, {0})
    cert = read_json(ROOT / manifest["inputs"][0])
    N = manifest["parameters"]["N"]
    f.expect(rep["M"] == cert["M"], f"M = {rep['M']!r}, file has {cert['M']!r}")
    f.close(rep["sdp_bound"], checks.dd_bound(N, cert["M"]), 1.0, "B(N)")
    lp = checks.lp_bound(cert["g"]["coeffs"], N)
    if lp is None:
        f.expect(rep["lp_bound"] is None, "LP bound given for a negative tail")
    else:
        f.close(rep["lp_bound"], lp, N * checks.coeff_scale(cert["g"]["coeffs"]), "c0 N - f(1)")
        f.expect(rep["sdp_stronger"] == (rep["sdp_bound"] > rep["lp_bound"]),
                 "sdp_stronger contradicts the two bounds")
    return f


CELL24 = {-1.0: 1.0, -0.5: 8.0, 0.0: 6.0, 0.5: 8.0}


def judge_code_stats(expected: dict | None, params: dict, points, exact: bool, out) -> Findings:
    """code-stats report: masses total N - 1, moments are >= 0 and equal
    the independent pair sums, interval masses add up the distribution;
    when `expected` is given the distribution must equal it. `exact`
    rounds the Gram matrix to the multiples of 1/4 of the built-in codes."""
    f = Findings()
    rep = _report(f, out, {0})
    N = len(points)
    gram = points @ points.T
    gram = np.round(gram * 4.0) / 4.0 if exact else np.clip(gram, -1.0, 1.0)
    n = rep["n"]
    dist = {e["t"]: e["mass"] for e in rep["distance_distribution"]}
    f.expect(rep["N"] == N, f"N = {rep['N']}, want {N}")
    f.close(rep["total_mass"], N - 1, N, "total mass")
    f.close(sum(dist.values()), N - 1, N, "sum of the masses")
    if expected is not None:
        keys = sorted(dist)
        f.expect(len(keys) == len(expected) and all(
            abs(a - b) <= 1e-9 for a, b in zip(keys, sorted(expected))),
            f"inner products {keys}, want {sorted(expected)}")
        if len(keys) == len(expected):
            for a, b in zip(keys, sorted(expected)):
                f.close(dist[a], expected[b], N, f"mass at {b}")
    for m in rep["moments"]:
        k = m["k"]
        f.expect(m["value"] >= -1e-9 * N * N, f"moment {k} = {m['value']!r} is negative")
        want = float(np.sum(checks.gegenbauer(n, k, gram)))
        f.close(m["value"], want, N * N, f"moment {k}")
    for iv, r in zip(params.get("interval") or [], rep["interval_masses"]):
        want = sum(mass for t, mass in dist.items() if iv[0] <= t <= iv[1])
        f.close(r["mass"], want, N, f"mass on {iv}")
    return f


def judge_sign_cert(manifest: dict, out) -> Findings:
    """verify-cert on a scalar-M certificate: the sign sweep on each
    interval. A rejection where the independent maximum is within the
    tolerance is a wrong verdict."""
    f = Findings()
    rep = _report(f, out, {0, 3})
    cert = read_json(ROOT / manifest["inputs"][0])
    fun, scale = _expansion_fun(cert["g"])
    tol = manifest["parameters"]["tol"]
    intervals = manifest["parameters"].get("interval") or [cert["T"]]
    f.expect(len(rep["checks"]) == len(intervals), "one check per interval expected")
    for iv, c in zip(intervals, rep["checks"]):
        checks.judge_sweep(f, c, fun, iv, scale, f"sign on {iv}")
        f.expect(c["pass"] == (c["worst_violation"] <= tol), "pass flag contradicts the bound")
        if not c["pass"]:
            _, indep = checks.dense_max(fun, iv[0], iv[1])
            if indep <= tol / 2:
                f.fault = f"sign on {iv} rejected; the independent maximum is {indep:.3g}"
    f.expect(rep["ok"] == all(c["pass"] for c in rep["checks"]), "ok contradicts the checks")
    f.expect(out[0] == (0 if rep["ok"] else 3), "exit code contradicts ok")
    return f


def judge_kissing(manifest: dict, out) -> Findings:
    """kissing-check: B(N) from the file, best value and verdict from the
    cap values, a sound certified sign bound, and a CONTRADICTION that
    survives charging every point outside the cap with that bound."""
    f = Findings()
    rep = _report(f, out, {0, 4})
    cert = read_json(ROOT / manifest["inputs"][0])
    p = manifest["parameters"]
    N, margin, t0 = p["N"], p["margin"], p["t0"]
    fun, scale = _expansion_fun(cert["g"])
    f.close(rep["bound"], checks.dd_bound(N, cert["M"]), 1.0, "B(N)")
    vals = rep["cap_values"]
    f.expect(len(vals) == p["mu"] + 1, "one cap value per m = 0..mu expected")
    f.expect(vals[0] == 0.0, "an empty cap has value 0")
    f.expect(rep["best_value"] == max(vals) and rep["best_m"] == vals.index(max(vals)),
             "best value is not the largest cap value")
    contradiction = rep["best_value"] < rep["bound"] - margin
    f.expect(rep["verdict"] == ("CONTRADICTION" if contradiction else "INCONCLUSIVE"),
             "verdict contradicts best value and B(N)")
    f.expect(out[0] == (4 if contradiction else 0), "exit code contradicts the verdict")
    sign = rep["sign_check"]
    f.expect(sign["certified"], "the sign precondition must be certified")
    checks.judge_sweep(f, sign, fun, (t0, 0.5), scale, "sign precondition")
    if rep["verdict"] == "CONTRADICTION":
        eps = max(sign["worst_violation"], 0.0)
        charged = max(v + (N - 1 - m) * eps for m, v in enumerate(vals))
        if charged >= rep["bound"] - margin:
            f.fault = (f"CONTRADICTION does not follow: charging the {N - 1}-m points "
                       f"outside the cap with g <= {eps:.3g} gives {charged:.4f} >= "
                       f"B(N) - margin = {rep['bound'] - margin:.4f}")
    return f


def replay_ops(seed: int, work: Path, size: dict) -> list[Op]:
    judges = {"eval": judge_eval, "bound": judge_bound, "verify-cert": judge_sign_cert,
              "kissing-check": judge_kissing}
    ops = []
    for path in sorted(MANIFESTS.glob("*.json")):
        manifest = read_json(path)
        if manifest["command"] == "kissing-check" and size["kissing_starts"]:
            manifest["parameters"]["starts"] = size["kissing_starts"]
        argv = cli.manifest_to_argv(manifest)
        verb = manifest["command"]
        if verb == "code-stats":
            code = codes.builtin_code(manifest["inputs"][0])
            judge = partial(judge_code_stats, CELL24, manifest["parameters"], code.points, True)
        else:
            judge = partial(judges[verb], manifest)
        ops.append(Op(path.stem, cli_call(argv), judge, verb))
    # The kissing reports carry no configurations; this cap_max returns
    # one, which is checked for feasibility and value. Its seed is fixed:
    # multistart time varies several-fold between seeds.
    g1_file = read_json(ROOT / "src/spherecert/data/g1.json")
    g1 = gegenbauer.GegenbauerExpansion.from_dict(g1_file)
    problem = capopt.CapProblem(4, g1, KISSING_T0, 4, 4)

    def judge_cap(res) -> Findings:
        f = Findings()
        f.expect(res.m == 4, "wrong number of points")
        checks.judge_cap(f, res.value, res.configuration, 4, g1_file["coeffs"], KISSING_T0,
                         "cap_max m=4")
        return f

    ops.append(Op("cap_max_m4", lambda: capopt.cap_max(problem, starts=size["cap_starts"],
                                                       seed=0), judge_cap))
    return ops


# ---------------------------------------------------------------------------
# triple workload.

def judge_full_cert(cert: dict, valid: bool, rng_seed, out) -> Findings:
    """verify-cert on a full-mode certificate built valid or invalid."""
    f = Findings()
    rep = _report(f, out, {0, 3})
    T = cert["T"]
    g, gs = _expansion_fun(cert["g"])
    h, hs = _expansion_fun(cert["h"])
    H = [np.asarray(m) for m in cert["F"]["H"]]
    Fs = float(sum(np.abs(m).sum() for m in H))
    F = partial(checks.triple_values, 4, H)
    by = {c["condition"].split(":")[0]: c for c in rep["checks"]}
    f.expect(sorted(by) == ["pair", "psd", "sign", "triple"], f"checks {sorted(by)}")
    checks.judge_sweep(f, by["sign"], g, T, gs, "sign")
    pair = lambda s: h(s) + cert["h0"] + F(1.0, s, s) - 2.0 * g(s)
    checks.judge_sweep(f, by["pair"], pair, T, hs + Fs + 2 * gs + abs(cert["h0"]), "pair",
                       points=20_001)
    tri = by["triple"]
    loc = tri["location"]
    scale3 = Fs + 3 * gs
    f.close(tri["sample_max"], float(F(*loc) - g(np.array(loc)).sum()), scale3,
            "triple sample_max at its location")
    if not tri["certified"]:
        t, u, v = loc
        f.expect(min(loc) >= T[0] - 1e-9 and max(loc) <= T[1] + 1e-9 and
                 checks.d3_determinant(t, u, v) >= -1e-9,
                 f"sampled triple maximum reported outside D3(T) at {loc}")
    else:
        t, u, v = checks.d3_points(np.random.default_rng(rng_seed), T, 4000)
        indep = float(np.max(F(t, u, v) - g(t) - g(u) - g(v)))
        f.expect(tri["worst_violation"] >= indep - checks.REL_TOL * (1 + scale3),
                 f"certified triple bound {tri['worst_violation']!r} is below "
                 f"F - g - g - g = {indep!r} at a point of D3(T)")
    checks.judge_psd(f, by["psd"], psd_matrices(cert["F"]), PSD_TOL, "psd")
    for name in ("sign", "pair", "triple"):
        f.expect(by[name]["pass"] == (by[name]["worst_violation"] <= CLI_TOL),
                 f"{name} pass flag contradicts its bound")
    f.expect(rep["ok"] == all(c["pass"] for c in rep["checks"]), "ok contradicts the checks")
    f.expect(out[0] == (0 if rep["ok"] else 3), "exit code contradicts ok")
    if not valid:
        f.expect(not rep["ok"], "a certificate built invalid was accepted")
    elif not rep["ok"]:
        bad = [c["condition"] for c in rep["checks"] if not c["pass"]]
        f.fault = f"a certificate built valid was rejected on {bad}"
    return f


def psd_matrices(F: dict) -> dict:
    H = [np.asarray(m, dtype=float) for m in F["H"]]
    shifted = H[0].copy()
    shifted[0, 0] -= F["F0"]
    return {"H0-F0*E0": shifted, **{f"H{k}": H[k] for k in range(1, len(H))}}


def judge_certificate_valid(F: dict, rep) -> Findings:
    f = Findings()
    checks.judge_psd(f, rep.to_dict(), psd_matrices(F), PSD_TOL, "certificate_valid")
    return f


def judge_f111(F: dict, value) -> Findings:
    f = Findings()
    H0 = np.asarray(F["H"][0])
    f.close(value, float(H0.sum()), float(np.abs(H0).sum()), "F(1,1,1) against sum of H_0")
    return f


def judge_triple_sum(F: dict, valid: bool, code, value) -> Findings:
    """S_F equals the independent sum over all N^3 ordered triples, and is
    at least F0 N^3 when the certificate is PSD."""
    f = Findings()
    N = code.size
    gram = np.round(code.points @ code.points.T * 4.0) / 4.0  # built-in products are k/4
    a, b, c = np.meshgrid(np.arange(N), np.arange(N), np.arange(N), indexing="ij")
    H = [np.asarray(m) for m in F["H"]]
    indep = float(np.sum(checks.triple_values(4, H, gram[a, b], gram[a, c], gram[b, c])))
    scale = N ** 3 * float(sum(np.abs(m).sum() for m in H))
    f.close(value, indep, scale, f"triple sum on {code.name}")
    if valid:
        f.expect(value >= F["F0"] * N ** 3 - checks.REL_TOL * scale,
                 f"triple sum {value!r} below F0 N^3 = {F['F0'] * N ** 3!r}")
    return f


def triple_inputs(rng, size: dict) -> list[tuple[int, float, str, dict]]:
    out = []
    for d, step in size["triple"]:
        out.append((d, step, "valid", dd_certificate(d, True)))
        out.append((d, step, "invalid", dd_certificate(d, False, rng)))
    return out


def triple_ops(seed: int, work: Path, size: dict) -> list[Op]:
    judge_rng = np.random.default_rng([seed, 1])
    ops = []
    built = [codes.builtin_code(name) for name in ("24cell", "simplex4", "cross4")]
    for d, step, kind, cert in triple_inputs(np.random.default_rng(seed), size):
        valid = kind == "valid"
        path = write_json(work / f"dd_d{d}_{kind}.json", cert)
        for mode in ("sampled", "certified"):
            argv = ["verify-cert", path, "--mode", mode, "--grid-step", "1e-5",
                    "--triple-grid-step", str(step)]
            judge = partial(judge_full_cert, cert, valid, int(judge_rng.integers(2**31)))
            ops.append(Op(f"verify-cert d={d} {kind} {mode}", cli_call(argv), judge, "verify-cert"))
        F = threepoint.TripleCertificate.from_dict(cert["F"])
        ops.append(Op(f"certificate_valid d={d} {kind}",
                      partial(threepoint.certificate_valid, F),
                      partial(judge_certificate_valid, cert["F"])))
        ops.append(Op(f"F(1,1,1) d={d} {kind}", F.at_diagonal_one, partial(judge_f111, cert["F"])))
        for code in built:
            ops.append(Op(f"triple_sum d={d} {kind} {code.name}",
                          partial(threepoint.triple_sum, code, F),
                          partial(judge_triple_sum, cert["F"], valid, code)))
    return ops


# ---------------------------------------------------------------------------
# twopoint workload.

def explicit_values(terms, t, u, v):
    """Symmetrization of sum a t^i u^j v^k over the six variable orders."""
    t, u, v = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (t, u, v)))
    out = np.zeros_like(t)
    for x, y, z in ((t, u, v), (t, v, u), (u, t, v), (u, v, t), (v, t, u), (v, u, t)):
        for i, j, k, a in terms:
            out = out + a * x ** i * y ** j * z ** k
    return out / 6.0


def twopoint_inputs(rng, size: dict) -> dict:
    inp = {"seeded": []}
    for i, n in enumerate(range(3, 9)):
        a = float(rng.uniform(-1.0, -0.8))  # fixed length, so every seed sweeps as many points
        inp["seeded"].append({"n": n, "coeffs": seeded_coeffs(rng, 20 + 8 * i),
                              "interval": [a, a + 1.5]})
    inp["terms"] = [[int(x) for x in rng.integers(0, 4, size=3)] + [float(rng.normal() * 0.3)]
                    for _ in range(6)]
    inp["f"] = {"n": 4, "coeffs": seeded_coeffs(rng, 30)}
    inp["h"] = {"n": 4, "coeffs": seeded_coeffs(rng, 20)}
    inp["h0"] = float(rng.normal())
    inp["g"] = {"n": 4, "coeffs": seeded_coeffs(rng, 22)}
    inp["bulk"] = rng.uniform(-1.0, 1.0, size["bulk_points"])
    inp["code"] = unit_rows(rng, size["code_points"], 5)
    inp["code_g"] = {"n": 5, "coeffs": seeded_coeffs(rng, 22)}
    inp["code_f"] = {"n": 5, "coeffs": nonneg_tail_coeffs(rng, 22)}
    inp["rotated"] = rotated_24cell(rng)
    inp["random"] = separated_code(rng, size["random_code_points"], 4)
    inp["intervals"] = [sorted(float(x) for x in rng.uniform(-1, 1, 2)) for _ in range(2)]
    return inp


def judge_report(fun, interval, scale, what, rep) -> Findings:
    f = Findings()
    checks.judge_sweep(f, rep.to_dict(), fun, interval, scale, what)
    return f


def judge_load(path: Path, e) -> Findings:
    f = Findings()
    obj = read_json(path)
    f.expect(e.n == obj["n"] and [float(x) for x in e.coeffs] == obj["coeffs"],
             f"{path.name} loaded with other coefficients")
    return f


def judge_bulk(fun, scale, idx, xs, what, values) -> Findings:
    """Bulk values at the sampled indices idx (points xs) equal fun(xs)."""
    f = Findings()
    diff = np.abs(np.asarray(values)[idx] - fun(xs))
    f.expect(float(diff.max()) <= checks.REL_TOL * (1 + scale),
             f"{what}: values differ by {diff.max():g} at {xs[np.argmax(diff)]}")
    return f


def twopoint_ops(seed: int, work: Path, size: dict) -> list[Op]:
    inp = twopoint_inputs(np.random.default_rng(seed), size)
    judge_rng = np.random.default_rng([seed, 1])
    G = gegenbauer.GegenbauerExpansion
    state: dict = {}
    ops = []
    data_dir = ROOT / "src" / "spherecert" / "data"
    for name, interval in (("g1", (KISSING_T0, 0.5)), ("g2", (-0.73, 0.5))):
        def load(name=name):
            state[name] = data.load_expansion(name)
            return state[name]
        ops.append(Op(f"load_expansion {name}", load,
                      partial(judge_load, data_dir / f"{name}.json")))
        fun, scale = _expansion_fun(read_json(data_dir / f"{name}.json"))
        spec = verify.DomainSpec(grid_step=size["sweep_step"], mode=verify.CERTIFIED)
        ops.append(Op(f"check_sign {name}",
                      lambda name=name, interval=interval, spec=spec:
                      verify.check_sign(state[name], interval, spec),
                      partial(judge_report, fun, interval, scale, f"sign {name}")))
    spec = verify.DomainSpec(grid_step=size["seeded_step"], mode=verify.CERTIFIED)
    for s in inp["seeded"]:
        e = G(s["n"], s["coeffs"])
        fun, scale = _expansion_fun(s)
        what = f"check_sign n={s['n']} degree={len(s['coeffs']) - 1}"
        ops.append(Op(what, partial(verify.check_sign, e, tuple(s["interval"]), spec),
                      partial(judge_report, fun, s["interval"], scale, what)))
    F = threepoint.TripleCertificate.from_terms(inp["terms"])
    Fs = sum(abs(a) for *_, a in inp["terms"])
    diag = lambda s: explicit_values(inp["terms"], 1.0, s, s)
    f_fun, f_scale = _expansion_fun(inp["f"])
    ops.append(Op("check_pair_condition",
                  partial(verify.check_pair_condition, F, G.from_dict(inp["f"]), T_DD, spec),
                  partial(judge_report, lambda s: diag(s) - f_fun(s), T_DD, Fs + f_scale,
                          "pair F(1,t,t) <= f")))
    h_fun, h_scale = _expansion_fun(inp["h"])
    g_fun, g_scale = _expansion_fun(inp["g"])
    h0 = inp["h0"]
    ops.append(Op("check_dd_pair_condition",
                  partial(verify.check_dd_pair_condition, G.from_dict(inp["h"]), h0, F,
                          G.from_dict(inp["g"]), T_DD, spec),
                  partial(judge_report, lambda s: h_fun(s) + h0 + diag(s) - 2 * g_fun(s), T_DD,
                          h_scale + abs(h0) + Fs + 2 * g_scale, "pair h + h0 + F(1,t,t) <= 2g")))
    # Bulk evaluation on millions of points, judged on a seeded sample.
    x = inp["bulk"]
    idx = np.sort(judge_rng.choice(x.size, size=min(2000, x.size), replace=False))
    top = inp["seeded"][-1]
    e_top = G(top["n"], top["coeffs"])
    ops.append(Op("gegenbauer_eval n=6 k=40", partial(gegenbauer.gegenbauer_eval, 6, 40, x),
                  partial(judge_bulk, partial(checks.gegenbauer, 6, 40), 1.0, idx, x[idx], "G_40")))
    top_fun, top_scale = _expansion_fun(top)
    ops.append(Op("expansion eval degree=60", partial(e_top.eval, x),
                  partial(judge_bulk, top_fun, top_scale, idx, x[idx], "expansion")))
    # Energies and moments of a large random code.
    code = codes.SphericalCode(5, inp["code"])
    N = code.size
    P = inp["code"]

    def gram():
        return np.clip(P @ P.T, -1.0, 1.0)

    g5 = G.from_dict(inp["code_g"])
    f5 = G.from_dict(inp["code_f"])

    def judge_energy(coeffs, per_point, lower, value) -> Findings:
        f = Findings()
        cheb = checks.chebyshev(5, coeffs)
        want = float(np.sum(cheb(gram()[~np.eye(N, dtype=bool)]))) / (N if per_point else 1)
        f.close(value, want, checks.coeff_scale(coeffs) * N * (1 if per_point else N), "energy")
        if lower is not None:
            f.expect(value >= lower - checks.REL_TOL * (1 + abs(lower)),
                     f"R_f = {value!r} below c0 N - f(1) = {lower!r}")
        return f

    ops.append(Op(f"energy N={N}", partial(codes.energy, code, g5),
                  partial(judge_energy, inp["code_g"]["coeffs"], False, None)))
    ops.append(Op(f"r_value N={N}", partial(codes.r_value, code, f5),
                  partial(judge_energy, inp["code_f"]["coeffs"], True,
                          checks.lp_bound(inp["code_f"]["coeffs"], N))))

    def judge_moment(k, value) -> Findings:
        f = Findings()
        f.expect(value >= -1e-9 * N * N, f"moment {k} = {value!r} is negative")
        cheb = checks.chebyshev(5, [0.0] * k + [1.0])
        f.close(value, float(np.sum(cheb(gram()))), N * N, f"moment {k}")
        return f

    for k in range(7):
        ops.append(Op(f"moment k={k}", partial(codes.moment, code, k), partial(judge_moment, k)))
    # code-stats on float codes written as JSON.
    for name, pts, expected in (("rotated_24cell", inp["rotated"], CELL24),
                                ("random_code", inp["random"], None)):
        path = write_json(work / f"{name}.json", {"n": 4, "points": pts.tolist()})
        params = {"interval": inp["intervals"]}
        argv = ["code-stats", path] + [f"--interval={a},{b}" for a, b in inp["intervals"]]
        ops.append(Op(f"code-stats {name}", cli_call(argv),
                      partial(judge_code_stats, expected, params, pts, False), "code-stats"))
    return ops


WORKLOADS = {"replay": replay_ops, "triple": triple_ops, "twopoint": twopoint_ops}

