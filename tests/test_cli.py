import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import dd_certificate
from spherecert.bounds import DDCertificate, dd_bound_general, yudin_energy_lower
from spherecert import cli, codes
from spherecert.cli import main, manifest_to_argv

DATA = str(Path(__file__).resolve().parent.parent / "src" / "spherecert" / "data")
MANIFESTS = Path(__file__).resolve().parent.parent / "demos" / "manifests"
GOLDENS = MANIFESTS.parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_eval_values(capsys):
    code, rep = run(capsys, "eval", f"{DATA}/g1.json", "--t", "-1")
    assert code == 0
    assert rep["values"][0]["value"] == pytest.approx(0.02, abs=5e-3)
    assert rep["manifest"]["command"] == "eval"
    assert rep["manifest"]["tool_version"]


def test_eval_g2_values(capsys):
    code, rep = run(capsys, "eval", f"{DATA}/g2.json", "--t", "-1", "--t", "1")
    assert code == 0
    assert rep["values"][0]["value"] == pytest.approx(0.02, abs=5e-3)
    assert rep["values"][1]["value"] == pytest.approx(57.5714, abs=1e-3)


def test_eval_csv(tmp_path, capsys):
    out = tmp_path / "g1.csv"
    code, rep = run(capsys, "eval", f"{DATA}/g1.json", "--csv-out", str(out), "--samples", "11")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 12


def test_eval_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, rep = run(capsys, "eval", str(bad), "--t", "0")
    assert code == 2
    assert "error" in rep


def test_eval_domain_error(capsys):
    code, rep = run(capsys, "eval", f"{DATA}/g1.json", "--t", "2.0")
    assert code == 2


def test_code_stats_24cell(capsys):
    code, rep = run(
        capsys, "code-stats", "24cell",
        "--interval=-1,-0.45", "--interval=0.35,0.5", "--degree", "3",
    )
    assert code == 0
    assert rep["N"] == 24 and rep["n"] == 4
    dist = {e["t"]: e["mass"] for e in rep["distance_distribution"]}
    assert dist == {-1.0: 1.0, -0.5: 8.0, 0.0: 6.0, 0.5: 8.0}
    assert [m["mass"] for m in rep["interval_masses"]] == [9.0, 8.0]
    assert rep["distribution_exact"] is True


def test_code_stats_simplex(capsys):
    code, rep = run(capsys, "code-stats", "simplex4")
    assert code == 0
    assert rep["inner_products"] == [-0.25]


def test_code_stats_counts_a_builtin_table_once(monkeypatch, capsys):
    # the report's distance distribution and every moment share one count
    # of the exact product table, the cost of code-stats on a large code
    real, builds = codes.Counter, []

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(codes, "Counter", counting)
    for name in codes.BUILTIN_NAMES:
        builds.clear()
        code, rep = run(capsys, "code-stats", name, "--degree", "9", "--interval=-1,0")
        assert code == 0 and len(rep["moments"]) == 10
        assert len(builds) == 1, name


def test_code_stats_bad_point(tmp_path, capsys):
    f = tmp_path / "code.json"
    f.write_text(json.dumps({"n": 3, "points": [[1, 0, 0], [0.5, 0.5, 0.5]]}))
    code, rep = run(capsys, "code-stats", str(f))
    assert code == 2
    assert "point 1" in rep["error"]


def test_verify_cert_sign_pass(capsys):
    code, rep = run(
        capsys, "verify-cert", f"{DATA}/g1_cert.json",
        f"--interval={-np.sqrt(2)/2},0.5", "--mode", "certified",
        "--grid-step", "1e-6",
    )
    assert code == 0
    assert rep["ok"] is True
    assert rep["checks"][0]["certified"] is True
    assert rep["checks"][0]["worst_violation"] <= 5e-3


def test_verify_cert_non_psd(tmp_path, capsys):
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({
        "n": 4, "d": 2, "F0": 0.0,
        "H": [np.eye(3).tolist(), [[1.0, 2.0], [2.0, 1.0]], [[1.0]]],
    }))
    code, rep = run(capsys, "verify-cert", str(f))
    assert code == 3
    assert rep["ok"] is False
    assert rep["checks"][0]["checks"]["H1"]["witness"] is not None


def test_verify_cert_schema_error(tmp_path, capsys):
    f = tmp_path / "cert.json"
    f.write_text("{}")
    code, rep = run(capsys, "verify-cert", str(f))
    assert code == 2


def test_verify_cert_empty_d3_exits_2(tmp_path, capsys):
    # no triple of products in [-1, -0.9] is realizable: D3(T) is empty, and
    # the triple check must not pass with a maximum of -inf
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({
        "g": {"n": 4, "coeffs": [-1.0]}, "T": [-1, -0.9],
        "h": {"n": 4, "coeffs": [0.0]}, "h0": -4.0,
        "F": {"terms": [{"i": 0, "j": 0, "k": 0, "a": 1.0}]},
    }))
    for mode in ("sampled", "certified"):
        code, rep = run(capsys, "verify-cert", str(f), "--triple-grid-step", "0.01",
                        "--mode", mode)
        assert code == 2
        assert rep["error"].startswith("ParameterError: D3(T) is empty for T = [-1.0, -0.9]: b < -1/2")


def test_bound_g2(capsys):
    code, rep = run(capsys, "bound", f"{DATA}/g2_cert.json", "--N", "24")
    assert code == 0
    assert rep["sdp_bound"] == pytest.approx(0.0188, abs=1e-4)
    assert rep["lp_bound"] == pytest.approx(-52.243, abs=1e-3)
    assert rep["sdp_stronger"] is True
    code, rep = run(capsys, "bound", f"{DATA}/g2_cert.json", "--N", "25")
    assert rep["sdp_bound"] == pytest.approx(0.0314, abs=1e-4)
    assert rep["lp_bound"] == pytest.approx(-52.021, abs=1e-3)
    assert rep["sdp_stronger"] is True


def test_bound_g1_lp_not_applicable(capsys):
    code, rep = run(capsys, "bound", f"{DATA}/g1_cert.json", "--N", "25")
    assert code == 0
    assert rep["lp_bound"] is None
    assert "negative coefficients" in rep["lp_note"]
    assert rep["sdp_bound"] == pytest.approx(0.0324, abs=1e-4)


def test_bound_m_equals_n(tmp_path, capsys):
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({"g": {"n": 4, "coeffs": [1.0]}, "T": [-1, 0.5], "M": 24}))
    code, rep = run(capsys, "bound", str(f), "--N", "24")
    assert rep["sdp_bound"] == 0.0


def _full_cert(**changes) -> dict:
    """A full certificate with F0 = 0, h0 = 1 and h >= 0."""
    cert = {
        "g": {"n": 4, "coeffs": [1.0]}, "T": [-1.0, 0.5],
        "h": {"n": 4, "coeffs": [0.1, 0.05]}, "h0": 1.0,
        "F": {"n": 4, "d": 1, "F0": 0.0, "H": [[[1.0, 0.0], [0.0, 1.0]], [[1.0]]]},
    }
    return {**cert, **changes}


def test_bound_full_certificate(tmp_path, capsys):
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(_full_cert()))
    code, rep = run(capsys, "bound", str(f), "--N", "24")
    assert code == 0
    assert rep["M_provenance"] == "derived"
    cert = DDCertificate.from_dict(_full_cert())
    assert rep["sdp_bound"] == dd_bound_general(cert, 24, yudin_energy_lower(cert.h, 24))
    # F0 < 0, h0 < 0 and a negative coefficient of h: (N - M)/(3N) holds
    # for none of these, and E_h has no lower bound to stand in for it
    F = {**_full_cert()["F"], "F0": -6.0}
    f.write_text(json.dumps(_full_cert(F=F, h0=-0.163, h={"n": 4, "coeffs": [0.1, -0.05]})))
    code, rep = run(capsys, "bound", str(f), "--N", "24")
    assert code == 2
    assert "negative" in rep["error"]


def test_too_fine_triple_step_is_refused_before_any_sweep(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a sweep ran")

    for name in ("check_sign", "check_dd_pair_condition", "check_triple_condition"):
        monkeypatch.setattr(cli, name, refuse)
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(_full_cert()))
    code, rep = run(capsys, "verify-cert", str(f), "--triple-grid-step", "0.001")
    assert code == 2
    assert "too fine" in rep["error"]


def test_verify_cert_decides_the_d22_certificates(tmp_path, capsys):
    # certified at the default steps: the valid certificate passes on boxes
    # bounded at or below 0 (a triple sweep that chased the maximum made
    # 590,614 evaluations), and its invalid twin fails, each of its sweeps
    # refuted at a sample above --tol
    for valid, exit_code in ((True, 0), (False, 3)):
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(dd_certificate(22, valid)))
        code, rep = run(capsys, "verify-cert", str(f), "--mode", "certified")
        assert code == exit_code
        by = {c["condition"].split(":")[0]: c for c in rep["checks"]}
        for name in ("pair", "triple"):
            assert by[name]["pass"] == valid
            assert (by[name]["sample_max"] > 5e-3) == (not valid)
            assert (by[name]["worst_violation"] <= 0.0) == valid
        assert by["triple"]["evaluations"] <= (100 if valid else 50)


def test_full_certificate_with_two_f0_exits_2(tmp_path, capsys):
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({**_full_cert(), "F0": 5.0}))
    for argv in (["verify-cert", str(f), "--triple-grid-step", "0.05"],
                 ["bound", str(f), "--N", "24"]):
        code, rep = run(capsys, *argv)
        assert code == 2
        assert "F0" in rep["error"]


def test_full_certificate_of_another_dimension_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a sweep ran")

    for name in ("check_sign", "check_dd_pair_condition", "check_triple_condition"):
        monkeypatch.setattr(cli, name, refuse)
    f = tmp_path / "cert.json"
    for changes in ({"F": {**_full_cert()["F"], "n": 7}}, {"h": {"n": 7, "coeffs": [0.1]}}):
        f.write_text(json.dumps(_full_cert(**changes)))
        for argv in (["verify-cert", str(f), "--mode", "certified", "--triple-grid-step", "0.05"],
                     ["bound", str(f), "--N", "24"]):
            code, rep = run(capsys, *argv)
            assert code == 2
            assert "dimension" in rep["error"]


def test_non_finite_input_exits_2(tmp_path, capsys):
    cert = json.loads(Path(f"{DATA}/g1_cert.json").read_text())
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({**cert, "M": float("nan")}))
    code, rep = run(capsys, "bound", str(f), "--N", "25")
    assert code == 2
    assert "M must be finite" in rep["error"]
    cert["g"]["coeffs"][3] = float("nan")
    f.write_text(json.dumps(cert))
    code, rep = run(capsys, "kissing-check", str(f), "--t0", str(-np.sqrt(2) / 2), "--N", "25")
    assert code == 2
    assert "finite" in rep["error"]
    for argv in (["eval", f"{DATA}/g1.json", "--t", "nan"],
                 ["code-stats", "24cell", "--interval", "nan,0.5"]):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "NaN" not in out and "error" in json.loads(out)


def test_non_positive_step_and_bad_margin_exit_2(capsys):
    # a zero step must not fall back to the default sweep step
    for step in ("0", "-1e-5"):
        code, rep = run(capsys, "verify-cert", f"{DATA}/g1_cert.json", f"--grid-step={step}")
        assert code == 2
        assert "grid_step must be positive" in rep["error"]
    for margin in ("nan", "inf", "-1e-3"):
        assert main(["kissing-check", f"{DATA}/g1_cert.json", f"--t0={-np.sqrt(2) / 2}",
                     "--N", "25", f"--margin={margin}"]) == 2
        out = capsys.readouterr().out
        assert "NaN" not in out and "margin must be finite" in json.loads(out)["error"]


def strict_json(text: str):
    """text parsed as JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_out_of_range_numbers_exit_2(tmp_path, capsys):
    # NaN and negative tolerances, a negative moment degree, a built-in
    # code too large to build and a report with a non-finite number are
    # validation failures, never a pass or a traceback
    rng = np.random.default_rng(60)
    points = rng.normal(size=(6, 4))
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"n": 4, "points": points.tolist()}))
    huge = {"n": 4, "coeffs": [1e308, 1e308]}  # g(1) overflows to inf
    g = tmp_path / "huge.json"
    g.write_text(json.dumps(huge))
    cert = tmp_path / "huge_cert.json"
    cert.write_text(json.dumps({"g": huge, "T": [-1.0, 0.5], "M": 22.5689}))
    for argv in (["verify-cert", f"{DATA}/g1_cert.json", "--tol", "nan"],
                 ["verify-cert", f"{DATA}/g1_cert.json", "--psd-tol", "nan"],
                 ["verify-cert", f"{DATA}/g1_cert.json", "--tol=-1e-3"],
                 ["code-stats", str(code), "--tol", "nan"],
                 ["code-stats", str(code), "--tol", "0"],
                 ["code-stats", "24cell", "--tol=-1"],
                 ["code-stats", "24cell", "--tol", "inf"],
                 ["code-stats", "24cell", "--degree=-3"],
                 ["code-stats", "simplex999999999"],
                 ["code-stats", "cross999999999"],
                 ["eval", str(g)],
                 ["bound", str(cert), "--N", "24"]):
        with np.errstate(over="ignore"):
            assert main(argv) == 2, argv
        out = capsys.readouterr().out
        assert "NaN" not in out and "error" in strict_json(out), argv


@pytest.mark.parametrize("warnings_filter", ["default", "error::RuntimeWarning"])
def test_overflow_exits_2_under_any_warnings_filter(tmp_path, warnings_filter):
    # g(1), the coefficient sum, overflows: main raises numpy's RuntimeWarning
    # as an error whatever filter the interpreter started with, so the run
    # exits 2 with a JSON error and prints nothing on stderr
    root = MANIFESTS.parent.parent
    huge = {"n": 4, "coeffs": [1e308, 1e308]}
    g = tmp_path / "huge.json"
    g.write_text(json.dumps(huge))
    cert = tmp_path / "huge_cert.json"
    cert.write_text(json.dumps({"g": huge, "T": [-1, 0.5], "M": 22.5689}))
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for argv in (["eval", str(g)], ["bound", str(cert), "--N", "24"]):
        proc = subprocess.run(
            [sys.executable, "-W", warnings_filter, "-m", "spherecert.cli", *argv],
            cwd=root, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 2, proc.stderr.decode()
        assert "RuntimeWarning" in strict_json(proc.stdout.decode())["error"], argv
        assert proc.stderr == b"", argv


def test_closed_stdout_ends_quietly(tmp_path):
    # a reader that stops after two lines (`| head -2`) closes the pipe
    # while a report of several MB is still being written: the run stops
    # with the verb's exit code and prints nothing on stderr
    root = MANIFESTS.parent.parent
    x = np.random.default_rng(33).normal(size=(300, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    code = tmp_path / "code300.json"
    code.write_text(json.dumps({"n": 4, "points": x.tolist()}))
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.Popen([sys.executable, "-m", "spherecert.cli", "code-stats", str(code)],
                            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert head == [b"{\n", b'  "N": 300,\n']
    assert (proc.returncode, err) == (0, b"")


def test_argument_errors_are_json(capsys):
    # argparse's own errors exit 2 with a JSON error on stdout, like every
    # other validation failure; --help still exits 0
    for argv in (["verify-cert", f"{DATA}/g1_cert.json", "--grid-step", "-1e-5"],
                 ["bound", f"{DATA}/g1_cert.json", "--N", "abc"],
                 ["bound", f"{DATA}/g1_cert.json"],
                 ["no-such-verb"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "error" in json.loads(out) and err == ""
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_kissing_check_contradiction(capsys):
    code, rep = run(
        capsys, "kissing-check", f"{DATA}/g1_cert.json",
        "--t0", str(-np.sqrt(2) / 2), "--N", "25",
    )
    assert code == 4
    assert rep["verdict"] == "CONTRADICTION"
    # best_value is the largest certified upper bound, at m = 4, just under
    # its threshold; the best witness is the two-point cap's
    assert rep["best_value"] == max(rep["cap_values"]) == rep["cap_values"][rep["best_m"]]
    assert rep["cap_lower"]["m"] == 2
    assert rep["cap_lower"]["value"] == pytest.approx(0.0266, abs=1e-3)
    assert rep["charged_best"] < rep["bound"] - rep["margin"]
    assert rep["M_max"] > 22.5689


def test_kissing_check_inconclusive(capsys):
    code, rep = run(
        capsys, "kissing-check", f"{DATA}/g1_cert.json",
        "--t0", str(-np.sqrt(2) / 2), "--N", "24",
    )
    assert code == 0
    assert rep["verdict"] == "INCONCLUSIVE"


def test_kissing_check_undercounted_mu_is_inconclusive(capsys):
    # --mu 0 is ignored: the sweep still covers every cap up to n = 4, where
    # witnesses refute N = 24; the 24-cell exists, so no CONTRADICTION may follow
    code, rep = run(
        capsys, "kissing-check", f"{DATA}/g1_cert.json",
        "--t0=-0.7071067811865476", "--mu", "0", "--N", "24",
    )
    assert code == 0
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["mu"] == 4 and len(rep["cap_values"]) == 5
    assert rep["charged_best"] >= rep["bound"] - rep["margin"]


def test_kissing_check_ignores_mu(capsys, monkeypatch):
    # any --mu, or none, gives the stored kissing reports outside their manifest
    monkeypatch.chdir(MANIFESTS.parent.parent)
    for name in ("kissing_N24", "kissing_N25"):
        manifest = json.loads((MANIFESTS / f"{name}.json").read_text())
        golden = json.loads((GOLDENS / f"{name}.json").read_text())
        del golden["manifest"]
        for mu in (0, -1, 9, None):
            manifest["parameters"].pop("mu", None)
            if mu is not None:
                manifest["parameters"]["mu"] = mu
            assert main(manifest_to_argv(manifest)) == (4 if name == "kissing_N25" else 0)
            rep = json.loads(capsys.readouterr().out)
            del rep["manifest"]
            assert rep == golden, (name, mu)


def test_kissing_check_precondition_failure(tmp_path, capsys):
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({"g": {"n": 4, "coeffs": [1.0]}, "T": [-1, 0.5], "M": 20}))
    code, rep = run(capsys, "kissing-check", str(f), "--t0", "-0.71", "--N", "25")
    assert code == 3
    assert "does not apply" in rep["error"]


def test_kissing_check_certifies_an_empty_cap(tmp_path, capsys):
    # two points 60 degrees apart do not fit in the cap e1.y <= -0.99: the
    # sweep prunes every box of m >= 2 by its corner matrix, and those caps
    # print null, never -Infinity
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({"g": {"n": 4, "coeffs": [-1.0]}, "T": [-1, 0.5], "M": 1.0}))
    code, rep = run(capsys, "kissing-check", str(f), "--t0=-0.99", "--N", "25")
    assert code == 4
    assert rep["cap_values"][:2] == [0.0, pytest.approx(-1.0)]
    assert rep["cap_values"][2:] == rep["charged_values"][2:] == [None] * 3
    assert (rep["best_value"], rep["best_m"]) == (0.0, 0)
    for sweep in rep["sweeps"][2:]:
        assert sweep["psd_prunes"] == sweep["boxes"] > 0 and sweep["lower"] is None
        assert sweep["ended"] == "decided"


def test_kissing_check_refuses_t0_above_rankin(capsys, monkeypatch):
    # above -1/sqrt(2) the cap has no capacity bound and its heights do not
    # decide feasibility; the double just above the one nearest -1/sqrt(2)
    # is refused, decided in exact rationals. t0 <= -1 leaves no cap, and
    # Fraction(-inf) would overflow. Each is refused before the sign sweep
    monkeypatch.setattr("spherecert.capopt.check_sign",
                        lambda *a, **k: pytest.fail("sign sweep ran"))
    for t0 in ("-0.7", repr(math.nextafter(-0.7071067811865476, 0.0)),
               "-1", "-1.5", "-inf", "nan"):
        code, rep = run(capsys, "kissing-check", f"{DATA}/g1_cert.json", f"--t0={t0}",
                        "--N", "25")
        assert code == 2, t0
        assert rep["error"].startswith("ParameterError: t0 must lie in (-1, -1/sqrt(2)]"), t0


def test_reports_are_reproducible(capsys):
    _, rep1 = run(capsys, "bound", f"{DATA}/g1_cert.json", "--N", "24")
    _, rep2 = run(capsys, "bound", f"{DATA}/g1_cert.json", "--N", "24")
    assert rep1 == rep2
    _, rep1 = run(capsys, "code-stats", "cross4", "--degree", "2")
    _, rep2 = run(capsys, "code-stats", "cross4", "--degree", "2")
    assert rep1 == rep2


def test_manifest_replay_is_byte_identical(tmp_path, capsys):
    # the manifest embedded in a report is enough to reproduce it exactly
    out = tmp_path / "report.json"
    code = main(["bound", f"{DATA}/g2_cert.json", "--N", "24", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    first = out.read_bytes()
    manifest = json.loads(first)["manifest"]
    argv = manifest_to_argv(manifest)
    assert main(argv) == 0
    replay_stdout = capsys.readouterr().out
    assert out.read_bytes() == first
    assert replay_stdout.encode() == first.rstrip(b"\n") + b"\n"


def test_stored_manifests_replay(capsys, monkeypatch):
    # every manifest reproduces its stored report byte for byte from the
    # repo root (inputs are repo-relative)
    monkeypatch.chdir(MANIFESTS.parent.parent)
    paths = sorted(MANIFESTS.glob("*.json"))
    assert len(paths) == 11
    for path in paths:
        code = main(manifest_to_argv(json.loads(path.read_text())))
        assert code == (4 if path.stem == "kissing_N25" else 0), path.stem
        golden = (GOLDENS / path.name).read_bytes()
        assert capsys.readouterr().out.encode() == golden, path.stem


def _replay_kissing(name: str, exit_code: int, threads: str) -> None:
    # the thread count is read when numpy loads, hence the fresh interpreter
    root = MANIFESTS.parent.parent
    code = ("import json, sys\n"
            "from spherecert.cli import main, manifest_to_argv\n"
            "sys.exit(main(manifest_to_argv(json.load(open(sys.argv[1])))))\n")
    env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(MANIFESTS / f"{name}.json")],
                          cwd=root, env=env, capture_output=True, timeout=300)
    assert proc.returncode == exit_code, proc.stderr.decode()
    assert proc.stdout == (GOLDENS / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name, exit_code", [("kissing_N24", 0), ("kissing_N25", 4)])
def test_kissing_manifests_replay_with_one_blas_thread(name, exit_code):
    _replay_kissing(name, exit_code, "1")


@pytest.mark.parametrize("name, exit_code", [("kissing_N24", 0), ("kissing_N25", 4)])
def test_kissing_manifests_replay_with_two_blas_threads(name, exit_code):
    # the sweep decides feasibility exactly by q(t), in elementwise floats
    # and Fractions, so no BLAS thread count moves a bit of the kissing reports
    _replay_kissing(name, exit_code, "2")


def _precondition_cert(tmp_path) -> str:
    # g = 1 > 0 on [t0, 1/2]: kissing-check refuses the cap reduction
    f = tmp_path / "positive_g.json"
    f.write_text(json.dumps({"g": {"n": 4, "coeffs": [1.0]}, "T": [-1, 0.5], "M": 20}))
    return str(f)


@pytest.mark.parametrize("argv, exit_code", [
    (["eval", f"{DATA}/g1.json", "--t", "-1"], 0),
    (["code-stats", "24cell", "--degree", "2"], 0),
    (["verify-cert", f"{DATA}/g1_cert.json", f"--interval={-np.sqrt(2) / 2},0.5",
      "--grid-step", "1e-4"], 0),
    (["bound", f"{DATA}/g2_cert.json", "--N", "24"], 0),
    (["kissing-check", f"{DATA}/g1_cert.json", f"--t0={-np.sqrt(2) / 2}", "--N", "24"], 0),
    (["kissing-check", None, "--t0=-0.71", "--N", "25"], 3),
], ids=["eval", "code-stats", "verify-cert", "bound", "kissing-check", "kissing-precondition"])
def test_out_file_holds_stdout_and_its_manifest_replays(tmp_path, capsys, argv, exit_code):
    argv = [arg if arg is not None else _precondition_cert(tmp_path) for arg in argv]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == exit_code
    stdout = capsys.readouterr().out.encode()
    first = out.read_bytes()
    assert first == stdout
    out.unlink()
    assert main(manifest_to_argv(json.loads(first)["manifest"])) == exit_code
    assert capsys.readouterr().out.encode() == first
    assert out.read_bytes() == first


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    # the report is not printed before the failed write: stdout holds only the error
    missing = tmp_path / "no-such-dir"
    for argv in (["bound", f"{DATA}/g2_cert.json", "--N", "24", "--out", f"{missing}/x.json"],
                 ["eval", f"{DATA}/g1.json", "--csv-out", f"{missing}/x.csv"]):
        code, rep = run(capsys, *argv)
        assert code == 2
        assert list(rep) == ["error"] and str(missing) in rep["error"]


_MATRIX_CERT = {"n": 4, "d": 1, "F0": 0.0, "H": [[[1.0, 0.0], [0.0, 1.0]], [[1.0]]]}


@pytest.mark.parametrize("verb, make, bad, good, field", [
    ("code-stats", lambda x: {"n": x, "points": np.eye(4).tolist()}, 4.7, 4.0,
     "code dimension"),
    ("verify-cert", lambda x: {**_MATRIX_CERT, "n": x}, 4.9, 4.0, "n"),
    ("verify-cert", lambda x: {**_MATRIX_CERT, "d": x}, 1.2, 1.0, "d"),
    ("verify-cert", lambda x: {"terms": [{"i": x, "j": 0, "k": 0, "a": 1.0}]}, 1.5, 1.0,
     "term exponent"),
], ids=["code-n", "cert-n", "cert-d", "term-exponent"])
def test_non_integral_dimensions_and_exponents_exit_2(tmp_path, capsys, verb, make, bad, good,
                                                       field):
    # a value is refused, not truncated; the same value as an integral float passes
    f = tmp_path / "input.json"
    f.write_text(json.dumps(make(bad)))
    code, rep = run(capsys, verb, str(f))
    assert code == 2
    assert f"{field} must be an integer, got {bad}" in rep["error"]
    f.write_text(json.dumps(make(good)))
    code, rep = run(capsys, verb, str(f))
    assert code == 0, rep


@pytest.mark.parametrize("argv", [
    ["code-stats", "24cell", "--degree", "100000000"],
    ["code-stats", "24cell", "--degree", str(cli.MAX_DEGREE + 1)],
    ["eval", f"{DATA}/g1.json", "--csv-out", "{csv}", "--samples", "10000000000"],
    ["eval", f"{DATA}/g1.json", "--csv-out", "{csv}", "--samples", str(cli.MAX_SAMPLES + 1)],
    ["eval", f"{DATA}/g1.json", "--csv-out", "{csv}", "--samples=-1"],
], ids=["degree-1e8", "degree-above-max", "samples-1e10", "samples-above-max", "samples-negative"])
def test_extreme_degree_and_samples_exit_2_before_building(tmp_path, capsys, monkeypatch, argv):
    # refused before the code or the expansion is loaded, so before any
    # row, moment or sample is built: a JSON error, nothing on stderr
    def refuse(*args):
        raise AssertionError("an input was loaded")

    for name in ("_load_code", "_load_json"):
        monkeypatch.setattr(cli, name, refuse)
    csv = tmp_path / "x.csv"
    assert main([arg.format(csv=csv) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert list(strict_json(out)) == ["error"] and "must be in [0, " in out
    assert err == "" and not csv.exists()


def test_degree_and_samples_bounds_are_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DEGREE", 3)
    monkeypatch.setattr(cli, "MAX_SAMPLES", 5)
    code, rep = run(capsys, "code-stats", "cross4", "--degree", "3")
    assert code == 0 and len(rep["moments"]) == 4
    assert run(capsys, "code-stats", "cross4", "--degree", "4")[0] == 2
    csv = tmp_path / "x.csv"
    assert run(capsys, "eval", f"{DATA}/g1.json", "--csv-out", str(csv), "--samples", "5")[0] == 0
    assert len(csv.read_text().splitlines()) == 6
    assert run(capsys, "eval", f"{DATA}/g1.json", "--samples", "6")[0] == 2


def test_main_calls_in_turn_match_fresh_interpreters(tmp_path, capsys):
    # the parser is built once per process and shared by every main call:
    # verbs run one after another, with usage errors between them, print
    # what each prints in a fresh interpreter, and a repeatable flag of one
    # call does not reach the next
    cert = tmp_path / "matrix.json"
    cert.write_text(json.dumps(_MATRIX_CERT))
    calls = [
        ["code-stats", "24cell", "--interval=-1,-0.45", "--interval=0.35,0.5", "--degree", "3"],
        ["code-stats"],
        ["eval", f"{DATA}/g1.json", "--t", "-1", "--t", "0.5"],
        ["code-stats", "24cell", "--degree", "3"],
        ["eval", f"{DATA}/g1.json", "--bogus"],
        ["verify-cert", str(cert), "--interval=0,0.5"],
        ["bound", f"{DATA}/g2_cert.json"],
        ["code-stats", "cross4", "--degree", "x"],
        ["bound", f"{DATA}/g2_cert.json", "--N", "24"],
        ["eval", f"{DATA}/g1.json", "--t", "0.25"],
        ["code-stats", "24cell", "--degree", "3"],
    ]
    root = MANIFESTS.parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(root / "src"), os.environ.get("PYTHONPATH")]))}
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "spherecert.cli", *argv], cwd=root,
                               env=env, capture_output=True, timeout=120)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out.encode(), err) == (fresh.returncode, fresh.stdout, ""), argv
    assert cli._build_parser() is cli._build_parser()
    _, rep = run(capsys, "code-stats", "24cell", "--degree", "3")
    assert rep["interval_masses"] == [] and "interval" not in rep["manifest"]["parameters"]
