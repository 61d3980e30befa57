import json
from pathlib import Path

import numpy as np
import pytest

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
    # no triple of products in [-1, -0.9] is realizable, so D3(T) holds no
    # grid point; the triple check must not pass with a maximum of -inf
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
        assert "no grid point" in rep["error"]


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


def test_non_finite_input_exits_2(tmp_path, capsys):
    cert = json.loads(Path(f"{DATA}/g1_cert.json").read_text())
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({**cert, "M": float("nan")}))
    code, rep = run(capsys, "bound", str(f), "--N", "25")
    assert code == 2
    assert "M must be finite" in rep["error"]
    cert["g"]["coeffs"][3] = float("nan")
    f.write_text(json.dumps(cert))
    code, rep = run(capsys, "kissing-check", str(f), "--t0", str(-np.sqrt(2) / 2),
                    "--mu", "1", "--N", "25", "--starts", "4")
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
                     "--mu", "1", "--N", "25", "--starts", "4", f"--margin={margin}"]) == 2
        out = capsys.readouterr().out
        assert "NaN" not in out and "margin must be finite" in json.loads(out)["error"]


def test_out_of_range_numbers_exit_2(tmp_path, capsys, monkeypatch):
    # NaN and negative tolerances, a negative moment degree and a negative
    # cap capacity are validation failures, never a pass or a traceback
    rng = np.random.default_rng(60)
    points = rng.normal(size=(6, 4))
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"n": 4, "points": points.tolist()}))
    # mu is checked before the certified sign sweep starts
    monkeypatch.setattr("spherecert.capopt.check_sign", None)
    for argv in (["verify-cert", f"{DATA}/g1_cert.json", "--tol", "nan"],
                 ["verify-cert", f"{DATA}/g1_cert.json", "--psd-tol", "nan"],
                 ["verify-cert", f"{DATA}/g1_cert.json", "--tol=-1e-3"],
                 ["code-stats", str(code), "--tol", "nan"],
                 ["code-stats", str(code), "--tol", "0"],
                 ["code-stats", "24cell", "--tol=-1"],
                 ["code-stats", "24cell", "--tol", "inf"],
                 ["code-stats", "24cell", "--degree=-3"],
                 ["kissing-check", f"{DATA}/g1_cert.json", f"--t0={-np.sqrt(2) / 2}",
                  "--mu=-1", "--N", "25"]):
        assert main(argv) == 2, argv
        out = capsys.readouterr().out
        assert "NaN" not in out and "error" in json.loads(out), argv
    assert "mu must be >= 0" in json.loads(out)["error"]


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
        "--t0", str(-np.sqrt(2) / 2), "--mu", "4", "--N", "25",
        "--starts", "40", "--seed", "3",
    )
    assert code == 4
    assert rep["verdict"] == "CONTRADICTION"
    assert rep["best_value"] == pytest.approx(0.0266, abs=1e-3)
    assert rep["best_m"] == 2
    assert rep["charged_best"] < rep["bound"] - rep["margin"]


def test_kissing_check_inconclusive(capsys):
    code, rep = run(
        capsys, "kissing-check", f"{DATA}/g1_cert.json",
        "--t0", str(-np.sqrt(2) / 2), "--mu", "1", "--N", "24",
        "--starts", "10", "--seed", "3",
    )
    assert code == 0
    assert rep["verdict"] == "INCONCLUSIVE"


def test_kissing_check_precondition_failure(tmp_path, capsys):
    f = tmp_path / "cert.json"
    f.write_text(json.dumps({"g": {"n": 4, "coeffs": [1.0]}, "T": [-1, 0.5], "M": 20}))
    code, rep = run(capsys, "kissing-check", str(f), "--t0", "-0.71", "--mu", "1", "--N", "25")
    assert code == 3
    assert "does not apply" in rep["error"]


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
    # every non-kissing manifest reproduces its stored report byte for byte
    # from the repo root (inputs are repo-relative); the kissing reports'
    # last bits depend on the BLAS thread count, so demo 06 compares those
    monkeypatch.chdir(MANIFESTS.parent.parent)
    paths = [p for p in sorted(MANIFESTS.glob("*.json")) if not p.stem.startswith("kissing")]
    assert len(paths) == 9
    for path in paths:
        code = main(manifest_to_argv(json.loads(path.read_text())))
        assert code == 0, path.stem
        golden = (GOLDENS / path.name).read_bytes()
        assert capsys.readouterr().out.encode() == golden, path.stem
