"""Replay every stored manifest and summarize the headline numbers.

One command reproduces the whole story: the certificate endpoint values,
the 24-cell distribution with its sharp interval masses, the four B(N)
values against the coefficient bounds, the certified sign conditions,
and the cap-configuration verdicts at N = 25 (contradiction) and N = 24
(inconclusive). Reports are deterministic given their manifest: each one
is compared with its stored golden report in demos/goldens/, byte for byte
except the two kissing reports. Their SLSQP polish moves the last bits of
the multistart numbers with the BLAS thread count, so those reports must
have the golden's exact key set and equal it on every key but these: the
cap values, their charged values and the two maxima are compared to 1e-9,
and the polish counts by presence only.
"""

import io
import json
import math
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from spherecert.cli import main, manifest_to_argv

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "demos" / "goldens"
MULTISTART = ("cap_values", "charged_values", "best_value", "charged_best")
os.chdir(ROOT)  # manifests reference bundled inputs relative to the repo root

summaries = {
    "eval_g1_endpoint": lambda r: f"g1(-1) = {r['values'][0]['value']:.4f}",
    "eval_g2_endpoints": lambda r: (
        f"g2(-1) = {r['values'][0]['value']:.4f}, g2(1) = {r['values'][1]['value']:.4f}"
    ),
    "stats_24cell": lambda r: (
        "distribution "
        + str({e["t"]: e["mass"] for e in r["distance_distribution"]})
        + ", interval masses "
        + str([m["mass"] for m in r["interval_masses"]])
    ),
    "bound_g1_N24": lambda r: f"B1(24) = {r['sdp_bound']:.4f} (coefficient bound n/a)",
    "bound_g1_N25": lambda r: f"B1(25) = {r['sdp_bound']:.4f} (coefficient bound n/a)",
    "bound_g2_N24": lambda r: (
        f"B2(24) = {r['sdp_bound']:.4f} > {r['lp_bound']:.4f}, stronger: {r['sdp_stronger']}"
    ),
    "bound_g2_N25": lambda r: (
        f"B2(25) = {r['sdp_bound']:.4f} > {r['lp_bound']:.4f}, stronger: {r['sdp_stronger']}"
    ),
    "verify_g1_sign": lambda r: (
        f"max g1 on [-sqrt2/2, 1/2] <= {r['checks'][0]['worst_violation']:.2e} (certified)"
    ),
    "verify_g2_sign": lambda r: (
        f"max g2 on [-0.73, 1/2] <= {r['checks'][0]['worst_violation']:.2e} (certified)"
    ),
    "kissing_N25": lambda r: (
        f"best cap value {r['best_value']:.4f} at m={r['best_m']}, charged U' = "
        f"{r['charged_best']:.4f} vs B(25) = {r['bound']:.4f} -> {r['verdict']}"
    ),
    "kissing_N24": lambda r: (
        f"best cap value {r['best_value']:.4f} at m={r['best_m']}, charged U' = "
        f"{r['charged_best']:.4f} vs B(24) = {r['bound']:.4f} -> {r['verdict']}"
    ),
}


def matches_golden(stem: str, text: str) -> bool:
    golden = (GOLDENS / f"{stem}.json").read_text()
    if not stem.startswith("kissing"):
        return text == golden
    got, want = json.loads(text), json.loads(golden)

    def close(key) -> bool:
        a, b = (x if isinstance(x, list) else [x] for x in (got[key], want[key]))
        return len(a) == len(b) and all(
            math.isclose(x, y, rel_tol=0.0, abs_tol=1e-9) for x, y in zip(a, b))

    exact = [key for key in want if key not in MULTISTART + ("polish_counts",)]
    return (got.keys() == want.keys() and all(got[key] == want[key] for key in exact)
            and all(close(key) for key in MULTISTART))


failures = 0
for path in sorted((ROOT / "demos" / "manifests").glob("*.json")):
    manifest = json.loads(path.read_text())
    argv = manifest_to_argv(manifest)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    report = json.loads(buf.getvalue())
    expected_ok = {0, 4} if manifest["command"] == "kissing-check" else {0}
    if code not in expected_ok:
        status = f"EXIT {code}"
    elif not matches_golden(path.stem, buf.getvalue()):
        status = "DIFFERS FROM GOLDEN"
    else:
        status = "ok"
    if status != "ok":
        failures += 1
    line = summaries.get(path.stem, lambda r: "")(report)
    print(f"[{status}] {path.stem}: {line}")

if failures:
    print(f"\n{failures} manifest(s) did not reproduce cleanly")
    sys.exit(1)
print("\nall manifests reproduced")
