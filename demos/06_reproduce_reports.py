"""Replay every stored manifest and summarize the headline numbers.

One command reproduces the whole story: the certificate endpoint values,
the 24-cell distribution with its sharp interval masses, the four B(N)
values against the coefficient bounds, the certified sign conditions,
and the cap-configuration verdicts at N = 25 (contradiction) and N = 24
(inconclusive). Reports are deterministic given their manifest: each one
is compared with its stored golden report in demos/goldens/, byte for
byte.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from spherecert.cli import main, manifest_to_argv

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "demos" / "goldens"
os.chdir(ROOT)  # manifests reference bundled inputs relative to the repo root


def kissing_summary(r) -> str:
    w = r["cap_lower"]
    return (f"cap bounds {w['value']:.4f} (witness, m={w['m']}) to {r['best_value']:.4f}, "
            f"charged U' = {r['charged_best']:.4f} vs B({r['N']}) = {r['bound']:.4f} -> "
            f"{r['verdict']}, M_max = {r['M_max']:.4f}")


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
    "kissing_N25": kissing_summary,
    "kissing_N24": kissing_summary,
}


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
    elif buf.getvalue() != (GOLDENS / f"{path.stem}.json").read_text():
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
