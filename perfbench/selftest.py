"""Self-test of the benchmark: every judge rejects a corrupted output, the
traced pass sees every operation, and a smoke size of each workload runs
end to end in seconds.

    python3 perfbench/selftest.py

Runs the smoke operations once, checks that their real outputs pass, then
feeds each judge a copy with one number corrupted and requires a reported
problem. Exits 1 if a corruption goes unnoticed, an operation records no
span of its own, or a smoke run fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def edit_json(fn):
    """Corrupt a CLI output (exit code, JSON text) through fn(report)."""
    def corrupt(out):
        rep = json.loads(out[1])
        fn(rep)
        return out[0], json.dumps(rep)
    return corrupt


def check_by(prefix, **changes):
    """Change fields of the verify-cert check whose condition starts with prefix."""
    def fn(rep):
        next(c for c in rep["checks"] if c["condition"].startswith(prefix)).update(changes)
    return fn


def set_mass(t, mass):
    def fn(rep):
        next(e for e in rep["distance_distribution"] if abs(e["t"] - t) < 1e-6)["mass"] = mass
    return fn


def move_point(res):
    Y = res.configuration.copy()
    Y[0] = -Y[0]  # the antipode lies outside the cap
    return dataclasses.replace(res, configuration=Y)


def flip_psd(rep):
    rep = copy.deepcopy(rep)
    rep.checks["H0-F0*E0"].ok = True
    rep.valid = all(c.ok for c in rep.checks.values())
    return rep


CASES = [
    # (workload, operation, corruption, how)
    ("replay", "verify_g1_sign", "lowered certified bound",
     edit_json(lambda r: r["checks"][0].update(worst_violation=1e-5, sample_max=1e-5))),
    ("replay", "verify_g2_sign", "sample maximum off its location",
     edit_json(lambda r: r["checks"][0].update(sample_max=r["checks"][0]["sample_max"] - 1e-4))),
    ("replay", "bound_g2_N25", "altered B(N)",
     edit_json(lambda r: r.update(sdp_bound=r["sdp_bound"] + 1e-6))),
    ("replay", "bound_g2_N24", "altered coefficient bound",
     edit_json(lambda r: r.update(lp_bound=r["lp_bound"] * 1.001))),
    ("replay", "kissing_N24", "altered B(N) in a kissing report",
     edit_json(lambda r: r.update(bound=r["bound"] - 1e-4))),
    ("replay", "kissing_N24", "lowered certified sign bound",
     edit_json(lambda r: r["sign_check"].update(worst_violation=0.0, sample_max=0.0))),
    ("replay", "kissing_N25", "verdict against the cap values",
     edit_json(lambda r: r.update(verdict="INCONCLUSIVE"))),
    ("replay", "stats_24cell", "wrong 24-cell mass", edit_json(set_mass(0.5, 7.0))),
    ("replay", "stats_24cell", "wrong 24-cell moment",
     edit_json(lambda r: r["moments"][4].update(value=r["moments"][4]["value"] + 1e-3))),
    ("replay", "eval_g2_endpoints", "wrong expansion value",
     edit_json(lambda r: r["values"][1].update(value=r["values"][1]["value"] + 1e-6))),
    ("replay", "cap_max_m4", "infeasible cap configuration", move_point),
    ("replay", "cap_max_m4", "cap value off its configuration",
     lambda res: dataclasses.replace(res, value=res.value + 1e-6)),
    ("triple", "verify-cert d=4 valid certified", "lowered certified triple bound",
     edit_json(check_by("triple", worst_violation=-1e3, sample_max=-1e3))),
    ("triple", "verify-cert d=4 valid certified", "lowered certified pair bound",
     edit_json(check_by("pair", worst_violation=-1e3, sample_max=-1e3))),
    ("triple", "verify-cert d=4 invalid sampled", "invalid certificate accepted",
     edit_json(lambda r: [c.update(**{"pass": True}) for c in r["checks"]] and r.update(ok=True))),
    ("triple", "verify-cert d=4 invalid sampled", "PSD witness not negative",
     edit_json(lambda r: next(c for c in r["checks"] if c["condition"] == "psd")
               ["checks"]["H0-F0*E0"].update(witness=[0.0] * 5))),
    ("triple", "certificate_valid d=4 invalid", "PSD verdict against eigvalsh", flip_psd),
    ("triple", "F(1,1,1) d=4 valid", "F(1,1,1) off the sum of H_0", lambda v: v + 1e-6),
    ("triple", "triple_sum d=4 valid 24cell", "triple sum off the independent sum",
     lambda v: v * (1 + 1e-6)),
    ("twopoint", "check_sign g1", "lowered certified bound",
     lambda r: dataclasses.replace(r, worst_violation=r.sample_max - 1e-4,
                                   sample_max=r.sample_max - 1e-4)),
    ("twopoint", "check_pair_condition", "sample maximum off its location",
     lambda r: dataclasses.replace(r, sample_max=r.sample_max - 1e-3,
                                   worst_violation=r.worst_violation)),
    ("twopoint", "r_value N=100", "R_f below c0 N - f(1)", lambda v: -1e6),
    ("twopoint", "moment k=3", "negative moment", lambda v: -1.0),
    ("twopoint", "energy N=100", "energy off the independent sum", lambda v: v + 1e-3),
    ("twopoint", "expansion eval degree=60", "wrong bulk value",
     lambda a: np.where(np.arange(a.size) % 2 == 0, a + 1e-6, a)),
    ("twopoint", "code-stats rotated_24cell", "wrong 24-cell mass in the rotated copy",
     edit_json(set_mass(-0.5, 9.0))),
    ("twopoint", "code-stats random_code", "total mass not N - 1",
     edit_json(lambda r: r.update(total_mass=r["total_mass"] + 0.01))),
]


def corruption_tests() -> int:
    bad = 0
    size = workloads.SIZES["smoke"]
    with tempfile.TemporaryDirectory() as work:
        for name in workloads.WORKLOADS:
            ops = {op.name: op for op in workloads.WORKLOADS[name](0, Path(work), size)}
            outputs = {n: op.call() for n, op in ops.items()}
            for n, op in ops.items():
                found = op.judge(outputs[n])
                if found.problems:
                    bad += 1
                    print(f"FAIL {name}/{n}: real output judged wrong: {found.problems}")
            for workload, opname, what, corrupt in CASES:
                if workload != name:
                    continue
                try:
                    found = ops[opname].judge(corrupt(outputs[opname]))
                    caught = bool(found.problems)
                except (KeyError, TypeError, ValueError, IndexError):
                    caught = True  # a malformed output is reported as a problem too
                print(f"{'ok  ' if caught else 'FAIL'} {name}/{opname}: {what} "
                      f"{'rejected' if caught else 'NOT rejected'}")
                bad += not caught
    return bad


# The span each operation must record with no span around it, by the
# start of the operation's name.
TOP_SPANS = {
    "replay": [("cap_max", "capopt.cap_max"), ("", "cli")],
    "triple": [("verify-cert", "cli"), ("certificate_valid", "threepoint.psd"),
               ("F(1,1,1)", "threepoint.eval"), ("triple_sum", "threepoint.triple_sum")],
    "twopoint": [("load_expansion", "data.load"), ("check_sign", "verify.sign"),
                 ("check_pair", "verify.pair"), ("check_dd_pair", "verify.pair"),
                 ("gegenbauer_eval", "gegenbauer.eval"), ("expansion eval", "gegenbauer.eval"),
                 ("energy", "codes.energy"), ("r_value", "codes.energy"),
                 ("moment", "codes.moment"), ("code-stats", "cli")],
}


def span_tests() -> int:
    """A traced smoke pass of the worker sees every operation: each one
    records exactly the one outermost span its entry point should, and the
    bulk evaluations count all their points."""
    bad = 0
    size = workloads.SIZES["smoke"]
    with tempfile.TemporaryDirectory() as work:
        for name in workloads.WORKLOADS:
            out = Path(work) / f"spans-{name}.json"
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload",
                            name, "--seed", "0", "--size", "smoke", "--trace", "1",
                            "--spans-out", str(out)], cwd=ROOT, env=run.child_env(),
                           capture_output=True, check=True, timeout=300)
            rec = json.loads(out.read_text())
            for op in rec["ops"]:
                top = [s for s in rec["spans"][op["first"]:op["end"]] if s["parent"] == -1]
                want = next(span for prefix, span in TOP_SPANS[name]
                            if op["name"].startswith(prefix))
                ok = [s["name"] for s in top] == [want]
                if ok and want == "gegenbauer.eval":
                    ok = top[0]["points"] == size["bulk_points"]
                print(f"{'ok  ' if ok else 'FAIL'} traced {name}/{op['name']}: "
                      f"{[(s['name'], s.get('points')) for s in top]}")
                bad += not ok
    return bad


def smoke_runs() -> int:
    bad = 0
    for name in workloads.WORKLOADS:
        t = time.monotonic()
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                               name, "--seed", "0", "--seconds", "1", "--trace", "1",
                               "--size", "smoke"], cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        ok = proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} smoke {name} traced in {time.monotonic() - t:.1f} s")
        if not ok:
            print(proc.stderr[-2000:])
        bad += not ok
    return bad


if __name__ == "__main__":
    failures = corruption_tests() + span_tests() + smoke_runs()
    print("all checks reject their corruptions" if not failures else f"{failures} failures")
    sys.exit(1 if failures else 0)
