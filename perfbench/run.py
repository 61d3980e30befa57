"""spherecert benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {replay,triple,twopoint} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a checkout. A closed loop: one caller runs each
operation after the previous one finished. Each pass runs in a fresh
interpreter, so caches start cold as they do for a CLI user.

--trace 0 measures set-up (median over fresh launches that import
spherecert.cli) and then runs passes until the next one would overrun
--seconds (at least one); it prints setup_s, pass_s and peak_rss_mb,
each a median. --trace 1 runs one untraced and one traced pass and prints
the per-layer figures of the traced one, the tracing overhead, CPU time,
and import times from `python -X importtime`. The last line of standard
output is the JSON result; problems and failed operations go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("replay", "triple", "twopoint")
# One BLAS thread: the passes make small BLAS calls from one Python
# thread, and on a 2-core machine a second thread made them slower and
# less steady.
BLAS_THREADS = 1
# Set-up launches per run: four before the passes and three after them,
# so that the median samples the machine across the whole run.
SETUP_LAUNCHES = (4, 3)
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT = 150
PROBE = "import time, spherecert.cli; print(time.monotonic())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Cache bytecode in the checkout, as an installed package has it; the
    # first, untimed launch of a run writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        fail(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def launch_to_ready(env: dict) -> float:
    """Seconds from starting an interpreter to spherecert.cli imported."""
    start = time.monotonic()
    proc = run_child([sys.executable, "-c", PROBE], env)
    return float(proc.stdout.split()[-1]) - start


def import_times(env: dict) -> dict:
    """Import time of spherecert's own modules (self time) and of numpy and
    scipy (cumulative, top-level entries only), from -X importtime."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import spherecert.cli"], env)
    out = {"spherecert": 0, "numpy": 0, "scipy": 0}
    stack: list[str] = []  # package of the enclosing entries, by depth
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[0].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(parts[0]), int(parts[1])))
    # importtime prints children before their parent: walk backwards so a
    # parent is seen first.
    for depth, name, self_us, cum_us in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        if top == "spherecert":
            out["spherecert"] += self_us
        elif top in ("numpy", "scipy") and top not in stack:
            out[top] += cum_us
        stack.append(top)
    return {k: v / 1e6 for k, v in out.items()}


def run_pass(args, env: dict, trace: int, spans_out: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--trace", str(trace)]
    if spans_out:
        argv += ["--spans-out", str(spans_out)]
    res = json.loads(run_child(argv, env).stdout.strip().splitlines()[-1])
    for line in res["problems"]:
        print(f"problem: {line}", file=sys.stderr)
    for line in res["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    return res


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    for need in ("src/spherecert/cli.py", "demos/manifests"):
        if not (ROOT / need).exists():
            fail(f"{need} is missing: run from the root of a spherecert checkout")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    env = child_env()
    # Untimed: on a fresh checkout this writes the bytecode of spherecert
    # and of the worker's modules, so every measured launch and pass loads
    # it the same way.
    run_child([sys.executable, "-c", "import spherecert.cli, workloads, spans"],
              dict(env, PYTHONPATH=f"{env['PYTHONPATH']}{os.pathsep}{HERE}"))

    passes = []
    if args.trace:
        imports = [import_times(env) for _ in range(IMPORTTIME_LAUNCHES)]
        plain = run_pass(args, env, 0)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        traced = run_pass(args, env, 1, out_dir / f"spans-{args.workload}-{args.seed}.json")
        passes = [plain, traced]
        values = dict(traced["layers"])
        for mod in ("spherecert", "scipy", "numpy"):
            values[f"setup.import_s.{mod}"] = statistics.median(i[mod] for i in imports)
        values["process.cpu_s"] = plain["cpu_s"]
        values["trace.overhead_s"] = traced["pass_s"] - plain["pass_s"]
    else:
        start = time.monotonic()
        setup = [launch_to_ready(env) for _ in range(SETUP_LAUNCHES[0])]
        while True:
            t = time.monotonic()
            passes.append(run_pass(args, env, 0))
            last = time.monotonic() - t
            closing = SETUP_LAUNCHES[1] * statistics.median(setup)
            if time.monotonic() - start + last + closing > args.seconds:
                break  # another pass would overrun the run
        setup += [launch_to_ready(env) for _ in range(SETUP_LAUNCHES[1])]
        values = {
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(json.dumps({
        "correct": not any(p["problems"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
