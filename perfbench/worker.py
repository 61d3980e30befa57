"""One pass of one workload, in the fresh interpreter run.py starts for it.

Builds the seeded inputs, runs every operation once in order (timed as a
whole, with or without spans), then judges each output. Prints one JSON
line: operations attempted and failed, problems found, pass wall time,
CPU time and peak resident memory, and with --trace the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import spherecert
    if Path(spherecert.__file__).resolve().parent != ROOT / "src" / "spherecert":
        print(f"spherecert imported from {spherecert.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        # The wrappers go in before the operations are built, so that an
        # operation holding a function or bound method holds the wrapper.
        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
        ops = workloads.WORKLOADS[args.workload](args.seed, Path(work), workloads.SIZES[args.size])
        tracer.spans.clear()  # spans recorded while building the inputs
        results = []
        op_first = []  # index of the first span of each operation
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op in ops:
            op_first.append(len(tracer.spans))
            try:
                results.append((True, op.call()))
            except Exception as exc:  # counted as a failed operation below
                results.append((False, f"{type(exc).__name__}: {exc}"))
        pass_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_spans = list(tracer.spans)  # judges may call traced functions too

        problems, failures = [], []
        for op, (ok, out) in zip(ops, results):
            if not ok:
                failures.append(f"{op.name}: raised {out}")
                continue
            try:
                found = op.judge(out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems.append(f"{op.name}: malformed output ({type(exc).__name__}: {exc})")
                continue
            problems.extend(f"{op.name}: {p}" for p in found.problems)
            if found.fault:
                failures.append(f"{op.name}: {found.fault}")

    result = {"attempted": len(ops), "failed": len(failures), "failures": failures,
              "problems": problems, "pass_s": pass_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        layers = spans.layer_metrics(pass_spans)
        layers["cli.report_bytes"] = sum(len(out[1]) for op, (ok, out) in zip(ops, results)
                                         if ok and op.verb)
        result["layers"] = layers
        if args.spans_out:
            ends = op_first[1:] + [len(pass_spans)]
            Path(args.spans_out).write_text(json.dumps({
                "ops": [{"name": op.name, "first": a, "end": b}
                        for op, a, b in zip(ops, op_first, ends)],
                "spans": [s.to_dict() for s in pass_spans]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
