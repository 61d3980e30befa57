"""Command-line front end.

Verbs: eval, code-stats, verify-cert, bound, kissing-check. Each verb
returns its report and exit code; main alone attaches the run manifest
that produced the report, writes it to --out and prints it as JSON on
stdout, so a report can be reproduced byte-for-byte from its own contents.

Exit codes: 0 all requested checks pass; 2 input validation or schema
failure, a RuntimeWarning while the verb runs (numpy's overflow or
invalid-value warning, raised as an error whatever the warnings filter),
or an output path that cannot be written (stdout then holds only the
JSON error); 3 certificate failure; 4 contradiction found
(kissing-check's successful mathematical outcome, flagged distinctly for
scripting). A reader that closes stdout before the report is printed
whole (`| head`) leaves the exit code as it was, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from functools import cache

import numpy as np

from . import __version__
from .bounds import DDCertificate, dd_bound, lp_rg_lower
from .capopt import kissing_check
from .codes import SphericalCode, builtin_code, distance_distribution, moment
from .errors import PreconditionError
from .gegenbauer import GegenbauerExpansion
from .threepoint import TripleCertificate, certificate_valid
from .verify import (
    CERTIFIED,
    DEFAULT_STEP_1D,
    DEFAULT_STEP_3D,
    SAMPLED,
    DomainSpec,
    check_dd_pair_condition,
    check_sign,
    check_triple_condition,
    triple_cells,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_CONTRADICTION = 4

# Largest code-stats --degree. A built-in code's moments use the exact
# monomial rows of G_0..G_degree, which the process keeps: at degree 512,
# code-stats 24cell builds 43 MB of them in 3.2 s (1024: 94 MB, 14 s).
MAX_DEGREE = 512
# Largest eval --samples. A CSV sample costs about 92 bytes of memory and
# 43 bytes of file: 10^6 samples take 2.6 s and 122 MB (4 * 10^6: 9.6 s, 397 MB).
MAX_SAMPLES = 10**6


_POSITIONAL_PARAMS = ("expansion", "code", "cert")


def manifest_to_argv(manifest: dict) -> list[str]:
    """Reconstruct the argv that produced a report from its manifest.

    Re-running the result reproduces the report byte for byte (reports
    carry no timestamps).
    """
    argv = [manifest["command"]]
    argv.extend(manifest["inputs"])
    for key, value in sorted(manifest["parameters"].items()):
        if key in _POSITIONAL_PARAMS:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            for item in value:
                if isinstance(item, list):  # interval pairs
                    argv.append(f"{flag}={item[0]},{item[1]}")
                else:
                    argv.append(f"{flag}={item}")
        else:
            argv.append(f"{flag}={value}")
    if manifest.get("outputs") and manifest["outputs"] != "stdout":
        argv.append(f"--out={manifest['outputs']}")
    return argv


def _manifest(args) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command", "out") and v is not None
    }
    return {
        "command": args.command,
        "inputs": [params[k] for k in _POSITIONAL_PARAMS if k in params],
        "parameters": params,
        "outputs": args.out or "stdout",
        "seed": None,  # no verb draws random numbers
        "tool_version": __version__,
    }


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


class SystemExit2(Exception):
    """Input validation failure; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise SystemExit2, so that they
    reach stdout as a JSON error like every other validation failure.
    Subparsers inherit the class; --help and --version still exit 0."""

    def error(self, message):
        raise SystemExit2(f"{self.prog}: {message}")


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in text.split(","))
    except ValueError:
        raise SystemExit2(f"interval must be 'a,b', got {text!r}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise SystemExit2(f"interval ends must be finite, got {text!r}")
    return a, b


def _tolerance(text: str) -> float:
    """argparse type of the float tolerances: a finite number >= 0."""
    x = float(text)
    if not 0.0 <= x < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return x


# ---------------------------------------------------------------------------


def _cmd_eval(args) -> tuple[dict, int]:
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise SystemExit2(f"--samples must be in [0, {MAX_SAMPLES}], got {args.samples}")
    exp = GegenbauerExpansion.from_dict(_load_json(args.expansion))
    rows = [{"t": t, "value": exp.eval(t)} for t in (args.t or [])]
    report = {
        "n": exp.n,
        "degree": exp.degree,
        "value_at_one": exp.at_one(),
        "values": rows,
    }
    if args.csv_out:
        ts = np.linspace(-1.0, 1.0, args.samples)
        vals = exp.eval(ts)
        with open(args.csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value"])
            writer.writerows(zip(ts.tolist(), vals.tolist()))
        report["csv"] = args.csv_out
    return report, EXIT_OK


def _load_code(spec: str) -> SphericalCode:
    if spec.endswith(".json"):
        return SphericalCode.from_dict(_load_json(spec), name=spec)
    return builtin_code(spec)


def _cmd_code_stats(args) -> tuple[dict, int]:
    if not 0 <= args.degree <= MAX_DEGREE:
        raise SystemExit2(f"--degree must be in [0, {MAX_DEGREE}], got {args.degree}")
    code = _load_code(args.code)
    dist = distance_distribution(code, tol=args.tol)
    entries = [
        {"t": float(t), "mass": float(m)} for t, m in sorted(dist.entries.items())
    ]
    intervals = [
        {"interval": [a, b], "mass": float(dist.interval_mass(a, b))}
        for a, b in (args.interval or [])
    ]
    return {
        "name": code.name,
        "N": code.size,
        "n": code.n,
        "inner_products": [e["t"] for e in entries],
        "distance_distribution": entries,
        "distribution_exact": dist.exact,
        "total_mass": float(dist.total_mass()),
        "moments": [{"k": k, "value": moment(code, k)} for k in range(args.degree + 1)],
        "interval_masses": intervals,
    }, EXIT_OK


def _cmd_verify_cert(args) -> tuple[dict, int]:
    obj = _load_json(args.cert)
    checks: list[dict] = []
    notes: list[str] = []
    if "g" in obj and "T" in obj:
        cert = DDCertificate.from_dict(obj)
        mode = CERTIFIED if args.mode == "certified" else SAMPLED
        step = DEFAULT_STEP_1D if args.grid_step is None else args.grid_step
        spec = DomainSpec(grid_step=step, mode=mode)
        if cert.mode == "full":
            # a too-fine triple step is refused before any sweep runs
            spec3 = DomainSpec(grid_step=args.triple_grid_step, mode=mode)
            triple_cells(cert.T, spec3.grid_step)
        intervals = args.interval or [cert.T]
        for iv in intervals:
            rep = check_sign(cert.g, iv, spec, refute=args.tol)
            checks.append({**rep.to_dict(), "interval": list(iv),
                           "pass": rep.worst_violation <= args.tol})
        if cert.mode == "full":
            rep = check_dd_pair_condition(cert.h, cert.h0, cert.F, cert.g, cert.T, spec,
                                          refute=args.tol)
            checks.append({**rep.to_dict(), "pass": rep.worst_violation <= args.tol})
            rep = check_triple_condition(cert.F, cert.g, cert.T, spec3, refute=args.tol)
            checks.append({**rep.to_dict(), "pass": rep.worst_violation <= args.tol})
            if cert.F.form == "matrix":
                psd = certificate_valid(cert.F, tol=args.psd_tol)
                checks.append({"condition": "psd", **psd.to_dict(), "pass": psd.valid})
        if cert.mode == "scalar-M":
            notes.append(
                "M is an externally computed constant; only conditions on g are checkable"
            )
    elif "H" in obj:
        cert = TripleCertificate.from_dict(obj)
        psd = certificate_valid(cert, tol=args.psd_tol)
        checks.append({"condition": "psd", **psd.to_dict(), "pass": psd.valid})
    elif "terms" in obj:
        TripleCertificate.from_dict(obj)
        notes.append("explicit-form certificate: no PSD data to check")
    else:
        raise SystemExit2(
            f"{args.cert}: not a recognizable certificate (need 'g'+'T', 'H' or 'terms')"
        )
    ok = all(c.get("pass", True) for c in checks)
    return {"checks": checks, "notes": notes, "ok": ok}, (EXIT_OK if ok else EXIT_CERTIFICATE)


def _cmd_bound(args) -> tuple[dict, int]:
    cert = DDCertificate.from_dict(_load_json(args.cert))
    b = dd_bound(cert, args.N)
    report = {
        "N": args.N,
        "M": cert.m_constant(),
        "M_provenance": cert.m_provenance,
        "sdp_bound": b,
    }
    try:
        lp = lp_rg_lower(cert.g, args.N)
    except PreconditionError:
        report["lp_bound"] = None
        report["lp_note"] = (
            "not applicable: the expansion has negative coefficients above degree 0"
        )
        report["sdp_stronger"] = True
    else:
        report["lp_bound"] = lp
        report["sdp_stronger"] = bool(b > lp)
    return report, EXIT_OK


def _cmd_kissing_check(args) -> tuple[dict, int]:
    cert = DDCertificate.from_dict(_load_json(args.cert))
    if cert.mode != "scalar-M":
        raise SystemExit2("kissing-check needs a scalar-M certificate")
    try:
        rep = kissing_check(cert.g, cert.M, args.t0, args.N, margin=args.margin)
    except PreconditionError as exc:
        return {"error": str(exc)}, EXIT_CERTIFICATE
    return rep.to_dict(), (EXIT_CONTRADICTION if rep.verdict == "CONTRADICTION" else EXIT_OK)


# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every verb, built once per process: each
    add_argument makes a HelpFormatter, which asks for the terminal size,
    and a build takes about 1.3 ms. parse_args leaves the tree as it was
    (each call fills a new Namespace, repeatable flags included), so
    main's calls share it.

    Each subparser binds its _cmd_* function here, once, so patching a
    _cmd_* name after the first main call changes nothing; a test patches
    the names those functions call (check_sign, certificate_valid, ...).
    """
    parser = _Parser(
        prog="spherecert",
        description="certificate checks and bounds for spherical codes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expansion at points")
    p.add_argument("expansion", help="expansion JSON file")
    p.add_argument("--t", action="append", type=float, help="evaluation point (repeatable)")
    p.add_argument("--csv-out", help="write a dense [-1,1] sampling as CSV")
    p.add_argument("--samples", type=int, default=2001, help="CSV sample count")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("code-stats", help="distribution, moments and masses of a code")
    p.add_argument("code", help="built-in name (24cell, simplex<n>, cross<n>) or JSON file")
    p.add_argument("--degree", type=int, default=6, help="highest moment order")
    p.add_argument("--interval", action="append", type=_parse_interval,
                   metavar="a,b", help="interval mass to report (repeatable)")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="clustering tolerance")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_code_stats)

    p = sub.add_parser("verify-cert", help="run certificate side-condition checks")
    p.add_argument("cert", help="certificate JSON file")
    p.add_argument("--grid-step", type=float,
                   help=f"finest cell width of the 1-d sweeps (default {DEFAULT_STEP_1D:g})")
    p.add_argument("--triple-grid-step", type=float, default=DEFAULT_STEP_3D,
                   help="finest box width of the triple sweep (default %(default)g)")
    p.add_argument("--mode", choices=["sampled", "certified"], default="sampled")
    p.add_argument("--tol", type=_tolerance, default=5e-3,
                   help="violation tolerance (published coefficients are rounded)")
    p.add_argument("--psd-tol", type=_tolerance, default=1e-9)
    p.add_argument("--interval", action="append", type=_parse_interval,
                   metavar="a,b", help="sign-check interval (default: the domain T)")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("bound", help="distance-distribution bound B(N) and LP comparison")
    p.add_argument("cert", help="certificate JSON file")
    p.add_argument("--N", type=int, required=True, help="code size")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("kissing-check", help="cap bound vs B(N) contradiction test")
    p.add_argument("cert", help="scalar-M certificate JSON file")
    p.add_argument("--t0", type=float, required=True,
                   help="cap height in (-1, -1/sqrt(2)], where the cap holds at most n points")
    p.add_argument("--N", type=int, required=True, help="hypothetical code size")
    p.add_argument("--mu", type=int,
                   help="ignored; the cap capacity is n, since t0 <= -1/sqrt(2)")
    p.add_argument("--starts", type=int, help="ignored; sized the former multistart search")
    p.add_argument("--margin", type=float, default=1e-3)
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_kissing_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # inside the try: argument errors raise SystemExit2
        args = _build_parser().parse_args(argv)
        with warnings.catch_warnings():
            # a number the verb cannot compute is an input error, reported
            # as JSON and not as a warning on stderr
            warnings.simplefilter("error", RuntimeWarning)
            report, code = args.func(args)
        report["manifest"] = _manifest(args)
        # a non-finite number is refused: it has no strict JSON form
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        if args.out:  # written first, so a failed write prints only its error
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    except SystemExit2 as exc:
        error = str(exc)
    except (ValueError, KeyError, TypeError, OSError, RuntimeWarning) as exc:
        error = f"{type(exc).__name__}: {exc}"
    else:
        _print(text)
        return code
    _print(json.dumps({"error": error}, indent=2))
    return EXIT_VALIDATION


def _print(text: str) -> None:
    """Print text and flush stdout. A reader that closes stdout early
    (`| head`) ends the output quietly: stdout is pointed at os.devnull,
    so that the interpreter's final flush cannot raise again, and main
    returns the exit code it would have returned."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
