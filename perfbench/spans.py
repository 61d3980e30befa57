"""Spans around spherecert's public functions, recorded from outside.

Tracer.install() replaces each traced name, on every module or class where
it is looked up, with a wrapper that records a span: name, start, end,
the enclosing span, and a few counts taken from the arguments or the
result. Spans stay in memory; the worker writes them when the pass ends.
A span's self time is its duration minus the durations of its children,
which never overlap because a pass runs on one thread.
"""

from __future__ import annotations

import functools
import time
import weakref

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: int, info: dict):
        self.name, self.parent, self.info = name, parent, info
        self.start = self.end = 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.info}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1,
                        before(*args, **kwargs) if before else {})
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after:
                span.info.update(after(out, *args, **kwargs))
            return out

        setattr(owner, attr, traced)

    def install(self) -> None:
        from spherecert import bounds, capopt, cli, codes, data, gegenbauer, threepoint, verify

        w = self.wrap
        expansion_points = lambda self_, t: {"points": int(np.size(t))}
        for attr in ("eval", "__call__"):
            w(gegenbauer.GegenbauerExpansion, attr, "gegenbauer.eval", expansion_points)
        for mod in (gegenbauer, codes):
            w(mod, "gegenbauer_eval", "gegenbauer.eval",
              lambda n, k, t: {"points": int(np.size(t))})

        def sweep(out, *args, **kwargs):
            lo, hi = args[2] if out.condition.startswith("triple") else args[1]
            size = (hi - lo) / out.grid_step
            degree = getattr(args[0], "d", None) or 0
            return {"certified": out.certified, "pad": out.worst_violation - out.sample_max,
                    "size": (degree, size)}

        for mod in (verify, cli, capopt):
            w(mod, "check_sign", "verify.sign", after=sweep)
        for mod, attr in ((verify, "check_pair_condition"), (verify, "check_dd_pair_condition"),
                          (cli, "check_dd_pair_condition")):
            w(mod, attr, "verify.pair")
        for mod in (verify, cli):
            w(mod, "check_triple_condition", "verify.triple", after=sweep)

        seen = weakref.WeakSet()

        def poly_before(cert):
            cold = cert not in seen
            seen.add(cert)
            return {"cold": cold}

        w(threepoint.TripleCertificate, "poly", "threepoint.poly", poly_before,
          lambda out, cert: {"monomials": len(out)})
        w(threepoint.TripleCertificate, "eval", "threepoint.eval",
          lambda cert, t, u, v: {"points": int(np.broadcast(np.asarray(t), np.asarray(u),
                                                            np.asarray(v)).size)})
        for attr in ("triple_sum", "triple_sum_parts"):
            w(threepoint, attr, "threepoint.triple_sum")
        for mod, attr in ((threepoint, "psd_check"), (threepoint, "certificate_valid"),
                          (cli, "certificate_valid")):
            w(mod, attr, "threepoint.psd")

        w(capopt, "cap_max", "capopt.cap_max",
          lambda problem, starts=capopt.DEFAULT_STARTS, seed=0: {"starts": starts})
        for mod in (capopt, cli):
            w(mod, "kissing_check", "capopt.kissing_check")
        w(capopt, "minimize", "capopt.polish",
          after=lambda res, *a, **k: {"nfev": int(res.nfev), "success": bool(res.success)})

        for mod in (codes, cli):
            w(mod, "distance_distribution", "codes.distribution",
              after=lambda out, *a, **k: {"clusters": len(out.entries)})
            w(mod, "moment", "codes.moment")
        for mod, attr in ((codes, "energy"), (bounds, "energy"), (codes, "r_value"),
                          (codes, "s_sum")):
            w(mod, attr, "codes.energy")
        for attr in bounds.__all__:
            if callable(getattr(bounds, attr)) and not isinstance(getattr(bounds, attr), type):
                w(bounds, attr, "bounds")
        for attr in ("dd_bound", "lp_rg_lower"):
            w(cli, attr, "bounds")
        for attr in ("load_expansion", "load_certificate"):
            w(data, attr, "data.load")
        w(cli, "main", "cli", lambda argv: {"verb": argv[0]})


def _largest_certified_pad(spans: list[Span], name: str) -> float:
    cases = [s.info for s in spans if s.name == name and s.info.get("certified")]
    return max(cases, key=lambda i: i["size"])["pad"] if cases else 0.0


VERBS = ("eval", "code-stats", "verify-cert", "bound", "kissing-check")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures from one pass's spans. `_s` figures are self time
    unless the README says inclusive."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    own: dict = {}
    total: dict = {}
    calls: dict = {}
    for s, c in zip(spans, child):
        dur = s.end - s.start
        own[s.name] = own.get(s.name, 0.0) + dur - c
        total[s.name] = total.get(s.name, 0.0) + dur
        calls[s.name] = calls.get(s.name, 0) + 1

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    cold = [s for s in spans if s.name == "threepoint.poly" and s.info["cold"]]
    m = {
        "gegenbauer.eval_s": own.get("gegenbauer.eval", 0.0),
        "gegenbauer.eval_calls": calls.get("gegenbauer.eval", 0),
        "gegenbauer.eval_points": info_sum("gegenbauer.eval", "points"),
        "verify.sign_s": own.get("verify.sign", 0.0),
        "verify.pair_s": own.get("verify.pair", 0.0),
        "verify.triple_s": own.get("verify.triple", 0.0),
        "verify.sign_pad": _largest_certified_pad(spans, "verify.sign"),
        "verify.triple_pad": _largest_certified_pad(spans, "verify.triple"),
        "threepoint.sk_build_s": sum((s.end - s.start for s in cold), 0.0),
        "threepoint.monomials": max((s.info.get("monomials", 0) for s in cold), default=0),
        "threepoint.f_eval_s": own.get("threepoint.eval", 0.0),
        "threepoint.f_eval_calls": calls.get("threepoint.eval", 0),
        "threepoint.f_eval_points": info_sum("threepoint.eval", "points"),
        "threepoint.triple_sum_s": own.get("threepoint.triple_sum", 0.0),
        "threepoint.psd_s": own.get("threepoint.psd", 0.0),
        "capopt.cap_max_s": total.get("capopt.cap_max", 0.0),
        "capopt.ascent_s": own.get("capopt.cap_max", 0.0),
        "capopt.polish_s": total.get("capopt.polish", 0.0),
        "capopt.polish_runs": calls.get("capopt.polish", 0),
        "capopt.polish_nfev": info_sum("capopt.polish", "nfev"),
        "capopt.polish_success": info_sum("capopt.polish", "success"),
        "capopt.starts": info_sum("capopt.cap_max", "starts"),
        "codes.distribution_s": own.get("codes.distribution", 0.0),
        "codes.clusters": info_sum("codes.distribution", "clusters"),
        "codes.energy_s": own.get("codes.energy", 0.0),
        "codes.moment_s": own.get("codes.moment", 0.0),
        "bounds.s": own.get("bounds", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "data.load_s": total.get("data.load", 0.0),
    }
    for verb in VERBS:
        m[f"cli.verb_s.{verb}"] = sum((s.end - s.start for s in spans
                                       if s.name == "cli" and s.info["verb"] == verb), 0.0)
    return m
