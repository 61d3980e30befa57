"""Ruling out a 25-point kissing configuration in dimension 4.

The argument has two prongs. Downward: if a (25, 4) kissing configuration
existed, the g1 certificate would force its average energy R_g1 above
B(25) = 0.0324. Upward: any point of such a configuration sees all other
points either in the polar cap opposite it (where at most 4 points fit,
since t0 <= -1/sqrt(2)) or in the band [t0, 1/2], where g1 is at most the
certified bound epsilon (about 2.0e-4: the published coefficients are
rounded, so g1 pokes slightly above 0 near t0). So R_g1 is at most
U' = max over m of the m-point cap value plus (24 - m) epsilon.

Each cap value is bounded by a certified sweep over the heights of the m
points: boxes of heights are pruned where no configuration fits (a matrix
test at their corner) or where an envelope of g1 keeps them below the
threshold B(25) - margin - (24 - m) epsilon. At N = 25 every m is decided
below its threshold: contradiction. At N = 24 a feasible configuration
(a witness, a certified lower bound) lies above the threshold, as it must:
the 24-cell exists.
"""

import numpy as np

from spherecert import kissing_check
from spherecert.data import load_certificate

cert = load_certificate("g1")
t0 = -np.sqrt(2.0) / 2.0


def show(values):
    return " ".join(f"m={m}:{'none' if v is None else f'{v:.4f}'}"
                    for m, v in enumerate(values))


for N in (25, 24):
    rep = kissing_check(cert.g, cert.M, t0=t0, N=N)
    print(f"N = {N}")
    print(f"  certificate lower bound B({N}) = {rep.bound:.4f}")
    print(f"  epsilon = certified max of g1 on [t0, 1/2] = {rep.epsilon:.5e} "
          f"({rep.sign_check.evaluations} evaluations)")
    print(f"  cap lower bounds (witnesses): ", show([s["lower"] for s in rep.sweeps]))
    print(f"  cap upper bounds (certified): ", show(rep.cap_values))
    print(f"  sweeps by m:                  ",
          " ".join(f"m={m}:{s['ended']}/{s['boxes']} boxes" for m, s in enumerate(rep.sweeps)))
    print(f"  charged upper bounds cap_m + ({N - 1} - m) epsilon:", show(rep.charged_values))
    print(f"  U' = {rep.charged_best:.6f} against B({N}) - margin = "
          f"{rep.bound - rep.margin:.6f}")
    if rep.cap_lower is not None:
        w = rep.cap_lower
        print(f"  best witness: {w['m']} points at heights "
              f"{', '.join(f'{h:.4f}' for h in w['heights'])}, value {w['value']:.6f}, "
              f"charged {w['value'] + max(N - 1 - w['m'], 0) * rep.epsilon:.6f}")
    print(f"  verdict on U': {rep.verdict}; U' < B({N}) - margin holds for every M "
          f"below M_max = {rep.M_max:.5f}")
    print()

print("same pipeline from the command line:")
print("  spherecert kissing-check src/spherecert/data/g1_cert.json \\")
print("      --t0=-0.7071067811865476 --N 25   # exits 4 on contradiction")
