"""Ruling out a 25-point kissing configuration in dimension 4.

The argument has two prongs. Downward: if a (25, 4) kissing configuration
existed, the g1 certificate would force its average energy R_g1 above
B(25) = 0.0324. Upward: any point of such a configuration sees all other
points either in the polar cap opposite it (where at most mu = 4 points
fit) or in the band [t0, 1/2], where g1 is at most the certified bound
epsilon (about 2.0e-4: the published coefficients are rounded, so g1 pokes
slightly above 0 near t0). So R_g1 is at most U' = max over m of the best
cap configuration value for m points plus (24 - m) epsilon. That gives
0.0310 at two points, below 0.0324 - 0.001: contradiction. At N = 24 the
two prongs are compatible, as they must be: the 24-cell exists.
"""

import numpy as np

from spherecert import kissing_check
from spherecert.data import load_certificate

cert = load_certificate("g1")
t0 = -np.sqrt(2.0) / 2.0

for N in (25, 24):
    rep = kissing_check(cert.g, cert.M, t0=t0, mu=4, N=N, starts=200, seed=0)
    print(f"N = {N}")
    print(f"  certificate lower bound B({N}) = {rep.bound:.4f}")
    print(f"  cap values by point count m:   ",
          " ".join(f"m={m}:{v:.4f}" for m, v in enumerate(rep.cap_values)))
    print(f"  best cap value {rep.best_value:.4f} at m = {rep.best_m}")
    print(f"  epsilon = certified max of g1 on [t0, 1/2] = {rep.epsilon:.5e} "
          f"({rep.sign_check.evaluations} evaluations)")
    print(f"  charged cap values cap_m + ({N - 1} - m) epsilon:",
          " ".join(f"m={m}:{v:.4f}" for m, v in enumerate(rep.charged_values)))
    print(f"  U' = {rep.charged_best:.6f} against B({N}) - margin = "
          f"{rep.bound - rep.margin:.6f}")
    print(f"  verdict on U': {rep.verdict}")
    print(f"  ({rep.heuristic})")
    print()

print("same pipeline from the command line:")
print("  spherecert kissing-check src/spherecert/data/g1_cert.json \\")
print("      --t0=-0.7071067811865476 --mu 4 --N 25   # exits 4 on contradiction")
