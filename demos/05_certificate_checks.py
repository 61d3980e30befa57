"""Verifying certificate side conditions.

A triple certificate earns its bound only if its matrices are PSD and its
coupling inequalities hold on T and on the realizable triples D3(T). This
walks a hand-built valid certificate and a broken one through every check.
"""

import numpy as np

from spherecert import (
    DomainSpec,
    GegenbauerExpansion,
    TripleCertificate,
    certificate_valid,
    check_triple_condition,
    check_sign,
    check_dd_pair_condition,
    in_d3,
    make_24cell,
    psd_check,
    triple_sum,
)

T = (-1.0, 0.5)
rng = np.random.default_rng(0)

print("D3 membership: which triples are realizable by three unit vectors?")
for tri in [(0.0, 0.0, 0.0), (-0.5, -0.5, -0.5), (-1.0, -1.0, -0.5)]:
    print(f"  {tri}: {in_d3(*tri, T)}")

# a valid certificate: PSD blocks, F0 = 0, h with nonnegative coefficients,
# and a constant g big enough to dominate both coupling inequalities
d = 3
H = []
for k in range(d + 1):
    a = rng.normal(size=(d + 1 - k, d + 1 - k))
    H.append(0.1 * a @ a.T)
F = TripleCertificate.from_matrices(4, d, H, 0.0)
h = GegenbauerExpansion(4, [0.3, 0.2, 0.1])
bound1 = float(np.sum(np.abs(h.coeffs))) + 1.0 + float(np.sum(np.abs(F.diag_restriction())))
bound2 = float(np.abs(F.poly()).sum())
g = GegenbauerExpansion(4, [max(bound1 / 2, bound2 / 3) + 0.1])

print("\nPSD validity:", certificate_valid(F).valid)
spec1 = DomainSpec(grid_step=1e-4, mode="lipschitz-certified")
rep = check_dd_pair_condition(h, 1.0, F, g, T, spec1)
print(f"coupling condition on T:      worst violation {rep.worst_violation:+.3e} (certified)")
rep = check_triple_condition(F, g, T, DomainSpec(grid_step=0.02))
print(f"coupling condition on D3(T):  worst violation {rep.worst_violation:+.3e}")
code = make_24cell()
print(f"triple sum on the 24-cell: {triple_sum(code, F):.3f} >= F0 N^3 = 0.0\n")

broken = np.array([[1.0, 2.0], [2.0, 1.0]])
res = psd_check(broken)
print("a broken block [[1,2],[2,1]]:")
print(f"  psd: {res.ok}, smallest eigenvalue {res.min_eigenvalue}, "
      f"witness w with w'Mw = {res.witness @ broken @ res.witness:.3f}")

g1 = GegenbauerExpansion(4, [0.0, 1.0])
rep = check_sign(g1, (0.0, 0.5), DomainSpec(grid_step=1e-4))
print(f"\nsign check that must fail: max of the degree-1 element on [0, 1/2] "
      f"is {rep.worst_violation:.3f} at t = {rep.location[0]:.3f}")
