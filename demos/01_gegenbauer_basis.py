"""Tour of the normalized Gegenbauer basis.

Every basis polynomial is 1 at t = 1, carries the parity of its degree,
stays inside [-1, 1], and is orthogonal to the others under the weight
(1 - t^2)^((n-3)/2). The bundled certificate expansions g1 and g2 are
degree-22 combinations of these in dimension 4.
"""

import numpy as np
from scipy.special import roots_gegenbauer

from spherecert import gegenbauer_eval
from spherecert.data import load_expansion
from spherecert.gegenbauer import monomial_coeffs

n = 4
print(f"dimension n = {n}, basis normalized so G_k(1) = 1\n")

ts = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
print("k | G_k at t = -1, -1/2, 0, 1/2, 1")
for k in range(6):
    vals = " ".join(f"{gegenbauer_eval(n, k, t):+.4f}" for t in ts)
    print(f"{k} | {vals}")

print("\nexact monomial coefficients from the recurrence:")
for k in range(4):
    print(f"  G_{k} =", [str(c) for c in monomial_coeffs(n, k)])

# a 4-node Gauss rule for the weight is exact up to degree 7
nodes, weights = roots_gegenbauer(4, (n - 2) / 2.0)
print("\northogonality integrals by Gauss quadrature (should vanish off the diagonal):")
for j in range(3):
    row = " ".join(
        f"{np.sum(weights * gegenbauer_eval(n, j, nodes) * gegenbauer_eval(n, k, nodes)):+.2e}"
        for k in range(3)
    )
    print(f"  j={j}: {row}")

g1 = load_expansion("g1")
g2 = load_expansion("g2")
print("\nbundled expansions:")
for name, g in (("g1", g1), ("g2", g2)):
    print(
        f"  {name}: degree {g.degree}, {name}(-1) = {g.eval(-1.0):.4f}, "
        f"{name}(1) = {g.at_one():.4f}, min coefficient = {g.coeffs.min():.4f}"
    )

print("\ndense samples for plotting (t, g1, g2):")
for t in np.linspace(-1, 0.5, 7):
    print(f"  {t:+.2f}  {g1.eval(t):+10.4f}  {g2.eval(t):+10.4f}")
print("\n(the CLI writes full CSV samplings: spherecert eval <file> --csv-out out.csv)")
