"""Sharp constants on the round sphere and the bubble identity.

Prints the table of Q, omega_n, Y4, Theta4 for n = 5..12 with two
cross-checks: the Gamma-moment quotient reproducing Y4, and the duality
product Theta4 * Y4 = 1.  Then verifies pointwise that the bubble profile
solves the critical bilaplacian equation.
"""

import numpy as np

from qcurv.sphereforms import bubble_pde_residual, constants_table

rows = constants_table(range(5, 13))
print(f"{'n':>3} {'Q':>10} {'omega_n':>12} {'Y4':>14} {'Theta4':>14} "
      f"{'moment resid':>13} {'duality resid':>14}")
for r in rows:
    print(f"{r['n']:>3} {str(r['Q_sphere']):>10} {r['omega_n']:>12.6f} "
          f"{r['Y4']:>14.6f} {r['Theta4']:>14.8g} "
          f"{r['resid_Y4_vs_moments']:>13.2e} {r['resid_duality']:>14.2e}")

# the bubble (lam/(r^2+lam^2))^{(n-4)/2} solves
# Delta^2 u = n(n+2)(n-2)(n-4) u^{(n+4)/(n-4)}; in canonical form Delta^2 u
# is that single term, so the residual sits at rounding level
radii = np.geomspace(0.1, 10.0, 100)
print("\nbubble PDE residual (relative, max over 100 radii):")
for n in (5, 8, 12):
    worst = max(float(bubble_pde_residual(lam, n, radii).max()) for lam in (0.5, 1.0, 2.0))
    print(f"  n={n:>2}: {worst:.2e}")
