"""Exact polynomial algebra: harmonic decomposition and the radial
operator family.

Everything here is rational arithmetic; equalities are exact, not
approximate.
"""

from fractions import Fraction

from qcurv.polyalg import (
    HomogPoly,
    eigen_AA,
    harmonic_decompose,
    solve_AA,
    solve_residual,
    split_identities,
)

n = 5

# x_1^2 splits into a harmonic part and a pure-trace part
p = HomogPoly.monomial(n, [2, 0, 0, 0, 0])
print("decompose x1^2 in", n, "variables:")
blocks = harmonic_decompose(p)
for block in blocks:
    print(f"  r^{2 * block.k} * {block.h}")
assert all(ok for _, ok in split_identities(p, blocks))

# the composite radial operator acts diagonally on harmonic blocks
print("\neigen_AA(n=5, m=4, k):", [str(eigen_AA(5, 4, k)) for k in (0, 1, 2)])

# inverting it against a harmonic monomial is a scalar division
rhs = HomogPoly.monomial(n, [1, 1, 1, 1, 0], Fraction(7, 3))
psi = solve_AA(n, rhs)
print("\nsolve against (7/3) x1 x2 x3 x4:")
print("  psi =", psi.get(4, 0))
print("  operator applied back, residual is zero:", solve_residual(n, psi, rhs).is_zero())

# at n = 8 the radial block r^4 sits in the kernel and forces a log
rhs8 = HomogPoly.r_squared(8).mul_r2k(1)  # r^4
psi8 = solve_AA(8, rhs8)
print("\nn=8 kernel block: solution carries log^k r with k =", psi8.max_log_power())
print("  log-shell polynomial:", psi8.get(4, 1))
assert solve_residual(8, psi8, rhs8).is_zero()
print("  exact inversion including log bookkeeping: True")
