"""Curvature quartic identities, verified exactly on a seeded Weyl tensor
and Schouten Hessian.

The generators enforce all index symmetries, zero traces and the trace
constraint in rational arithmetic; every identity of the named list
``tensor.weyl_identities`` then holds with exact equality of every
polynomial coefficient.
"""

from qcurv.tensor import random_schouten_hessian, random_weyl, weyl_identities

n, seed = 6, 2
W = random_weyl(n, seed)
Jh = random_schouten_hessian(n, seed, W)
blocks = W.quartic_harmonic_split()
print(f"random Weyl tensor and Schouten Hessian: n={n}, seed={seed}")
print("  |W|^2 =", W.norm_sq())
print("  trace of J =", Jh.trace())
print("  quartic form sum_kl (W_ikjl x_i x_j)^2 has", len(W.quartic_form().terms), "monomials")
print("  harmonic split blocks (k, degree of h):", [(b.k, b.h.degree) for b in blocks])
print("  radial block constant:", blocks[2].h)
print("  sphere average (in units of omega_n):", W.sphere_average_quartic())

print("\nexact identities:")
for name, ok in weyl_identities(W, Jh):
    print(f"  {name:<18} {ok}")
