"""qcurv: exact and spectral verification tools for the 4th-order Paneitz
operator, Q-curvature functionals, and Green's-function expansions on and
around the round sphere.

The package itself exports nothing; import its submodules, for example
``from qcurv import polyalg``:
  polyalg      exact rational homogeneous polynomials, harmonic
               decomposition, the radial operator family and its inverse
  tensor       Weyl-tensor algebra and curvature quartics at a point
  parametrix   Green's-function expansion near the pole
  radial       closed-form radial functions c lam^p r^j (r^2 + lam^2)^s
  sphereforms  bubbles, sharp constants, moment integrals
  spectral     zonal Gegenbauer solver and the extremal functionals
  asymptotics  test-function energy expansions and coefficient fits
  report       verification records and their deterministic JSON
  cli          the `qcurv` command-line entry point
"""
