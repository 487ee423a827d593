"""Green's-function expansion of the Paneitz operator near its pole.

The expanded object is H = 2n(2-n)(4-n) omega_n G_{P,p}.  For n >= 9 the
degree-4 correction is a log-free polynomial with a closed form; at n = 8
a single r^4 log r shell appears with coefficient -|W|^2/1440; for a flat
metric every correction vanishes.
"""

from qcurv.parametrix import (
    CurvatureJet,
    flat_expansion,
    green_leading,
    latex_lines,
    n8_log_coefficient,
    psi4_closed_form,
    psi4_solve,
    random_jet,
    shell_identities,
)

# flat: bare r^{4-n} to any order
flat = flat_expansion(7)
print("flat n=7:", flat.expansion, "remainder", flat.remainder)

# n = 10: solver output equals the closed form, coefficient by coefficient
jet = random_jet(10, seed=3)
print("\nn=10 seeded jet: |W|^2 =", jet.W.norm_sq())
print("  solver == closed form:", psi4_solve(jet) == psi4_closed_form(jet))
green = green_leading(jet)
print("  remainder class:", green.remainder)
print("  shell identities:", shell_identities(jet, green))

# n = 8: the log shell and its coefficient
jet8 = random_jet(8, seed=3)
green8 = green_leading(jet8)
print("\nn=8 seeded jet: log shells (deg, logpow):", green8.log_terms())
print("  r^4 log r shell terms:", len(green8.expansion.get(4, 1).terms))
print("  log coefficient:", n8_log_coefficient(jet8))
print("  equals -|W|^2/1440:", n8_log_coefficient(jet8) == -jet8.W.norm_sq() / 1440)
print("  shell identities:", shell_identities(jet8, green8))

# dimensions 5..7 carry only the symbolic constant
g5 = green_leading(random_jet(5, seed=1))
print("\nn=5: constant term kept symbolic:", g5.constant_symbol,
      "| remainder:", g5.remainder)

print("\nLaTeX form of the n=8 expansion shells:")
for line in latex_lines(green8.expansion):
    print("  ", line[:100] + ("..." if len(line) > 100 else ""))
