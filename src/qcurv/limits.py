"""The bounds and names that the CLI's options declare, defined once here
and read by the layers they bound (``tensor.MAX_N``, ``spectral.MAX_L``,
the keys of ``asymptotics.CASES``).  The module imports nothing, so the CLI
declares its options without importing numpy or any layer its subcommand
does not run.
"""

# largest dimension the CLI builds a Weyl tensor in: an n^4 int64 array is
# 20 MB at n = 40, the quartic form has C(n+3, 4) = 123410 terms, and
# `parametrix --n 40 --seed 1` peaks at about 185 MB RSS
MAX_N = 40

# Largest truncation degree of the spectral solver.  At L = 2048 the
# half-grid basis holds 2049 x 6147 floats (about 100 MB, half of the
# full-grid basis).  The recurrence fills its rows before they are folded,
# so a build there peaks near 225 MB RSS and takes 0.2-0.4 s (Python 3.11,
# numpy 2.4, one BLAS thread).  The cost grows as L^2.
MAX_L = 2048

# the dimension regimes of the asymptotics fits, in the order of CASES
CASE_NAMES = ("flat", "lowdim", "n8", "n9", "high")
