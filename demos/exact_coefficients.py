"""Walk through the exact rational layer that everything else is built on.

The numerics downstream (Abel walks, asymptotic branches, calibration)
consume three families of exact coefficients, all of them series of the
one map h(x) = e^x - 1: its iterative logarithm, the tail of its
inverse-pole Abel expansion, and the polynomials of the asymptotic
super-exponential. All three are computed in Fraction arithmetic, so
this demo prints them as the exact rationals they are.
"""

from fractions import Fraction

from superexp.series import (
    abel_expansion,
    exp_minus_one,
    iterative_logarithm,
    regular_iterate_series,
    superexp_polynomials,
)

h = exp_minus_one(12)
print("h(x) = e^x - 1, truncated:")
print(" ", h)

j = iterative_logarithm(9)
print("\niterative logarithm j (solves j(h(x)) = h'(x) j(x)):")
for k in range(2, 9):
    print(f"  x^{k}: {j[k]}")

ab = abel_expansion(8)
print("\nAbel expansion about the parabolic point:")
print(f"  pole coefficient      {ab.pole_coefficient}")
print(f"  log coefficient       {ab.log_coefficient}")
print("  power-series tail    ", [str(ab.tail[m]) for m in range(1, 6)])

# the half iterate of h, exactly: coefficients are polynomials in the
# iteration order t, evaluated here at t = 1/2
half = regular_iterate_series(Fraction(1, 2), 8)
print("\nh^[1/2] to order 8:")
print(" ", half)

again = half.compose(half, 8)
print("  h^[1/2] o h^[1/2] equals h:", all(again[k] == h[k] for k in range(8)))

se = superexp_polynomials(5)
print("\nasymptotic branch polynomials P_m (monic, degree m):")
for m in range(1, 6):
    print(f"  P_{m}: {list(se.polynomial(m).coefficients)}")
