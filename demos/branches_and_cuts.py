"""Where the two branches live and what happens on their cuts.

F1 is the bounded super-exponential (F1(0) = 1, values trapped around
the fixed point e); F3 is the entire one (F3(0) = 3, real blow-up). The
inverses A1 and A3 carry cuts on the real axis: A1 along [e, inf), A3
along (-inf, e]. On a cut the limits from above and below differ, and
for real x > e the two A1 limits belong to different sheets, so the
round trip F1(A1(x)) does not return to x there. This demo makes each of
those statements concrete.
"""

import math

from superexp.errors import BranchCutError, DomainError
from superexp.evaluators import A1, F1, F3
from superexp.iteration import IterateRequest, exp_iterate

E = math.e

print("the two super-exponentials along the real axis:")
for x in (-1.0, 0.0, 1.0, 4.0, 16.0):
    print(f"  x = {x:>5}: F1 = {F1(x).real:>18.12f}   F3 = {F3(x).real:>18.6f}")
print(f"  F1 flattens toward e = {E:.12f}; F3 keeps growing.\n")

print("A1 on its cut [e, inf):")
try:
    A1(4.0)
except BranchCutError as exc:
    print(f"  A1(4.0) raises BranchCutError: {exc}")
above = exp_iterate(IterateRequest(0.0, 4.0, branch="lower", cut_side="above"))
below = exp_iterate(IterateRequest(0.0, 4.0, branch="lower", cut_side="below"))
print(f"  limit from above: {above:.12g}")
print(f"  limit from below: {below:.12g}")
print("  (conjugates, as the reflection principle demands)\n")

# the sided value is on a different sheet: mapping it back through F1
# does not land on 4.0; this is the monodromy of the cut, and the reason
# the d1fa agreement diagnostic collapses right of e near the axis
print("round trip through the continuation right of e:")
print(f"  F1(A1(4.0 from above)) = {above:.12g}, gap {abs(above - 4):.3f}")
inside = complex(3.0, 1e-6)
edge = exp_iterate(IterateRequest(0.0, 3.0, branch="lower", cut_side="above"))
print(f"  inside the expansion disk the limit is honest:")
print(f"    F1(A1({inside:g})) - (sided value at 3) = "
      f"{abs(F1(A1(inside)) - edge):.2e}")
print(f"  farther out the escaping double orbit loses its phase:")
print(f"    A1(4 + 0.01j) = {A1(complex(4.0, 0.01)):g}  (an exactly real")
print(f"    sheet; the agreement maps show < 1 digit in this strip)\n")

print("F1 on its cut (-inf, -2]:")
above = F1(-3.5, cut_side="above")
print(f"  F1(-3.5 + i0^+) = {above:.12g}")
print(f"  F1(-3.5 - i0^-) = {F1(-3.5, cut_side='below'):.12g}")
print("  the imaginary part flips sign across the cut; off the end of")
print(f"  the cut the function is real again: F1(-1.5) = {F1(-1.5).real:.12g}")
try:
    F1(-3.0, cut_side="above")
except DomainError as exc:
    print(f"  on the cut F1 has a pole at each integer: {exc}")
