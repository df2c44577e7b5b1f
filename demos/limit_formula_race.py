"""Race the classical limit formulas against the series evaluator.

Both textbook routes to the super-logarithm at -1 converge like 1/n
with logarithmic drag, gaining roughly one digit per decade of orbit
length. The series evaluator reaches full accuracy in a fraction of a
millisecond, which is the whole reason it exists. Expect a few seconds
of runtime for the n = 10^4 rows.
"""

import time

import mpmath

from superexp import A1, EvalContext, PrecisionConfig, convergence_table

ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
A1(-1, ctx)  # warm-up: the kernel's tables and the tier's constants are built here
start = time.perf_counter()
reference = A1(-1, ctx)
series_time = time.perf_counter() - start
with mpmath.mp.workprec(128):
    print("series evaluator: A1(-1) =", mpmath.nstr(reference, 25))
print(f"                  ({series_time * 1e3:.2f} ms after warm-up)\n")

cfg = PrecisionConfig(mantissa_bits=192)
ns = [100, 1000, 10000]
print(f"{'n':>6}  {'levy probe':>15}  {'digits':>6}  {'fatou probe':>15}  {'digits':>6}")
levy = {r.n: r.value for r in convergence_table("levy", (-1, 1), ns, cfg)}
fatou = {r.n: r.value for r in convergence_table("fatou1", (-1,), ns, cfg)}
for n in ns:
    with mpmath.mp.workprec(128):
        dl = -mpmath.log10(abs(levy[n] - reference))
        df = -mpmath.log10(abs(fatou[n] - reference))
    print(
        f"{n:>6}  {mpmath.nstr(levy[n], 12):>15}  {float(dl):>6.2f}"
        f"  {mpmath.nstr(fatou[n], 12):>15}  {float(df):>6.2f}"
    )

print("\nboth probes gain about one digit per decade of n (the shift")
print("probe starts ~25x closer); matching the evaluator's 15-16 digits")
print("would need orbits beyond n = 10^16.")
