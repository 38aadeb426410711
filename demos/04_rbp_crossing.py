"""Where two rankings trade places under rank-biased precision.

With persistence p, the rankings <1,0,0> and <0,1,1> score (1-p)*1 and
(1-p)*(p + p^2). The scores cross where 1 = p + p^2, at the positive root
of p^2 + p - 1: an irrational persistence, so no exact-rational evaluation
ever produces the tie, but a sign-change bracket pins it down. At p = 1/2
the binary scores are plain dyadic expansions, which makes the measure an
interval scale on full binary domains.
"""

import math
from fractions import Fraction

from metriclass import GradeScheme, Ranking, Universe, classify, measure_from_id, parse_domain

binary = GradeScheme.binary()
first = Ranking(binary, ("1", "0", "0"))
second = Ranking(binary, ("0", "1", "1"))
universe = Universe(6, 3)


def gap(p: Fraction) -> Fraction:
    rbp = measure_from_id(f"rbp?p={p}")
    a = rbp.evaluate(first, universe)
    b = rbp.evaluate(second, universe)
    return a.rational - b.rational


print("score gap of <1,0,0> minus <0,1,1> on a rational grid:")
for k in (30, 50, 60, 61, 62, 70, 90):
    p = Fraction(k, 100)
    sign = "+" if gap(p) > 0 else "-"
    print(f"  p = {str(p):7s} sign {sign}   gap = {float(gap(p)):+.6f}")

lo, hi = Fraction(61, 100), Fraction(62, 100)
while hi - lo > Fraction(1, 10**9):
    mid = (lo + hi) / 2
    if gap(mid) > 0:
        lo = mid
    else:
        hi = mid
golden = (math.sqrt(5) - 1) / 2
print(f"\nbisected bracket: [{float(lo):.9f}, {float(hi):.9f}]")
print(f"positive root of p^2 + p - 1: {golden:.9f}")
print(f"quadratic changes sign across the bracket: {(lo*lo+lo-1) < 0 < (hi*hi+hi-1)}")

print("\nat p = 1/2 the picture flips: binary scores are dyadic expansions")
for length in range(3, 9):
    verdict = classify(measure_from_id("rbp?p=1/2"), parse_domain(f"binary:L={length}"))
    print(f"  L={length}: {verdict.category}, {verdict.classes} distinct values,"
          f" constant gap 1/{2**length}")

print("\non a five-grade domain the same p = 1/2 loses injectivity: halving the")
print("gain is indistinguishable from moving one rank down, so a grade-1 document")
print("scores like a grade-2 document placed one position later:")
verdict = classify(measure_from_id("rbp?p=1/2"), parse_domain("graded:levels=5,L=4"))
print(f"  {verdict.describe()}")
