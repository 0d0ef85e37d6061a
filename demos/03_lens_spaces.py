"""Lens spaces: where equivalence classes undercount homeomorphism types.

For every order p the decoration classes of the p-framed unknot are as
many as the orbits of Z/p under multiplication by the square roots of
unity; for odd p they are those orbits, for even p only the counts agree.  Counting
homeomorphism types of decorated L(p,1) gives p/2 + 1 rounded up; the
first place the two counts split is p = 15.
"""

from quadlink import lens_diffeo_count, lens_yc_count, yc_classes
from quadlink.spaces import lens

print(" p   classes   homeo types")
for p in range(3, 26, 2):
    yc = lens_yc_count(p)
    diffeo = lens_diffeo_count(p, 1, 1)
    marker = "  <- strict drop" if yc < diffeo else ""
    print(f"{p:2d}   {yc:7d}   {diffeo:11d}{marker}")

print()
print("cross-check for p = 15: partition computed from scratch")
partition = yc_classes(lens(15, 1))
for block in partition:
    print("  class:", sorted(v[0] for v in block))
assert len(partition) == lens_yc_count(15)
