"""Censuses over small families with positive first Betti number.

First the zero-framed unknot (S^2 x S^1): decorations s and -s merge,
nothing else does, so the classes are {0} and {s, -s}.  Then connected
sums of that piece with a 2-framed unknot, where the verdict is the
finite regime on translates: a free decoration part of gcd 2g lets the
torsion quadratic function move by b(., t) for t in gT.
"""

from itertools import product

from quadlink import intmatrix, presentation, yc_classes, yc_equivalent

print("circle bundle censuses, decorations -6..6")
partition = yc_classes(intmatrix([[0]]), [(s,) for s in range(-6, 7, 2)])
for block in partition:
    print("  class:", sorted(v[0] for v in block))

print()
print("diag(0, 2) with decorations (2a, b), |a| <= 2")
matrix = intmatrix([[0, 0], [0, 2]])
vectors = [(2 * a, b) for a, b in product(range(-2, 3), (0, 2))]
partition = yc_classes(matrix, vectors)
for block in partition:
    print("  class:", sorted(block))

# two decorations that merge only via an actual handle slide
a = presentation([[0, 0], [0, 2]], [2, 0])
b = presentation([[0, 0], [0, 2]], [2, 2])
print()
print("witness that (2,0) ~ (2,2):", yc_equivalent(a, b).reason)
