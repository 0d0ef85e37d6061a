"""The smallest interesting example: one surgery matrix, two decorations.

Surgery on a single +2-framed unknot gives real projective 3-space.
Its two decorations look alike on every coarse invariant, yet their
exact Gauss sums land on opposite primitive eighth roots of unity,
so no sequence of moves connects them.
"""

import math

from quadlink import invariants_report, presentation, yc_equivalent


def angle(residue: int, modulus: int) -> str:
    """The value residue/modulus in Q/Z as a reduced fraction."""
    g = math.gcd(residue, modulus)
    return f"{residue // g}/{modulus // g}"


plus = presentation([[2]], [0])
minus = presentation([[2]], [2])

for label, p in (("decoration (0)", plus), ("decoration (2)", minus)):
    r = invariants_report(p)
    print(label)
    print(f"  torsion group      Z/{r.torsion_factors[0]}")
    print(f"  function values    {[angle(v, r.value_modulus) for v in r.value_multiset]}")
    print(f"  gauss sum          {r.gauss.approx():.3f}")
    print(f"  exact coefficients modulus {r.gauss.modulus}, {list(r.gauss.coeffs)}")

verdict = yc_equivalent(plus, minus)
print()
print(f"verdict: {verdict.status}")
print(f"  {verdict.reason}")
