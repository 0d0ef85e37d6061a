"""Scramble a presentation with random moves, then recover the verdict.

A seeded walk applies handle slides, orientation reversals and
(de)stabilizations.  The matrix it produces looks nothing like the
start, but every reported invariant agrees and the classifier proves
the two presentations equivalent.
"""

from fractions import Fraction

from quadlink import QmodZ, invariants_report, presentation, random_walk, yc_equivalent


def shown(report):
    """The stable profile with its residue multisets written as the values r/M in Q/Z they stand for."""
    profile = report.stable_profile()
    # linking diagonal, then, with a vanishing free part, values and defects
    multisets = tuple(tuple(QmodZ(Fraction(r, report.value_modulus)) for r in f) for f in profile[3:6])
    return profile[:3] + multisets + profile[6:]


start = presentation([[3, -1], [-1, 2]], [3, 2])
walked, trail = random_walk(start, steps=30, seed=8)

print("start matrix      ", start.matrix.data)
print("after 30 moves    ", walked.matrix.data)
print("moves applied     ", ", ".join(type(m).__name__ for m in trail[:8]), "...")
print()

r1 = invariants_report(start)
r2 = invariants_report(walked)
print("stable profile before:", shown(r1))
print("stable profile after: ", shown(r2))
assert r1.stable_profile() == r2.stable_profile()

verdict = yc_equivalent(start, walked)
print()
print(f"verdict: {verdict.status} ({verdict.reason})")
